"""Solvers and a simulation engine for 3D multiplayer reach-avoid
pursuit-evasion games with heterogeneous speeds and capture radii."""

from .engine import (
    Event,
    Frame,
    Scenario,
    ScenarioError,
    Trace,
    capture_check,
    random_scenario,
    run,
    step,
    validate_scenario,
)
from .geometry import (
    AssumptionViolation,
    CapturedConfigurationError,
    EvaderSpec,
    PursuerSpec,
    SingularPointError,
    potential,
    potential_gradient,
    speed_ratio,
)
from .interception import (
    Ball,
    GameKind,
    InterceptionResult,
    Region,
    SolverFailure,
    UNBOUNDED,
    Unbounded,
    classify_kind,
    classify_result,
    solve_interception,
    validate_coalition,
)
from .matching import (
    GameGraph,
    SizeGuardExceeded,
    ThreeDMInstance,
    build_graph,
    coalition_count,
    edges_conflict,
    exact_mbmc,
    is_conflict_free,
    max_bipartite_matching,
    reduce_3dm,
    sequential_matching,
)
from .strategy import (
    HOLD,
    evader_optimal_heading,
    is_hold,
    pursuer_heading,
    value_function,
)

__version__ = "0.1.0"
