"""Discrete-time receding-horizon game loop.

Every ``rematch_every`` frames the live players are rematched
(coalition-evader graph plus the sequential or exact matcher), but a new
matching is adopted only when it is strictly larger or a capture happened
since the last adoption.  No conflict-free matching holds more than
``min(live evaders, pursuers)`` edges, so a rematch frame whose adopted
matching is already that large, with no capture since the last adoption,
skips the build and the matcher: they could not change what is adopted.
Each frame solves every adopted coalition at the current positions, the
one source of its interception point, and its matched pursuers race
straight at that point; unmatched pursuers chase the nearest live evader,
and each evader follows its configured policy.  Motion integrates
straight lines exactly, and captures and exit crossings are resolved at
sub-frame times by closed-form interpolation along those lines.  Only the
solves read player specs: a frame moves every pursuer's spec, and the
specs of the evaders it solves for (every live one on a frame that
builds, the adopted ones otherwise), to the frame's positions; steering,
motion and the capture check work on ``Vec`` positions alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from . import _linalg as la
from ._linalg import Vec
from .geometry import EvaderSpec, PursuerSpec
from .interception import (
    Ball,
    Region,
    SolverFailure,
    UNBOUNDED,
    Unbounded,
    _index,
    solve_interception,
)
from .matching import (
    SizeGuardExceeded,
    build_graph_with_results,
    exact_mbmc,
    sequential_matching,
)
from .strategy import (
    _DEGENERATE_DISTANCE,
    evader_optimal_heading,
    pursuer_heading,
)

EVADER_POLICIES = ("straight", "optimal", "random-walk")

CAPTURED = "captured"
REACHED_GOAL = "reached_goal"
ESCAPED = "escaped"


class ScenarioError(ValueError):
    """An input document is malformed: a scenario, a game graph or a
    3-dimensional matching instance, or a scenario that violates the
    game-setup assumptions."""


@dataclass(frozen=True)
class Scenario:
    """Full description of one game: players, region, timing and policies."""

    pursuers: tuple[PursuerSpec, ...]
    evaders: tuple[EvaderSpec, ...]
    region: Region = UNBOUNDED
    dt: float = 0.01
    seed: int = 0
    max_time: float = 20.0
    evader_policies: tuple[str, ...] = ()
    matcher: str = "sma"
    rematch_every: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "pursuers", tuple(self.pursuers))
        object.__setattr__(self, "evaders", tuple(self.evaders))
        policies = tuple(self.evader_policies)
        if not policies:
            policies = ("straight",) * len(self.evaders)
        object.__setattr__(self, "evader_policies", policies)
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "max_time", float(self.max_time))
        for name in ("seed", "rematch_every"):
            try:
                object.__setattr__(self, name, _index(getattr(self, name)))
            except ValueError as exc:
                raise ScenarioError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class Event:
    time: float
    kind: str
    evader: int
    pursuer: int | None
    position: Vec


@dataclass(frozen=True)
class Frame:
    time: float
    pursuer_positions: tuple[Vec, ...]
    evader_positions: tuple[tuple[int, Vec], ...]
    matching: tuple[tuple[tuple[int, ...], int], ...]
    pursuer_headings: tuple[Vec, ...]
    evader_headings: tuple[tuple[int, Vec], ...]


@dataclass
class Trace:
    frames: list[Frame] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)
    summary: dict[str, int] = field(default_factory=dict)


def validate_scenario(scenario: Scenario) -> None:
    """Check the initial-deployment and speed-ratio assumptions.

    Raises :class:`ScenarioError` naming the offending field.
    """
    if not 0.0 < scenario.dt < math.inf:
        raise ScenarioError(f"dt: must be finite and > 0, got {scenario.dt}")
    if not 0.0 < scenario.max_time < math.inf:
        raise ScenarioError(
            f"max_time: must be finite and > 0, got {scenario.max_time}"
        )
    if scenario.rematch_every < 1:
        raise ScenarioError(
            f"rematch_every: must be >= 1, got {scenario.rematch_every}"
        )
    if scenario.matcher not in ("sma", "exact"):
        raise ScenarioError(f"matcher: unknown matcher {scenario.matcher!r}")
    if len(scenario.evader_policies) != len(scenario.evaders):
        raise ScenarioError(
            f"evader_policies: expected {len(scenario.evaders)} entries, "
            f"got {len(scenario.evader_policies)}"
        )
    for j, policy in enumerate(scenario.evader_policies):
        if policy not in EVADER_POLICIES:
            raise ScenarioError(f"evaders[{j}].policy: unknown policy {policy!r}")

    ball = scenario.region if isinstance(scenario.region, Ball) else None
    for i, a in enumerate(scenario.pursuers):
        for k in range(i + 1, len(scenario.pursuers)):
            if la.dist(a.position, scenario.pursuers[k].position) <= 1e-12:
                raise ScenarioError(
                    f"pursuers[{k}].pos: coincides with pursuers[{i}].pos"
                )
        if ball is not None and ball.g(a.position) < 0.0:
            raise ScenarioError(f"pursuers[{i}].pos: outside the ball play region")
    for j, e in enumerate(scenario.evaders):
        for k in range(j + 1, len(scenario.evaders)):
            if la.dist(e.position, scenario.evaders[k].position) <= 1e-12:
                raise ScenarioError(
                    f"evaders[{k}].pos: coincides with evaders[{j}].pos"
                )
        if e.position[2] <= 0.0:
            raise ScenarioError(
                f"evaders[{j}].pos: must start in the play region (z > 0)"
            )
        if ball is not None and ball.g(e.position) < 0.0:
            raise ScenarioError(f"evaders[{j}].pos: outside the ball play region")
        for i, p in enumerate(scenario.pursuers):
            if la.dist(e.position, p.position) <= p.capture_radius:
                raise ScenarioError(
                    f"evaders[{j}].pos: already within capture radius of "
                    f"pursuers[{i}]"
                )
            if p.speed <= e.speed:
                raise ScenarioError(
                    f"pursuers[{i}].speed: {p.speed} must exceed "
                    f"evaders[{j}].speed {e.speed}"
                )


def _moved(spec, position: Vec):
    """Validated player ``spec`` moved to ``position``, unchecked."""
    moved = object.__new__(type(spec))
    vars(moved).update(vars(spec), position=position)
    return moved


def step(positions, headings, speeds, dt: float) -> list[Vec]:
    """Advance straight-line motion one frame; hold sentinels stay put."""
    return _step([la.as_vec(p) for p in positions],
                 [la.as_vec(h) for h in headings], speeds, dt)


def _step(positions: list[Vec], headings: list[Vec], speeds, dt: float) -> list[Vec]:
    """:func:`step` on ``Vec`` positions and headings."""
    out: list[Vec] = []
    for p, h, speed in zip(positions, headings, speeds, strict=True):
        n = la.norm(h)
        if n <= _DEGENERATE_DISTANCE:
            out.append(p)
            continue
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"heading must be unit-norm or hold, got norm {n}")
        s = speed * dt
        out.append((p[0] + s * h[0], p[1] + s * h[1], p[2] + s * h[2]))
    return out


def capture_check(prev_positions, new_positions, pursuers, evaders, *,
                  region: Region = UNBOUNDED, frame_time: float = 0.0,
                  dt: float = 1.0, evader_ids=None) -> list[Event]:
    """Resolve captures and exit crossings within one frame of motion.

    ``prev_positions`` and ``new_positions`` are ``(pursuer_list,
    evader_list)`` pairs of points, one per entry of ``pursuers`` and one
    per id of ``evader_ids`` (by default, per entry of ``evaders``); all
    players move in straight lines between them, so the minimum pair
    distance is a quadratic in the interpolation parameter and crossings
    have closed forms.  For every evader the earliest event wins;
    simultaneous captures credit the lowest pursuer index.
    """
    prev_p, prev_e = prev_positions
    new_p, new_e = new_positions
    if evader_ids is None:
        evader_ids = tuple(range(len(evaders)))
    n_p, n_e = len(pursuers), len(evader_ids)
    vecs = []
    for name, points, n in (("prev_positions[0]", prev_p, n_p),
                            ("new_positions[0]", new_p, n_p),
                            ("prev_positions[1]", prev_e, n_e),
                            ("new_positions[1]", new_e, n_e)):
        if len(points) != n:
            raise ValueError(f"{name}: expected {n} points, got {len(points)}")
        vecs.append([la.as_vec(point) for point in points])
    return _capture_check(*vecs, [p.capture_radius for p in pursuers], evader_ids,
                          ESCAPED if isinstance(region, Ball) else REACHED_GOAL,
                          frame_time, dt)


def _capture_check(prev_p: list[Vec], new_p: list[Vec], prev_e: list[Vec],
                   new_e: list[Vec], radii, evader_ids, exit_kind: str,
                   frame_time: float, dt: float) -> list[Event]:
    """:func:`capture_check` on ``Vec`` positions, with the pursuers'
    capture radii and the event kind of an exit."""
    # On scalars: this runs for every pursuer-evader pair every frame.
    segments = [(p0[0], p0[1], p0[2], p1[0] - p0[0], p1[1] - p0[1],
                 p1[2] - p0[2], radius * radius)
                for p0, p1, radius in zip(prev_p, new_p, radii)]
    events: list[Event] = []
    for e0, e1, ej in zip(prev_e, new_e, evader_ids):
        ex, ey, ez = e0
        mx = e1[0] - ex
        my = e1[1] - ey
        mz = e1[2] - ez
        capture_tau: float | None = None
        capture_by: int | None = None
        for ip, (px, py, pz, nx, ny, nz, radius2) in enumerate(segments):
            # The sub-frame parameter where the pair distance first equals
            # the radius, if the frame reaches it.
            w0 = ex - px
            w1 = ey - py
            w2 = ez - pz
            c = w0 * w0 + w1 * w1 + w2 * w2 - radius2
            if c <= 0.0:
                tau = 0.0
            else:
                d0 = mx - nx
                d1 = my - ny
                d2 = mz - nz
                a = d0 * d0 + d1 * d1 + d2 * d2
                b = 2.0 * (w0 * d0 + w1 * d1 + w2 * d2)
                if a <= 1e-300:
                    continue
                disc = b * b - 4.0 * a * c
                if disc < 0.0:
                    continue
                tau = (-b - math.sqrt(disc)) / (2.0 * a)
                if not 0.0 <= tau <= 1.0:
                    continue
            if capture_tau is None or tau < capture_tau:
                capture_tau = tau
                capture_by = ip
        # Exit means strictly crossing the plane; live evaders always start
        # a frame above it.
        goal_tau: float | None = None
        if ez > 0.0 >= e1[2]:
            goal_tau = ez / (ez - e1[2])
        if capture_tau is None and goal_tau is None:
            continue
        if goal_tau is None or (capture_tau is not None and capture_tau <= goal_tau):
            tau, kind, pursuer_id = capture_tau, CAPTURED, capture_by
        else:
            tau, kind, pursuer_id = goal_tau, exit_kind, None
        position = la.add(e0, la.scale(la.sub(e1, e0), tau))
        events.append(Event(
            time=frame_time + tau * dt,
            kind=kind,
            evader=ej,
            pursuer=pursuer_id,
            position=position,
        ))
    events.sort(key=lambda ev: (ev.time, ev.evader))
    return events


def _clamp_to_ball(ball: Ball, positions: list[Vec]) -> list[Vec]:
    out: list[Vec] = []
    limit = ball.radius * (1.0 - 1e-12)
    for pos in positions:
        offset = la.sub(pos, ball.center)
        distance = la.norm(offset)
        if distance > limit:
            pos = la.add(ball.center, la.scale(offset, limit / distance))
        out.append(pos)
    return out


def _matching(adopted: dict[int, tuple[int, ...]]):
    """The adopted matching as a :class:`Frame` records it."""
    return tuple(sorted((members, ej) for ej, members in adopted.items()))


def _frame(time: float, pursuer_positions, evader_positions, matching,
           pursuer_headings, evader_headings) -> Frame:
    """A :class:`Frame` of ready tuples, built as its frozen ``__init__``
    builds it without one ``object.__setattr__`` per field."""
    frame = object.__new__(Frame)
    vars(frame).update(
        time=time,
        pursuer_positions=pursuer_positions,
        evader_positions=evader_positions,
        matching=matching,
        pursuer_headings=pursuer_headings,
        evader_headings=evader_headings,
    )
    return frame


def _nearest_exit_point(region: Region, position: Vec) -> Vec:
    if isinstance(region, Unbounded):
        return (position[0], position[1], 0.0)
    cx, cy, cz = region.center
    disk_radius = math.sqrt(region.radius * region.radius - cz * cz)
    dx = position[0] - cx
    dy = position[1] - cy
    planar = math.hypot(dx, dy)
    if planar <= disk_radius:
        return (position[0], position[1], 0.0)
    scale_ = disk_radius / planar
    return (cx + dx * scale_, cy + dy * scale_, 0.0)


def run(scenario: Scenario) -> Trace:
    """Play a scenario to termination and record the full trace.

    The loop per frame: rebuild the coalition-evader graph on live players,
    rematch, adopt the new matching only if strictly larger or after a
    capture, solve each adopted coalition at the frame's positions and
    steer its members at that interception point, apply policies to
    everyone else, integrate, and resolve capture/exit events at sub-frame
    accuracy.  A frame where no new matching could be adopted skips the
    build and the rematch: no capture since the last adoption, and an
    adopted matching of ``min(len(live), len(pursuers))`` edges, the most
    a conflict-free matching holds.  Every solve is a pure function of its
    inputs, so the trace is the one that rematching in such frames gives.
    Identical scenarios (including the seed) produce identical traces.
    """
    validate_scenario(scenario)
    pursuers = scenario.pursuers
    evaders = scenario.evaders
    region = scenario.region
    ball = region if isinstance(region, Ball) else None
    dt = scenario.dt
    rng = random.Random(scenario.seed)
    # Every position is a Vec from a validated spec, _step or the clamp.
    radii = [p.capture_radius for p in pursuers]
    p_speeds = [p.speed for p in pursuers]
    exit_kind = ESCAPED if ball is not None else REACHED_GOAL

    p_pos: list[Vec] = [p.position for p in pursuers]
    e_pos: dict[int, Vec] = {j: e.position for j, e in enumerate(evaders)}
    live: list[int] = sorted(e_pos)
    live_speeds = [evaders[j].speed for j in live]
    adopted: dict[int, tuple[int, ...]] = {}
    matching: tuple[tuple[tuple[int, ...], int], ...] = ()
    capture_flag = False
    trace = Trace()
    counts = {CAPTURED: 0, REACHED_GOAL: 0, ESCAPED: 0}

    frame_idx = 0
    while live and frame_idx * dt < scenario.max_time - 1e-12:
        now = frame_idx * dt
        live_pos = [e_pos[j] for j in live]
        # Coalitions in a matching are disjoint and nonempty, and each live
        # evader takes at most one, so no matching is larger than
        # min(len(live), len(pursuers)).  Once the adopted one is that
        # large, only a capture can make a new matching adoptable.
        rematch = frame_idx % scenario.rematch_every == 0 and (
            capture_flag or len(adopted) < min(len(live), len(pursuers))
        )
        # Specs at this frame's positions, for the evaders the frame solves.
        cur_pursuers = [_moved(p, pos) for p, pos in zip(pursuers, p_pos)]
        cur_evaders = {j: _moved(evaders[j], e_pos[j])
                       for j in (live if rematch else adopted)}

        try:
            if rematch:
                # perfbench's tracer times the build under this name.
                graph, _ = build_graph_with_results(
                    cur_pursuers, [cur_evaders[j] for j in live], region,
                    evader_ids=live,
                )
                if scenario.matcher == "exact":
                    try:
                        pairs = exact_mbmc(graph)
                    except SizeGuardExceeded:
                        pairs = sequential_matching(graph)
                else:
                    pairs = sequential_matching(graph)
                fresh = {ej: graph.coalitions[ci] for ci, ej in pairs}
                if len(fresh) > len(adopted) or capture_flag:
                    adopted = fresh
                    matching = _matching(adopted)
                    capture_flag = False

            # Matched pursuers race at their coalition's current interception
            # point; dropping redundant members never moves that point, so
            # one solve per adopted pair suffices.  Unmatched pursuers keep
            # the heading None until the nearest-evader scan below.
            p_head: list[Vec | None] = [None] * len(pursuers)
            intercept_points: dict[int, Vec] = {}
            for ej in sorted(adopted):
                members = adopted[ej]
                result = solve_interception(
                    members, cur_evaders[ej], cur_pursuers, region
                )
                intercept_points[ej] = result.point
                for i in members:
                    p_head[i] = pursuer_heading(p_pos[i], result.point)
        except SolverFailure as exc:
            failure = SolverFailure(f"frame {frame_idx} (t={now:g}): {exc}")
            failure.partial_trace = trace
            raise failure from exc
        for i, head in enumerate(p_head):
            if head is not None:
                continue
            # The nearest live evader by la.dist's arithmetic; ``live`` is
            # sorted, so a strict ``<`` keeps the lowest id among ties.
            px, py, pz = p_pos[i]
            nearest = math.inf
            for j, (ex, ey, ez) in zip(live, live_pos):
                dx = px - ex
                dy = py - ey
                dz = pz - ez
                d = math.sqrt(dx * dx + dy * dy + dz * dz)
                if d < nearest:
                    nearest = d
                    target = j
            p_head[i] = pursuer_heading(p_pos[i], e_pos[target])

        e_head: list[Vec] = []
        for j, pos in zip(live, live_pos):
            policy = scenario.evader_policies[j]
            if policy == "random-walk":
                while True:
                    raw = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
                    n = la.norm(raw)
                    if n > 1e-12:
                        break
                e_head.append(la.scale(raw, 1.0 / n))
            elif policy == "optimal" and j in intercept_points:
                e_head.append(evader_optimal_heading(pos, intercept_points[j]))
            else:
                e_head.append(evader_optimal_heading(
                    pos, _nearest_exit_point(region, pos)
                ))

        new_p = _step(p_pos, p_head, p_speeds, dt)
        new_e = _step(live_pos, e_head, live_speeds, dt)
        if ball is not None:
            new_p = _clamp_to_ball(ball, new_p)
            new_e = _clamp_to_ball(ball, new_e)

        events = _capture_check(p_pos, new_p, live_pos, new_e,
                                radii, live, exit_kind, now, dt)

        trace.frames.append(_frame(
            now, tuple(p_pos), tuple(zip(live, live_pos)), matching,
            tuple(p_head), tuple(zip(live, e_head)),
        ))

        e_pos.update(zip(live, new_e))
        p_pos = new_p
        if events:
            for event in events:
                trace.events.append(event)
                counts[event.kind] += 1
                live.remove(event.evader)
                adopted.pop(event.evader, None)
                e_pos.pop(event.evader, None)
                if event.kind == CAPTURED:
                    capture_flag = True
            live_speeds = [evaders[j].speed for j in live]
            matching = _matching(adopted)
        frame_idx += 1

    trace.frames.append(_frame(
        frame_idx * dt, tuple(p_pos), tuple((j, e_pos[j]) for j in live),
        matching, (), (),
    ))
    trace.summary = {
        "captured": counts[CAPTURED],
        "reached_goal": counts[REACHED_GOAL],
        "escaped": counts[ESCAPED],
        "survived": len(live),
    }
    return trace


def random_scenario(seed: int, *, max_pursuers: int = 5, max_evaders: int = 5,
                    region: Region = UNBOUNDED, dt: float = 0.01,
                    max_time: float = 8.0, matcher: str = "sma") -> Scenario:
    """Seeded random scenario satisfying the setup assumptions.

    Pursuers are strictly faster than every evader and players start well
    separated, so the generated scenario always validates.
    """
    rng = random.Random(seed)
    n_p = rng.randint(1, max_pursuers)
    n_e = rng.randint(1, max_evaders)
    ball = region if isinstance(region, Ball) else None
    for _ in range(1000):
        pursuers = tuple(
            PursuerSpec(
                position=(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5),
                          rng.uniform(0.2, 2.2)),
                speed=rng.uniform(1.6, 2.8),
                capture_radius=rng.uniform(0.08, 0.3),
            )
            for _ in range(n_p)
        )
        evaders = tuple(
            EvaderSpec(
                position=(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                          rng.uniform(1.0, 3.0)),
                speed=rng.uniform(0.8, 1.2),
            )
            for _ in range(n_e)
        )
        scenario = Scenario(
            pursuers=pursuers,
            evaders=evaders,
            region=region,
            dt=dt,
            seed=seed,
            max_time=max_time,
            evader_policies=tuple(rng.choice(EVADER_POLICIES) for _ in range(n_e)),
            matcher=matcher,
        )
        try:
            validate_scenario(scenario)
        except ScenarioError:
            continue
        if ball is not None and any(
            ball.g(p.position) < 0.1 for p in pursuers
        ):
            continue
        return scenario
    raise RuntimeError(f"could not generate a valid scenario for seed {seed}")
