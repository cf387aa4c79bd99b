"""The paper's proof instruments, kept as test references.

The paper proves two results that the game relies on but never evaluates:
the evasion space is strictly convex (criterion 4, through the polar
boundary description and the curvature of its planar cross-sections), and
at most three pursuers ever pin down an interception point (criterion 5,
through coalition reduction and the quartic of three boundaries).  The
game path runs none of this, so it lives here rather than in the package.

Every function calls the package's own kernels rather than copying them:
the boundary radius is ``geometry.radial_derivatives``, the triple
candidates are ``interception._triple_points`` on the solve's constraint
group, and reduction re-solves with ``solve_interception`` and tests
independence with ``interception._unique_multipliers``.  That is why these
helpers live here and not in :mod:`oracles`, whose helpers avoid the
library's solution paths altogether.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from reachavoid import _linalg as la
from reachavoid._linalg import Vec
from reachavoid.geometry import (
    AssumptionViolation,
    EvaderSpec,
    PursuerSpec,
    _check_not_captured,
    potential,
    radial_derivatives,
    speed_ratio,
)
from reachavoid.interception import (
    UNBOUNDED,
    Coalition,
    Region,
    _member_form,
    _program,
    _triple_points,
    _unique_multipliers,
    solve_interception,
    validate_coalition,
)

# Membership in the closed evasion space tolerates this much rounding below
# zero so that exact boundary points classify as inside.
CLOSURE_TOLERANCE = 1e-12


class CoplanarConfigurationError(ValueError):
    """Triple-intersection candidates need a non-coplanar configuration."""


@dataclass(frozen=True)
class PolarFrame:
    """Polar coordinates centred on the evader with initial rotations.

    ``theta`` rotates about the positive x-axis direction in the x-y plane,
    ``psi`` lifts out of the x-y plane; ``theta0``/``psi0`` are fixed offsets.
    """

    origin: Vec
    theta0: float = 0.0
    psi0: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "origin", la.as_vec(self.origin))
        object.__setattr__(self, "theta0", float(self.theta0))
        object.__setattr__(self, "psi0", float(self.psi0))
        if not 0.0 <= self.theta0 <= math.pi:
            raise ValueError(f"theta0 must lie in [0, pi], got {self.theta0}")
        if not 0.0 <= self.psi0 <= 2.0 * math.pi:
            raise ValueError(f"psi0 must lie in [0, 2*pi], got {self.psi0}")


def _radial_terms(pursuer: PursuerSpec, evader: EvaderSpec,
                  direction: Vec) -> tuple[float, float, float, float]:
    """``(h1, ar, a2m1, const)`` of the radial boundary description along
    ``direction``; see :func:`reachavoid.geometry.radial_derivatives`."""
    separation = _check_not_captured(pursuer, evader)
    alpha = speed_ratio(pursuer, evader)
    if alpha <= 1.0:
        raise AssumptionViolation(
            f"boundary radius requires speed ratio > 1, got alpha={alpha}"
        )
    r = pursuer.capture_radius
    h1 = la.dot(la.sub(evader.position, pursuer.position), direction) - alpha * r
    # Factored, alpha^2 - 1 keeps its digits for barely faster pursuers.
    a2m1 = (alpha - 1.0) * (alpha + 1.0)
    return h1, alpha * r, a2m1, a2m1 * (separation * separation - r * r)


def boundary_radius(pursuer: PursuerSpec, evader: EvaderSpec, direction) -> float:
    """Distance from the evader to its evasion-space boundary along ``direction``.

    ``direction`` must be a unit vector.  The returned radius is finite and
    strictly positive, and the boundary point ``x_E + rho * direction`` has
    zero potential.
    """
    e = la.as_vec(direction)
    if abs(la.norm(e) - 1.0) > 1e-12:
        raise ValueError(f"direction must be a unit vector, got norm {la.norm(e)}")
    h1, ar, a2m1, const = _radial_terms(pursuer, evader, e)
    return radial_derivatives(h1, 0.0, ar, a2m1, const)[0]


def boundary_point(pursuer: PursuerSpec, evader: EvaderSpec, direction) -> Vec:
    """Boundary point of the evasion space along a unit ``direction``."""
    e = la.as_vec(direction)
    rho = boundary_radius(pursuer, evader, e)
    return la.add(evader.position, la.scale(e, rho))


def in_closure(coalition, evader: EvaderSpec, pursuers, x) -> bool:
    """Whether ``x`` lies in the closed evasion space against a coalition.

    The coalition is a collection of indices into ``pursuers``; the closed
    space is the intersection of the per-pursuer closures, so membership
    requires every potential to be >= -CLOSURE_TOLERANCE.
    """
    members = tuple(coalition)
    if not members:
        raise ValueError("coalition must contain at least one pursuer index")
    point = la.as_vec(x)
    return all(
        potential(pursuers[i], evader, point) >= -CLOSURE_TOLERANCE for i in members
    )


def polar_direction(frame: PolarFrame, theta: float, psi: float) -> Vec:
    """Unit direction for angles ``(theta, psi)`` in the frame's rotated polar
    coordinates."""
    t = theta + frame.theta0
    p = psi + frame.psi0
    return (
        math.cos(p) * math.cos(t),
        math.cos(p) * math.sin(t),
        math.sin(p),
    )


def _rho_derivatives(pursuer: PursuerSpec, evader: EvaderSpec, frame: PolarFrame,
                     theta: float, psi: float) -> tuple[float, float, float]:
    """Radial boundary function and its first two psi-derivatives at fixed theta."""
    t = theta + frame.theta0
    p = psi + frame.psi0
    cos_p, sin_p = math.cos(p), math.sin(p)
    cos_t, sin_t = math.cos(t), math.sin(t)
    e: Vec = (cos_p * cos_t, cos_p * sin_t, sin_p)
    de: Vec = (-sin_p * cos_t, -sin_p * sin_t, cos_p)

    h1, ar, a2m1, const = _radial_terms(pursuer, evader, e)
    offset = la.sub(evader.position, pursuer.position)
    return radial_derivatives(h1, la.dot(offset, de), ar, a2m1, const)


def cross_section_curvature(pursuer: PursuerSpec, evader: EvaderSpec,
                            frame: PolarFrame, theta: float, psi: float) -> float:
    """Curvature of the planar boundary cross-section at angle ``psi``.

    Fixing ``theta`` selects a plane through the evader; the boundary traces
    a closed curve ``rho(psi)`` in that plane whose curvature is

        kappa = (rho^2 + 2 rho'^2 - rho rho'') / (rho^2 + rho'^2)^(3/2),

    with ``rho`` and its derivatives from the radial formula, differentiated
    exactly.  Strict convexity of the evasion space makes the result
    positive everywhere.
    """
    if la.dist(frame.origin, evader.position) > 1e-9:
        raise ValueError("frame origin must coincide with the evader position")
    rho, rho_d, rho_dd = _rho_derivatives(pursuer, evader, frame, theta, psi)
    numerator = rho * rho + 2.0 * rho_d * rho_d - rho * rho_dd
    return numerator / (rho * rho + rho_d * rho_d) ** 1.5


def triple_candidates(coalition, evader: EvaderSpec, pursuers) -> list[Vec]:
    """All common points of three evasion-space boundaries.

    Eliminating the radial coordinate from the three boundary equations
    leaves a quartic in the distance rho from the evader, so there are at
    most four candidates.  Requires the evader and the three pursuers to be
    non-coplanar; coplanar configurations raise
    :class:`CoplanarConfigurationError` and are handled by coalition
    reduction instead.
    """
    members = validate_coalition(coalition, len(pursuers))
    if len(members) != 3:
        raise ValueError("triple candidates require a coalition of exactly 3")
    group = _program(members, evader, pursuers, UNBOUNDED)
    points = _triple_points(*(_member_form(c.key) for c in group))
    if points is None:
        raise CoplanarConfigurationError(
            "evader and pursuers are coplanar; boundary intersections are "
            "not isolated points"
        )
    unique: list[Vec] = []
    for y in points:
        if max(abs(c.value(y)) for c in group) > 1e-7:
            continue
        point = la.add(evader.position, y)
        if all(la.dist(point, other) > 1e-8 for other in unique):
            unique.append(point)
    return unique


def reduce_coalition(coalition, evader: EvaderSpec, pursuers,
                     region: Region = UNBOUNDED) -> Coalition:
    """Smallest subcoalition that pins down the same interception point.

    Inactive members are redundant by complementary slackness; when the
    active gradients are linearly dependent a dependent member can also be
    dropped (highest index first), re-solving to confirm the point is
    unchanged.  At most three members ever remain.
    """
    members = validate_coalition(coalition, len(pursuers), max_size=None)
    result = solve_interception(members, evader, pursuers, region)
    current = members
    for _ in range(len(members) + 1):
        active = result.active_set
        if not active:
            # Only the region constraint binds; any single member certifies
            # the same point.  Keep the lowest index.
            return (current[0],)
        y = la.sub(result.point, evader.position)
        grads = [c.grad_hess(y, hessian=False)[1]
                 for c in _program(active, evader, pursuers, UNBOUNDED)]
        if len(grads) <= 3 and _unique_multipliers(grads) is not None:
            return tuple(active)
        dropped = False
        for drop in sorted(active, reverse=True):
            trial = tuple(i for i in active if i != drop)
            if not trial:
                continue
            trial_result = solve_interception(trial, evader, pursuers, region)
            if la.dist(trial_result.point, result.point) <= 1e-7:
                current, result = trial, trial_result
                dropped = True
                break
        if not dropped:
            return tuple(active)
    return tuple(result.active_set)
