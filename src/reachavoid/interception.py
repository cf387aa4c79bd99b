"""Interception points of evasion spaces via small convex programs.

Against a coalition of pursuers, the evader's reachable-without-capture
set is a compact, strictly convex intersection of per-pursuer bodies.  The
interception point is the unique lowest-altitude point of that set,
optionally further intersected with a closed ball play region:

    minimize    z
    subject to  f_i(x) >= 0        for every coalition member i,
                g(x)  >= 0         (ball region only),

with f_i the race potential of :mod:`reachavoid.geometry` and
g(x) = R^2 - ||x - c||^2.  :func:`_program` builds each solve's one
constraint group: a :class:`_Constraint` per member in coalition order,
then the ball's last.  The kernels, the certificate and the polish all
read that group, tell the ball from a member only by its ``member`` flag
and evaluate the ball by g alone, so active sets and multipliers are keyed
alike on every path; only the result splits the ball's entry out.

The solver works in the evader's frame, as the evasion spaces are built:
its one coordinate is y = x - x_E, each member enters as
(x_P - x_E, alpha, r) and the ball as the sphere (c - x_E, R).  Only the
entry to a solve and its result see absolute points, and the digits next
to the evader, where the bodies of nearly captured evaders are small, are
not lost to absolute coordinates.  With rho = ||y|| every boundary has the
one form

    y . q = (k rho^2 - 2 l rho + m) / 2,

with (q, k, l, m) = (x_P - x_E, 1 - alpha^2, alpha r, ||q||^2 - r^2) for
f_i = 0 and (c - x_E, 1, 0, ||c - x_E||^2 - R^2) for the ball sphere.

Every solve returns a point certified on the original Karush-Kuhn-Tucker
system of f_i, by one certificate: multipliers from the Gram system of the
active gradients (their minimum-norm least-squares fit when they are
dependent, none when three or more span only a plane), clamped to <= 0,
must leave stationarity and complementary slackness within
``KKT_TOLERANCE``.  In 3D at most three constraints pin the point down,
so a default solve first tries the candidate points of one, two and three
active constraints and certifies the first whose other constraints all
hold strictly.  A certified KKT point of this strictly convex program is
its unique minimizer, so the order below changes only the cost:

- **single**: each member's body alone has its lowest point found by a
  Newton search over one angle (the body is one of revolution about the
  evader-pursuer axis), seeded at the lowest point of the Apollonius
  sphere, which is exact when r = 0, and bracketed by the lower half of the
  section circle; the ball's lowest point is explicit.  Only the highest
  of these can have its constraint active alone, and it is certified in
  closed form: one multiplier ``min(-g_z / |g|^2, 0)``, one stationarity
  and one slackness residual, every other constraint strictly holding.
  This is the common case: the engine re-solves its adopted singles.
- **pair**: two boundaries meet on a curve over rho, which exists where a
  quartic h in rho is positive.  h has at most two peaks, and a safeguarded
  Newton search from each peak above zero finds the lowest point of that
  piece of the curve; the points are tried lowest first.  Pairs are tried
  by position, the ball (last) like a member.  When the evader and both
  axes lie in one vertical plane the point lies in that plane and the
  triple kernel finds it.  Parallel axes fix y . q twice, a quadratic in
  rho whose roots give circles about the axis; their lowest points are
  tried lowest first.
- **triple**: three forms give y = U rho^2 + V rho + W, and ||y|| = rho is a
  quartic in rho; its real roots are tried lowest point first.  When the
  axes are coplanar the forms combine into a quadratic in rho instead, and
  each root gives the lower of two points mirrored in the axes' plane.
- **polish**: when no candidate certifies (dependent gradients, or a
  candidate just outside the certificate) a Newton polish of the KKT
  system refines each set of one to three constraints, smallest first,
  from the set's own lowest points.  The first polished point that
  certifies is returned, with the constraints within ``ACTIVE_TOLERANCE``
  of their boundary as active set.

The module also classifies the winner of the single-evader game from the
sign of the optimal altitude.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from . import _linalg as la
from ._linalg import Vec
from .geometry import (
    AssumptionViolation,
    CapturedConfigurationError,
    EvaderSpec,
    _Con,
    _f_grad_hess,
    _f_original,
    _race,
    radial_derivatives,
)

if TYPE_CHECKING:
    from .engine import Trace

# Altitude threshold separating pursuit wins / tie / evader wins.
GOAL_TOLERANCE = 1e-7
# A constraint counts as active when |f_i| at the solution is below this.
ACTIVE_TOLERANCE = 1e-7
# Certified results must satisfy stationarity and complementary slackness
# to this accuracy.
KKT_TOLERANCE = 1e-8

_COALITION_MAX = 3

Coalition = tuple[int, ...]


class SolverFailure(RuntimeError):
    """The interception solver did not reach its certified accuracy."""

    #: The game up to the failing frame, when raised by ``engine.run``.
    partial_trace: Trace | None = None


class GameKind(enum.Enum):
    PURSUIT_WINS = "PursuitWins"
    TIE = "Tie"
    EVADER_WINS = "EvaderWins"


@dataclass(frozen=True)
class Unbounded:
    """Half-space play region above the exit plane z = 0."""


@dataclass(frozen=True)
class Ball:
    """Closed ball play region; must cut the plane z = 0 in a real disk."""

    center: Vec
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", la.as_vec(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"ball radius must be finite and > 0, got {self.radius}")
        if abs(self.center[2]) >= self.radius:
            raise ValueError(
                "ball must intersect the exit plane z=0 in a disk of positive radius"
            )

    def g(self, point: Vec) -> float:
        return _ball_g((self.center, self.radius), point)


Region = Unbounded | Ball
UNBOUNDED = Unbounded()


@dataclass(frozen=True)
class InterceptionResult:
    """Certified solution of the interception program; a solve that
    cannot certify its point raises :class:`SolverFailure` instead.

    ``multipliers`` aligns with ``coalition``; inactive members carry 0.
    All multipliers are <= 0 and satisfy stationarity

        (0, 0, -1) = sum_i multipliers[i] * grad f_i + region_multiplier * grad g

    to within ``kkt_residual``.
    """

    coalition: Coalition
    point: Vec
    value: float
    active_set: Coalition
    multipliers: tuple[float, ...]
    region_active: bool
    region_multiplier: float
    kkt_residual: float
    slackness_residual: float


def _index(value) -> int:
    """``value`` as an index or id: a Python or numpy integer, not a bool."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"indices and ids must be integers, got {value!r}")
    return operator.index(value)


def validate_coalition(members, num_pursuers: int | None = None,
                       max_size: int | None = _COALITION_MAX) -> Coalition:
    """Check integer, strictly increasing indices and size bounds; returns a
    tuple of ints."""
    out = tuple(map(_index, members))
    if not out:
        raise ValueError("coalition must contain at least one pursuer index")
    if max_size is not None and len(out) > max_size:
        raise ValueError(f"coalition size {len(out)} exceeds maximum {max_size}")
    for a, b in zip(out, out[1:]):
        if b <= a:
            raise ValueError(
                f"coalition indices must be strictly increasing, got {out}")
    if out[0] < 0:
        raise ValueError(f"coalition indices must be non-negative, got {out}")
    if num_pursuers is not None and out[-1] >= num_pursuers:
        raise ValueError(
            f"coalition index {out[-1]} out of range for {num_pursuers} pursuers"
        )
    return out


# --------------------------------------------------------------------------
# constraint bookkeeping
#
# Every function below works in the evader's frame: a point is y = x - x_E.
# Each coalition member contributes the tuple (q, alpha, r) with
# q = x_P - x_E, and the ball region the sphere (c - x_E, R); a solve wraps
# each in a _Constraint, the members first and the ball last.

_Sphere = tuple[Vec, float]


def _ball_g(ball: _Sphere, y: Vec) -> float:
    (c0, c1, c2), radius = ball
    d0 = y[0] - c0
    d1 = y[1] - c1
    d2 = y[2] - c2
    return radius * radius - (d0 * d0 + d1 * d1 + d2 * d2)


_BALL_HESSIAN = (-2.0, 0.0, 0.0, -2.0, 0.0, -2.0)


class _Constraint:
    """A member ``(q, alpha, r)`` or the ball's sphere ``(c, R)``, told
    apart by ``member``, with its own lowest point ``y`` (found by
    :meth:`lowest`) and its boundary form (made by :meth:`shape`)."""

    __slots__ = ("key", "member", "y", "form")

    def __init__(self, key, member: bool) -> None:
        self.key = key
        self.member = member
        self.y: Vec | None = None
        self.form: _Form | None = None

    def value(self, y: Vec) -> float:
        """The member's potential ``f`` or the ball's ``g`` at ``y``."""
        return _f_original(self.key, y) if self.member else _ball_g(self.key, y)

    def grad_hess(self, y: Vec, hessian: bool = True):
        """:meth:`value`, its gradient and its packed Hessian (None unless
        ``hessian``) at ``y``."""
        if self.member:
            return _f_grad_hess(self.key, y, hessian)
        grad = la.scale(la.sub(y, self.key[0]), -2.0)
        return _ball_g(self.key, y), grad, _BALL_HESSIAN if hessian else None

    def lowest(self) -> Vec:
        if self.y is None:
            if self.member:
                self.y = _solve_single(self.key)
            else:
                centre, radius = self.key
                self.y = (centre[0], centre[1], centre[2] - radius)
        return self.y

    def shape(self) -> _Form:
        if self.form is None:
            self.form = (_member_form(self.key) if self.member
                         else _ball_form(self.key))
        return self.form


def _outside(ball: Ball, position: Vec) -> bool:
    """Whether a solve rejects ``position`` as outside ``ball``."""
    return ball.g(position) < -1e-9


def _program(members: Coalition, evader: EvaderSpec, pursuers,
             region: Region) -> list[_Constraint]:
    """The solve's constraint group in the evader's frame: the members in
    order, then the ball when the region is bounded; raises on the inputs
    no solve accepts."""
    group = []
    for i in members:
        con = _race(pursuers[i], evader)
        q, alpha, r = con
        if alpha <= 1.0:
            raise AssumptionViolation(
                f"pursuer {i} is not faster than the evader (alpha={alpha})"
            )
        if la.norm(q) <= r:
            raise CapturedConfigurationError(
                f"evader is already within capture radius of pursuer {i}"
            )
        group.append(_Constraint(con, True))
    if not isinstance(region, Ball):
        return group
    for i in members:
        if _outside(region, pursuers[i].position):
            raise ValueError(f"pursuer {i} lies outside the ball play region")
    if _outside(region, evader.position):
        raise ValueError("evader lies outside the ball play region")
    group.append(_Constraint(
        (la.sub(region.center, evader.position), region.radius), False))
    return group


# --------------------------------------------------------------------------
# lowest point of one member's body
#
# The evasion space of one pursuer is a body of revolution about the
# evader-pursuer axis, so its lowest point lies in the vertical plane
# containing that axis and one scalar angle parameterizes the search.


def _section_altitude(phi: float, qp: float, qz: float, ar: float,
                      a2m1: float, const: float):
    """Boundary point at angle ``phi`` from straight down in the vertical
    plane of the axis: altitude relative to the evader and its first two
    derivatives, then ``rho``, ``sin(phi)`` and ``cos(phi)``."""
    s = math.sin(phi)
    c = math.cos(phi)
    rho, rho_d, rho_dd = radial_derivatives(
        -(s * qp - c * qz) - ar, -(c * qp + s * qz), ar, a2m1, const)
    return (-rho * c, -rho_d * c + rho * s,
            -rho_dd * c + 2.0 * rho_d * s + rho * c, rho, s, c)


def _solve_single(con: _Con) -> Vec:
    q, a, r = con
    d = la.norm(q)
    # Factored, as in _Form: a * a - 1.0 loses ten digits at a - 1 = 1e-6.
    a2m1 = (a - 1.0) * (a + 1.0)
    qp = math.hypot(q[0], q[1])
    if qp > 1e-13 * max(d, 1.0):
        phat = (q[0] / qp, q[1] / qp, 0.0)
    else:
        phat = (1.0, 0.0, 0.0)
        qp = 0.0
    qz = q[2]
    ar = a * r
    const = a2m1 * (d * d - r * r)

    # The body strictly contains the evader, so the section's horizontal
    # points (phi = -pi/2 and pi/2) sit at the evader's altitude, where the
    # altitude slopes down and up, and the lower half circle between them
    # holds the lowest point.  Newton starts inside it at the lowest point
    # of the Apollonius sphere, which is the body when r = 0.
    phi = math.atan2(-qp, qz + a * d)
    lo = -0.5 * math.pi
    hi = 0.5 * math.pi
    state = _section_altitude(phi, qp, qz, ar, a2m1, const)
    for _ in range(100):
        z, z_d, z_dd, rho, s, c = state
        if abs(z_d) <= 1e-14 * max(1.0, rho):
            break
        if z_d > 0.0:
            hi = phi
        else:
            lo = phi
        if z_dd > 0.0:
            candidate = phi - z_d / z_dd
            if not lo < candidate < hi:
                candidate = 0.5 * (lo + hi)
        else:
            candidate = 0.5 * (lo + hi)
        phi = candidate
        state = _section_altitude(phi, qp, qz, ar, a2m1, const)
    _, _, _, rho, s, c = state
    return (rho * s * phat[0], rho * s * phat[1], -rho * c)


# --------------------------------------------------------------------------
# boundary forms and the pair and triple kernels
#
# For fixed rho each boundary form (see the module docstring) is a plane in
# y, so two boundaries meet on a curve over rho and three in at most four
# points.


class _Form(NamedTuple):
    """``y . q = (k rho^2 - 2 l rho + m) / 2``; on the boundary rho lies in
    ``[near, far]``, its distances from the evader along the axis ``q``."""

    q: Vec
    k: float
    l: float  # noqa: E741 - named as in the form above
    m: float
    near: float
    far: float


def _member_form(con: _Con) -> _Form:
    q, a, r = con
    d = la.norm(q)
    return _Form(q, -(a - 1.0) * (a + 1.0), a * r, (d - r) * (d + r),
                 (d - r) / (a + 1.0), (d - r) / (a - 1.0))


def _ball_form(ball: _Sphere) -> _Form:
    c, radius = ball
    d = la.norm(c)
    return _Form(c, 1.0, 0.0, (d - radius) * (d + radius), radius - d, radius + d)


def _circle_low_point(centre: Vec, nu: Vec, radius2: float) -> Vec | None:
    """Lowest point of the circle about the unit normal ``nu`` with
    ``centre`` and squared radius ``radius2``, along -z projected off
    ``nu``; None when the circle is horizontal."""
    down = (nu[2] * nu[0], nu[2] * nu[1], nu[2] * nu[2] - 1.0)
    length = la.norm(down)
    if length == 0.0:
        return None
    return la.add(centre, la.scale(down, math.sqrt(radius2) / length))


# Below this |n_z| the pair's lowest point sits so close to the end of the
# curve's rho range that it is found more accurately in the plane y . n = 0.
_VERTICAL_PLANE_NZ = 1e-8


def _pair_points(fa: _Form, fb: _Form) -> list[Vec]:
    """Lowest points of the curve where two boundaries meet, relative to the
    evader, lowest first; empty when no point is found.

    In the frame ``e1 = q_a / |q_a|``, ``e2`` in ``span(q_a, q_b)`` and
    ``n = e1 x e2`` the curve is ``a1 e1 + a2 e2 +- sqrt(h) n`` with ``a1``
    and ``a2`` quadratic in ``rho`` and ``h = rho^2 - a1^2 - a2^2`` quartic;
    its lower branch has altitude ``phi = a1 e1_z + a2 e2_z - |n_z| sqrt(h)``.
    At each end of ``[max near, min far]`` one boundary's plane touches the
    sphere ``||y|| = rho``, so ``h <= 0`` there.  With its negative leading
    coefficient ``h`` then has at most two peaks in the range, and the
    troughs between them split it into segments, each holding at most one
    piece of the curve.  From each peak where ``h > 0`` a safeguarded Newton
    search on ``phi'`` (-inf at a piece's left end, +inf at its right) finds
    the lowest point within the peak's segment.

    Parallel axes have no ``e2``, and both forms fix ``y . e1``: multiplied
    through by ``|q_a|`` and ``c_b = q_b . e1`` (0 for a ball centred on the
    evader), they give a quadratic in ``rho``.  At each root the curve is
    the circle about ``e1`` at offset ``t = y . e1`` with radius
    ``sqrt(rho^2 - t^2)``, and its lowest point is a candidate.
    """
    na = la.norm(fa.q)
    e1 = la.scale(fa.q, 1.0 / na)
    cos_b = la.dot(fb.q, e1)
    w = la.sub(fb.q, la.scale(e1, cos_b))
    sin_b = la.norm(w)
    if sin_b <= 1e-9 * la.norm(fb.q):
        coeffs = [0.5 * (fa.k * cos_b - fb.k * na), -(fa.l * cos_b - fb.l * na),
                  0.5 * (fa.m * cos_b - fb.m * na)]
        points = []
        for rho in _real_roots(coeffs, max(fa.near, fb.near),
                               min(fa.far, fb.far)):
            t = (fa.k * rho * rho - 2.0 * fa.l * rho + fa.m) / (2.0 * na)
            if rho * rho > t * t:
                low = _circle_low_point(la.scale(e1, t), e1, rho * rho - t * t)
                if low is not None:
                    points.append(low)
        points.sort(key=lambda y: y[2])
        return points
    e2 = la.scale(w, 1.0 / sin_b)
    n = la.cross(e1, e2)
    if abs(n[2]) <= _VERTICAL_PLANE_NZ:
        # Evader and both centres in one vertical plane: the curve is
        # symmetric about it and lowest where it crosses it.
        plane = _Form(n, 0.0, 0.0, 0.0, 0.0, math.inf)
        return _triple_points(fa, fb, plane)

    # a1 = A2 rho^2 + A1 rho + A0 and a2 = B2 rho^2 + B1 rho + B0
    A2 = 0.5 * fa.k / na
    A1 = -fa.l / na
    A0 = 0.5 * fa.m / na
    B2 = (0.5 * fb.k - cos_b * A2) / sin_b
    B1 = (-fb.l - cos_b * A1) / sin_b
    B0 = (0.5 * fb.m - cos_b * A0) / sin_b

    def state(rho):
        """a1, a2, their slopes, and h with its first two derivatives."""
        a1 = (A2 * rho + A1) * rho + A0
        a2 = (B2 * rho + B1) * rho + B0
        d1 = 2.0 * A2 * rho + A1
        d2 = 2.0 * B2 * rho + B1
        h = rho * rho - a1 * a1 - a2 * a2
        h_d = 2.0 * (rho - a1 * d1 - a2 * d2)
        h_dd = 2.0 * (1.0 - d1 * d1 - 2.0 * A2 * a1 - d2 * d2 - 2.0 * B2 * a2)
        return a1, a2, d1, d2, h, h_d, h_dd

    # The turning points of h, the roots of its slope h', alternate between
    # peaks and troughs, so each peak's segment ends at its neighbours.
    h_slope = [-4.0 * (A2 * A2 + B2 * B2), -6.0 * (A2 * A1 + B2 * B1),
               2.0 * (1.0 - A1 * A1 - 2.0 * A2 * A0 - B1 * B1 - 2.0 * B2 * B0),
               -2.0 * (A1 * A0 + B1 * B0)]
    lo = max(fa.near, fb.near)
    hi = min(fa.far, fb.far)
    turns = [lo, *_real_roots(h_slope, lo, hi), hi]
    nz = abs(n[2])
    z_dd = 2.0 * (A2 * e1[2] + B2 * e2[2])
    points = []
    for lo, rho, hi in zip(turns, turns[1:], turns[2:]):
        current = state(rho)
        if current[4] <= 0.0 or current[6] >= 0.0:
            continue
        for _ in range(100):
            a1, a2, d1, d2, h, h_d, h_dd = current
            root = math.sqrt(h)
            slope = d1 * e1[2] + d2 * e2[2] - nz * h_d / (2.0 * root)
            curvature = z_dd - nz * (2.0 * h * h_dd - h_d * h_d) / (4.0 * h * root)
            if slope > 0.0:
                hi = rho
            else:
                lo = rho
            step = -slope / curvature if curvature > 0.0 else math.inf
            # A Newton step this small leaves rho exact to rounding once taken.
            converged = abs(step) <= 1e-12 * rho
            trial = rho + step if converged or lo < rho + step < hi else 0.5 * (lo + hi)
            if trial == rho:
                break
            trial_state = state(trial)
            if trial_state[4] <= 0.0:
                # Off the curve: the piece ends between rho and the trial.
                if converged:
                    break
                if trial < rho:
                    lo = trial
                else:
                    hi = trial
                continue
            rho = trial
            current = trial_state
            if converged:
                break
        else:
            continue
        a1, a2, _, _, h, _, _ = current
        s = -math.copysign(math.sqrt(h), n[2])
        points.append((a1 * e1[0] + a2 * e2[0] + s * n[0],
                       a1 * e1[1] + a2 * e2[1] + s * n[1],
                       a1 * e1[2] + a2 * e2[2] + s * n[2]))
    points.sort(key=lambda y: y[2])
    return points


def _real_roots(coeffs: list[float], lo: float, hi: float) -> list[float]:
    """Real roots in ``[lo, hi]`` of the polynomial with ``coeffs``, highest
    power first, in ascending order.

    Up to degree 2 they come in closed form from the stable quadratic
    formula.  Above that the derivative's roots split the range into
    monotone pieces, and each piece whose ends differ in sign holds one
    root, found by Newton's method safeguarded by bisection, with value and
    slope from one Horner pass.

    A zero-width range, as a ball centred on the evader gives (its form has
    ``near = far = R``), holds ``lo`` itself when the polynomial vanishes
    there to rounding: within ``2 degree`` ulps of the sum of its terms'
    magnitudes.  A root found in closed form may land an ulp off it.
    """
    if not lo <= hi:
        return []
    degree = len(coeffs) - 1
    if lo == hi:
        acc = size = 0.0
        for c in coeffs:
            acc = acc * lo + c
            size = size * abs(lo) + abs(c)
        return [lo] if abs(acc) <= 2 * degree * math.ulp(size) else []
    if degree <= 2:
        a, b, c = [0.0] * (2 - degree) + coeffs
        disc = b * b - 4.0 * a * c
        if not disc >= 0.0:
            return []
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        return sorted(x for x in (q / a if a else math.nan, c / q if q else math.nan)
                      if lo <= x <= hi)

    def value(x):
        """The polynomial and its slope at ``x``."""
        acc = slope = 0.0
        for c in coeffs:
            slope = slope * x + acc
            acc = acc * x + c
        return acc, slope

    ends = [lo, *_real_roots([c * (degree - i) for i, c in enumerate(coeffs[:-1])],
                             lo, hi), hi]
    roots = []
    for a, b in zip(ends, ends[1:]):
        a_negative = value(a)[0] < 0.0
        if a_negative == (value(b)[0] < 0.0):
            continue
        x = 0.5 * (a + b)
        for _ in range(100):
            fx, dx = value(x)
            if (fx < 0.0) == a_negative:
                a = x
            else:
                b = x
            step = fx / dx if dx != 0.0 else math.inf
            # A Newton step this small leaves x exact to rounding once taken.
            if abs(step) <= 1e-12 * abs(x):
                x -= step
                break
            trial = x - step if a < x - step < b else 0.5 * (a + b)
            if trial == x:
                break
            x = trial
        roots.append(x)
    return roots


def _triple_points(fa: _Form, fb: _Form, fc: _Form) -> list[Vec]:
    """Common points of three boundaries relative to the evader, lowest
    first; at most four, and none when their axes ``q`` are collinear.

    Points are sought for rho in ``[max near, min far]``, the only range
    where a point of all three boundaries can lie.  For each rho the forms
    are a linear system in y.  With independent axes its solution is
    ``y = U rho^2 + V rho + W``, and ``||y||^2 = rho^2`` is a quartic in rho.

    Coplanar axes, with ``nu`` the unit normal of their plane, satisfy
    ``sum mu_i q_i = 0`` for ``mu_a = (q_b x q_c) . nu`` and its cyclic
    shifts, so ``sum mu_i (k_i rho^2 - 2 l_i rho + m_i) = 0`` is a quadratic
    in rho.  At each root the two forms whose axes span the plane best fix
    the part ``y_P`` of y in it, and the lower of ``y_P -+ t nu`` with
    ``|y_P|^2 + t^2 = rho^2`` is the candidate.
    """
    forms = (fa, fb, fc)
    crosses = (la.cross(fb.q, fc.q), la.cross(fc.q, fa.q), la.cross(fa.q, fb.q))
    det = la.dot(fa.q, crosses[0])
    lo = max(fa.near, fb.near, fc.near)
    hi = min(fa.far, fb.far, fc.far)
    if abs(det) <= 1e-10 * la.norm(fa.q) * la.norm(fb.q) * la.norm(fc.q):
        j = max(range(3), key=lambda i: la.dot(crosses[i], crosses[i]))
        n = crosses[j]  # q_i x q_k
        fi, fk = forms[j - 2], forms[j - 1]
        n2 = la.dot(n, n)
        if n2 <= 1e-18 * la.dot(fi.q, fi.q) * la.dot(fk.q, fk.q):
            return []
        nu = la.scale(n, 1.0 / math.sqrt(n2))
        mu = [la.dot(c, nu) for c in crosses]
        coeffs = [0.5 * sum(m * f.k for m, f in zip(mu, forms)),
                  -sum(m * f.l for m, f in zip(mu, forms)),
                  0.5 * sum(m * f.m for m, f in zip(mu, forms))]
        # y_P = (s_i q_k x n + s_k n x q_i) / |n|^2 with s the forms' sides.
        ui = la.scale(la.cross(fk.q, n), 0.5 / n2)
        uk = la.scale(la.cross(n, fi.q), 0.5 / n2)
        points = []
        for rho in _real_roots(coeffs, lo, hi):
            y = la.add(la.scale(ui, (fi.k * rho - 2.0 * fi.l) * rho + fi.m),
                       la.scale(uk, (fk.k * rho - 2.0 * fk.l) * rho + fk.m))
            gap = rho * rho - la.dot(y, y)
            if gap >= 0.0:
                t = math.copysign(math.sqrt(gap), nu[2])
                points.append(la.sub(y, la.scale(nu, t)))
        points.sort(key=lambda y: (y[2], y[0], y[1]))
        return points

    def solution(ca: float, cb: float, cc: float, scale: float) -> Vec:
        """The y with ``y . q = scale * c`` for each form (Cramer's rule)."""
        return tuple((ca * x + cb * y + cc * z) * scale / det
                     for x, y, z in zip(*crosses))

    u = solution(fa.k, fb.k, fc.k, 0.5)
    v = solution(fa.l, fb.l, fc.l, -1.0)
    w = solution(fa.m, fb.m, fc.m, 0.5)
    coeffs = [
        la.dot(u, u),
        2.0 * la.dot(u, v),
        la.dot(v, v) + 2.0 * la.dot(u, w) - 1.0,
        2.0 * la.dot(v, w),
        la.dot(w, w),
    ]
    points = []
    for rho in _real_roots(coeffs, lo, hi):
        # Newton on ||y(rho)||^2 - rho^2 evaluated through y, which keeps
        # the digits the expanded coefficients lose.
        for _ in range(6):
            y = la.add(la.scale(u, rho * rho), la.add(la.scale(v, rho), w))
            dy = la.add(la.scale(u, 2.0 * rho), v)
            slope = 2.0 * (la.dot(y, dy) - rho)
            if slope == 0.0:
                break
            step = (la.dot(y, y) - rho * rho) / slope
            rho -= step
            if abs(step) < 1e-15 * max(1.0, abs(rho)):
                break
        if rho <= 1e-12:
            continue
        y = la.add(la.scale(u, rho * rho), la.add(la.scale(v, rho), w))
        if abs(la.norm(y) - rho) > 1e-6 * rho:
            continue
        points.append(y)
    points.sort(key=lambda y: (y[2], y[0], y[1]))
    return points


# --------------------------------------------------------------------------
# direct certification of the minimizer


def _gram_multipliers(grads: list[Vec]) -> list[float] | None:
    """Multipliers of ``(0, 0, -1)`` on the gradients, clamped to <= 0.

    They are the minimum-norm least-squares fit.  For k <= 3 independent
    gradients that is :func:`_unique_multipliers`.  Otherwise parallel
    gradients give ``-g_j,z / sum |g_i|^2``, and any other set gives
    ``g_j . z`` with ``(sum g g^T) z = (0, 0, -1)``.  None means the fit is
    not available (no gradients, or that system is singular: gradients of
    rank 2), and so the point is not certifiable.
    """
    if not grads:
        return None
    if len(grads) <= 3:
        multipliers = _unique_multipliers(grads)
        if multipliers is not None:
            return multipliers
    if all(_unique_multipliers((grads[0], g)) is None for g in grads[1:]):
        total = sum(la.dot(g, g) for g in grads)
        return [min(-g[2] / total, 0.0) for g in grads]
    h11, h12, h13, h22, h23, h33 = (sum(g[r] * g[c] for g in grads) for r, c in
                                    ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)))
    # z is the third column of the inverse, negated: cofactors over det.
    c13 = h12 * h23 - h13 * h22
    c23 = h12 * h13 - h11 * h23
    c33 = h11 * h22 - h12 * h12
    det = h13 * c13 + h23 * c23 + h33 * c33
    # A Gram det lies in [0, h11 h22 h33]; far below that it is rank-2 rounding.
    if not det > 1e-12 * h11 * h22 * h33:
        return None
    return [min(-(g[0] * c13 + g[1] * c23 + g[2] * c33) / det, 0.0)
            for g in grads]


def _lone_multiplier(g0: float, g1: float, g2: float) -> float:
    """Multiplier of ``(0, 0, -1)`` on one gradient, clamped to <= 0."""
    return min(-g2 / (g0 * g0 + g1 * g1 + g2 * g2), 0.0)


def _unique_multipliers(grads) -> list[float] | None:
    """Multipliers of ``(0, 0, -1)`` on k <= 3 gradients, clamped to <= 0.

    They solve the k x k Gram system of the least-squares fit, written with
    cross products so that no Gram matrix is formed; None when the pair or
    triple volume test finds the gradients dependent, so that the
    multipliers are not unique.
    """
    if len(grads) == 1:
        return [_lone_multiplier(*grads[0])]
    if len(grads) == 2:
        a, b = grads
        normal = la.cross(a, b)
        volume = la.dot(normal, normal)
        if volume <= 1e-12 * la.dot(a, a) * la.dot(b, b):
            return None
        # (0, 0, -1) x b and a x (0, 0, -1), dotted with a x b
        return [min((b[1] * normal[0] - b[0] * normal[1]) / volume, 0.0),
                min((a[0] * normal[1] - a[1] * normal[0]) / volume, 0.0)]
    a, b, c = grads
    bc = la.cross(b, c)
    ca = la.cross(c, a)
    ab = la.cross(a, b)
    volume = la.dot(a, bc)
    if abs(volume) <= 1e-6 * la.norm(a) * la.norm(b) * la.norm(c):
        return None
    return [min(-bc[2] / volume, 0.0), min(-ca[2] / volume, 0.0),
            min(-ab[2] / volume, 0.0)]


def _certify(group: list[_Constraint], y: Vec, active: tuple[int, ...]):
    """Certify ``y`` as the minimizer with exactly the constraints at the
    increasing positions ``active`` of ``group`` binding; every path but
    :func:`_lone`, which is this written out for one active constraint,
    certifies only through this.

    The active constraints must lie within ``ACTIVE_TOLERANCE`` of their
    boundary and every other one strictly beyond it; the multipliers come
    from :func:`_gram_multipliers` and must leave stationarity and
    complementary slackness within ``KKT_TOLERANCE``.  Every test fails on
    NaN.  Returns ``(active, multipliers, stationarity, slackness)``, the
    multipliers aligned with ``active``, or None.
    """
    values = []
    grads = []
    for j, c in enumerate(group):
        if j in active:
            value, grad, _ = c.grad_hess(y, hessian=False)
            if not abs(value) <= ACTIVE_TOLERANCE:
                return None
            values.append(value)
            grads.append(grad)
        elif not c.value(y) > ACTIVE_TOLERANCE:
            return None
    multipliers = _gram_multipliers(grads)
    if multipliers is None:
        return None
    r0 = r1 = 0.0
    r2 = 1.0
    slack = 0.0
    for lj, grad, value in zip(multipliers, grads, values):
        r0 += lj * grad[0]
        r1 += lj * grad[1]
        r2 += lj * grad[2]
        slack = max(slack, abs(lj * value))
    stationarity = math.sqrt(r0 * r0 + r1 * r1 + r2 * r2)
    if not (stationarity <= KKT_TOLERANCE and slack <= KKT_TOLERANCE):
        return None
    return active, multipliers, stationarity, slack


def _lone(group: list[_Constraint]):
    """The minimizer with one constraint active, as :func:`_direct` returns
    it, or None: that constraint's own lowest point, with every other one
    strictly holding there, so the highest of the group's own lowest points.

    Only that point is tried, by :func:`_certify` written out for one
    active constraint with the same arithmetic in the same order: its value
    within ``ACTIVE_TOLERANCE``, every other one strictly beyond it, the
    multiplier of :func:`_lone_multiplier`, then stationarity and slackness
    within ``KKT_TOLERANCE``.  Every test fails on NaN.
    """
    con = group[0]
    for c in group:
        # The first pass finds group[0]'s point before con.y is read.
        if c.lowest()[2] > con.y[2]:
            con = c
    y = con.y
    value, (g0, g1, g2), _ = (_f_grad_hess(con.key, y, False) if con.member
                              else con.grad_hess(y, False))
    if not abs(value) <= ACTIVE_TOLERANCE:
        return None
    for c in group:
        # Inline rather than c.value(y): the call costs as much as the test.
        if c is not con and not ((_f_original(c.key, y) if c.member
                                  else _ball_g(c.key, y)) > ACTIVE_TOLERANCE):
            return None
    lam = _lone_multiplier(g0, g1, g2)
    r0 = lam * g0
    r1 = lam * g1
    r2 = 1.0 + lam * g2
    stationarity = math.sqrt(r0 * r0 + r1 * r1 + r2 * r2)
    slack = abs(lam * value)
    if not (stationarity <= KKT_TOLERANCE and slack <= KKT_TOLERANCE):
        return None
    return y, (group.index(con),), [lam], stationarity, slack


def _direct(group: list[_Constraint]):
    """The minimizer certified directly from two or three active
    constraints, as ``(y, active, multipliers, stationarity, slackness)``
    (see :func:`_certify`), or None.

    Tries every pair of constraints, then every triple (lowest candidate
    first), by position in the group, the ball like a member;
    :func:`_lone` has tried one active constraint.  A certified KKT point
    of this strictly convex program is its unique minimizer, so the order
    only affects cost.
    """
    for size in (2, 3):
        for subset in itertools.combinations(range(len(group)), size):
            forms = [group[j].shape() for j in subset]
            points = (_pair_points(*forms) if size == 2
                      else _triple_points(*forms))
            for y in points:
                certificate = _certify(group, y, subset)
                if certificate is not None:
                    return (y, *certificate)
    return None


# --------------------------------------------------------------------------
# KKT polish on the original constraint functions


def _polish_kkt(group: list[_Constraint], y: Vec, active: tuple[int, ...]):
    """Newton-refine the active-set KKT system; returns (y, lam) or None.

    ``active`` holds constraint positions.  The system solved is
    stationarity plus each active constraint at zero; quadratic
    convergence near the minimizer.

    Multipliers start from the Gram fit of stationarity: with all of them
    zero the bordered Jacobian has a vanishing curvature block and is
    singular whenever fewer than three constraints are active.
    """
    lam = _gram_multipliers([group[j].grad_hess(y, hessian=False)[1]
                             for j in active])
    if lam is None:
        return None
    yc = y
    best = (math.inf, yc, lam)
    for _ in range(20):
        values = []
        grads = []
        w11 = w12 = w13 = w22 = w23 = w33 = 0.0
        for lj, j in zip(lam, active):
            value, grad, hess = group[j].grad_hess(yc)
            values.append(value)
            grads.append(grad)
            w11 += lj * hess[0]
            w12 += lj * hess[1]
            w13 += lj * hess[2]
            w22 += lj * hess[3]
            w23 += lj * hess[4]
            w33 += lj * hess[5]
        # residual of stationarity: sum lam grad - (0, 0, -1)
        r0 = sum(lj * grad[0] for lj, grad in zip(lam, grads))
        r1 = sum(lj * grad[1] for lj, grad in zip(lam, grads))
        r2 = sum(lj * grad[2] for lj, grad in zip(lam, grads)) + 1.0
        residual = [r0, r1, r2] + values
        size = max(abs(v) for v in residual)
        if size < best[0]:
            best = (size, yc, lam[:])
        if size < 1e-13:
            break
        # Bordered Jacobian: the weighted Hessian, bordered by the gradients.
        matrix = [[w11, w12, w13] + [grad[0] for grad in grads],
                  [w12, w22, w23] + [grad[1] for grad in grads],
                  [w13, w23, w33] + [grad[2] for grad in grads]]
        matrix += [list(grad) + [0.0] * len(grads) for grad in grads]
        rhs = [-v for v in residual]
        try:
            delta = la.gauss_solve(matrix, rhs)
        except ValueError:
            return None
        yc = (yc[0] + delta[0], yc[1] + delta[1], yc[2] + delta[2])
        for j in range(len(active)):
            lam[j] += delta[3 + j]
    else:
        # Far from the origin rounding can hold the residual above 1e-13;
        # the certificate judges the best iterate.
        _, yc, lam = best
    return yc, dict(zip(active, lam))


def _polish_hypothesis(group: list[_Constraint], y: Vec, active):
    """Polish one active-set guess, shedding the most positive multiplier
    until none is above 1e-10.

    Returns ``(y, lam)`` or None when the guess cannot be made consistent.
    """
    active = list(active)
    while active:
        try:
            polished = _polish_kkt(group, y, tuple(active))
        except ZeroDivisionError:
            # An active member's gradient is undefined at the evader itself,
            # where the tests' barrier reference can stop when the evader
            # grazes a capture sphere.
            return None
        if polished is None:
            return None
        lam = polished[1]
        offender = max(active, key=lam.__getitem__)
        if lam[offender] <= 1e-10:
            return polished
        active.remove(offender)
    return None


def _certify_at(group: list[_Constraint], y: Vec):
    """:func:`_certify` with the constraints within ``ACTIVE_TOLERANCE`` of
    their boundary at ``y`` as active set; None also when an active member's
    gradient is undefined, at the evader itself."""
    active = tuple(j for j, c in enumerate(group)
                   if abs(c.value(y)) <= ACTIVE_TOLERANCE)
    try:
        return _certify(group, y, active)
    except ZeroDivisionError:
        return None


def _polished(group: list[_Constraint]):
    """The minimizer polished from the kernels' points, as :func:`_direct`
    returns it, or None.

    Each set of one to three constraints, smallest first, is polished from
    the lowest point of each of its constraints.
    """
    for size in (1, 2, 3):
        for subset in itertools.combinations(range(len(group)), size):
            for j in subset:
                found = _polish_hypothesis(group, group[j].lowest(), subset)
                if found is None:
                    continue
                certificate = _certify_at(group, found[0])
                if certificate is not None:
                    return (found[0], *certificate)
    return None


def _result(members: Coalition, epos: Vec, group: list[_Constraint], y: Vec,
            active: tuple[int, ...], lam: list[float], stationarity: float,
            slack: float) -> InterceptionResult:
    """Result at ``x_E + y`` from a certificate of :func:`_certify`:
    ``lam`` aligns with the positions ``active`` of ``group``, whose ball
    entry fills the region fields."""
    x = la.add(epos, y)
    active_set = []
    multipliers = [0.0] * len(members)
    region_active = False
    region_multiplier = 0.0
    for j, lj in zip(active, lam):
        if group[j].member:
            active_set.append(members[j])
            multipliers[j] = lj
        else:
            region_active = True
            region_multiplier = lj
    # InterceptionResult has no __post_init__, so this is the object its
    # frozen __init__ builds, without one object.__setattr__ per field.
    result = object.__new__(InterceptionResult)
    vars(result).update(
        coalition=members,
        point=x,
        value=x[2],
        active_set=tuple(active_set),
        multipliers=tuple(multipliers),
        region_active=region_active,
        region_multiplier=region_multiplier,
        kkt_residual=stationarity,
        slackness_residual=slack,
    )
    return result


def solve_interception(coalition, evader: EvaderSpec, pursuers,
                       region: Region = UNBOUNDED) -> InterceptionResult:
    """Solve the interception program for a coalition against one evader.

    Returns the unique lowest-altitude point of the evader's evasion-space
    closure (intersected with the ball region when given) together with a
    KKT certificate.  The solve certifies the direct kernels' points, else
    a KKT polish from them.
    """
    members = validate_coalition(coalition, len(pursuers), max_size=None)
    group = _program(members, evader, pursuers, region)
    # _direct and the polish reuse the lowest points that _lone caches.
    found = _lone(group) or _direct(group) or _polished(group)
    if found is None:
        raise SolverFailure("no KKT certificate at a direct candidate or "
                            "a polished point")
    return _result(members, evader.position, group, *found)


def classify_kind(coalition, evader: EvaderSpec, pursuers,
                  region: Region = UNBOUNDED) -> GameKind:
    """Decide the winner of the coalition-versus-evader game.

    The sign of the optimal altitude settles it: positive means the
    reachable set stays clear of the exit plane (pursuit wins), negative
    means the evader reaches the exit (evader wins), and zero within
    tolerance is a tie.  For ball regions an evader win is confirmed by
    exhibiting an explicit reachable exit point on the segment from the
    evader to the minimizer.
    """
    result = solve_interception(coalition, evader, pursuers, region)
    return classify_result(result, evader, pursuers, region)


def classify_result(result: InterceptionResult, evader: EvaderSpec, pursuers,
                    region: Region = UNBOUNDED) -> GameKind:
    """Winner classification from an already-computed interception result."""
    value = result.value
    if value > GOAL_TOLERANCE:
        return GameKind.PURSUIT_WINS
    if value >= -GOAL_TOLERANCE:
        return GameKind.TIE
    if isinstance(region, Ball):
        epos = evader.position
        if epos[2] > 0.0:
            # The segment from the evader to the minimizer stays feasible by
            # convexity; its crossing of z=0 is a reachable exit point.
            tau = epos[2] / (epos[2] - value)
            y = la.scale(la.sub(result.point, epos), tau)
            group = _program(result.coalition, evader, pursuers, region)
            if not all(c.value(y) >= -1e-9 for c in group):
                raise SolverFailure(
                    "negative optimal altitude without a reachable exit point"
                )
    return GameKind.EVADER_WINS
