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
active gradients (their minimum-norm least-squares fit when the gradients
are dependent), clamped to <= 0, must leave stationarity and
complementary slackness within ``KKT_TOLERANCE``.  In 3D at most three
constraints pin the point down, so a default solve first tries the
candidate points of one, two and three active constraints and certifies
the first whose other constraints all hold strictly.  A certified KKT
point of this strictly convex program is its unique minimizer, so the
order below changes only the cost:

- **single**: each member's body alone has its lowest point found by a
  Newton search over one angle (the body is one of revolution about the
  evader-pursuer axis), seeded at the lowest point of the Apollonius
  sphere, which is exact when r = 0, and bracketed by the lower half of the
  section circle; the ball's lowest point is explicit.
  This is the common case.  A lone member in the unbounded region, the
  engine's per-frame re-solve, is certified in closed form: one multiplier
  ``min(-g_z / |g|^2, 0)``, one stationarity and one slackness residual.
- **pair**: two boundaries meet on a curve over rho whose lowest point a
  safeguarded Newton search finds, seeded at the lowest common point of the
  two spheres obtained by dropping l (exact for r = 0 and for the ball).
  Members are paired first, then each member with the ball.  When the
  evader and both axes lie in one vertical plane the point lies in that
  plane and the triple kernel finds it; parallel axes have no direct path.
- **triple**: three forms give y = U rho^2 + V rho + W, and ||y|| = rho is a
  quartic in rho; its real roots are tried lowest point first.
- **polish**: when no candidate certifies (parallel axes, dependent
  gradients, or a candidate just outside the certificate) a Newton polish
  of the KKT system refines each set of one to three constraints, smallest
  first, from the points above: the set's own lowest points and, with the
  ball in the set, its members' lowest points moved onto the ball's
  sphere.  The first polished point that certifies is returned, with the
  constraints within ``ACTIVE_TOLERANCE`` of their boundary as active set.

The module also classifies the winner of the single-evader game from the
sign of the optimal altitude.
"""

from __future__ import annotations

import enum
import itertools
import math
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


def validate_coalition(members, num_pursuers: int | None = None,
                       max_size: int | None = _COALITION_MAX) -> Coalition:
    """Check strictly increasing indices and size bounds; returns a tuple."""
    out = tuple(map(int, members))
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
    :meth:`lowest`), its boundary form and the altitude of its dropped
    sphere's lowest point with that altitude's rounding bound (all set by
    :meth:`shape`)."""

    __slots__ = ("key", "member", "y", "form", "low_z", "low_err")

    def __init__(self, key, member: bool) -> None:
        self.key = key
        self.member = member
        self.y: Vec | None = None
        self.form: _Form | None = None
        self.low_z = self.low_err = 0.0

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

    def shape(self) -> None:
        if self.form is None:
            form = self.form = (_member_form(self.key) if self.member
                                else _ball_form(self.key))
            centre, radius2 = _dropped_sphere(form.q, form.k, form.m)
            radius = math.sqrt(radius2)
            self.low_z = centre[2] - radius
            self.low_err = 1e-12 * (la.norm(centre) + radius)


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


def _dropped_sphere(q: Vec, k: float, m: float) -> tuple[Vec, float]:
    """Centre and squared radius of ``k ||y||^2 - 2 y . q + m = 0``, the
    sphere a form becomes with ``l`` dropped; it is the boundary itself
    for zero capture radii and for the ball."""
    centre = la.scale(q, 1.0 / k)
    return centre, la.dot(centre, centre) - m / k


def _sphere_low_rho(fa: _Form, fb: _Form) -> float | None:
    """``rho`` at the lowest common point of the two forms' dropped
    spheres, or None when they do not meet in a circle."""
    ca, ra2 = _dropped_sphere(fa.q, fa.k, fa.m)
    cb, rb2 = _dropped_sphere(fb.q, fb.k, fb.m)
    axis = la.sub(cb, ca)
    d = la.norm(axis)
    if d == 0.0:
        return None
    nu = la.scale(axis, 1.0 / d)
    t = (d * d + ra2 - rb2) / (2.0 * d)
    radius2 = ra2 - t * t
    if radius2 <= 0.0:
        return None
    centre = la.add(ca, la.scale(nu, t))
    # The circle's lowest point lies along -z projected off its normal nu;
    # on a horizontal circle a point off the centre's direction will do.
    down = (nu[2] * nu[0], nu[2] * nu[1], nu[2] * nu[2] - 1.0)
    length = la.norm(down)
    if length == 0.0:
        return math.sqrt(la.dot(centre, centre) + radius2)
    return la.norm(la.add(centre, la.scale(down, math.sqrt(radius2) / length)))


# Below this |n_z| the pair's lowest point sits so close to the end of the
# curve's rho range that it is found more accurately in the plane y . n = 0.
_VERTICAL_PLANE_NZ = 1e-8


def _pair_points(fa: _Form, fb: _Form) -> list[Vec]:
    """Lowest point of the curve where two boundaries meet, relative to the
    evader; empty when the axes are parallel or no point is found.

    In the frame ``e1 = q_a / |q_a|``, ``e2`` in ``span(q_a, q_b)`` and
    ``n = e1 x e2`` the curve is ``a1 e1 + a2 e2 +- sqrt(h) n`` with ``a1``
    and ``a2`` quadratic in ``rho`` and ``h = rho^2 - a1^2 - a2^2`` quartic;
    its lower branch has altitude ``phi = a1 e1_z + a2 e2_z - |n_z| sqrt(h)``.
    A safeguarded Newton search on ``phi'`` finds the minimum; ``phi'``
    tends to -inf at the left end of the range where ``h >= 0`` and to
    +inf at the right end, so a trial point outside it bounds the search.
    """
    na = la.norm(fa.q)
    e1 = la.scale(fa.q, 1.0 / na)
    cos_b = la.dot(fb.q, e1)
    w = la.sub(fb.q, la.scale(e1, cos_b))
    sin_b = la.norm(w)
    if sin_b <= 1e-9 * la.norm(fb.q):
        return []
    e2 = la.scale(w, 1.0 / sin_b)
    n = la.cross(e1, e2)
    if abs(n[2]) <= _VERTICAL_PLANE_NZ:
        # Evader and both centres in one vertical plane: the curve is
        # symmetric about it and lowest where it crosses it.
        plane = _Form(n, 0.0, 0.0, 0.0, 0.0, math.inf)
        return _triple_points(fa, fb, plane) or []

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

    lo = max(fa.near, fb.near)
    hi = min(fa.far, fb.far)
    if not lo < hi:
        return []
    rho = _sphere_low_rho(fa, fb)
    if rho is None or not lo < rho < hi:
        rho = 0.5 * (lo + hi)
    current = state(rho)
    if current[4] <= 0.0:
        rho = _climb(state, rho, lo, hi)
        if rho is None:
            return []
        current = state(rho)

    nz = abs(n[2])
    z_dd = 2.0 * (A2 * e1[2] + B2 * e2[2])
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
            # Off the curve: the range ends between rho and the trial.
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
        return []
    a1, a2, _, _, h, _, _ = current
    s = -math.copysign(math.sqrt(h), n[2])
    return [(a1 * e1[0] + a2 * e2[0] + s * n[0],
             a1 * e1[1] + a2 * e2[1] + s * n[1],
             a1 * e1[2] + a2 * e2[2] + s * n[2])]


def _climb(state, rho: float, lo: float, hi: float) -> float | None:
    """A point of ``(lo, hi)`` where the pair curve's ``h`` is positive,
    found by climbing ``h`` from ``rho`` (safeguarded Newton on ``h'``), or
    None when its maximum is not positive."""
    for _ in range(100):
        _, _, _, _, h, h_d, h_dd = state(rho)
        if h > 0.0:
            return rho
        if h_d > 0.0:
            lo = rho
        else:
            hi = rho
        step = -h_d / h_dd if h_dd < 0.0 else math.inf
        trial = rho + step if lo < rho + step < hi else 0.5 * (lo + hi)
        if trial == rho:
            return None
        rho = trial
    return None


def _real_roots(coeffs: list[float], lo: float, hi: float) -> list[float]:
    """Real roots in ``[lo, hi]`` of the polynomial with ``coeffs``, highest
    power first, in ascending order.

    The derivative's roots split the range into monotone pieces, and each
    piece whose ends differ in sign holds one root, found by Newton's
    method safeguarded by bisection.
    """
    degree = len(coeffs) - 1
    if degree < 1 or not lo < hi:
        return []
    slope = [c * (degree - i) for i, c in enumerate(coeffs[:-1])]

    def value(cs, x):
        acc = 0.0
        for c in cs:
            acc = acc * x + c
        return acc

    ends = [lo, *_real_roots(slope, lo, hi), hi]
    roots = []
    for a, b in zip(ends, ends[1:]):
        a_negative = value(coeffs, a) < 0.0
        if a_negative == (value(coeffs, b) < 0.0):
            continue
        x = 0.5 * (a + b)
        for _ in range(100):
            fx = value(coeffs, x)
            if (fx < 0.0) == a_negative:
                a = x
            else:
                b = x
            dx = value(slope, x)
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


def _triple_points(fa: _Form, fb: _Form, fc: _Form) -> list[Vec] | None:
    """Common points of three boundaries relative to the evader, lowest
    first, or None when their axes ``q`` are coplanar.

    For each rho the forms are a linear system in y with solution
    ``y = U rho^2 + V rho + W``, and ``||y||^2 = rho^2`` is a quartic in rho.
    Its roots are sought in ``[max near, min far]``, the only range where a
    point of all three boundaries can lie.
    """
    cab = la.cross(fb.q, fc.q)
    cbc = la.cross(fc.q, fa.q)
    cca = la.cross(fa.q, fb.q)
    det = la.dot(fa.q, cab)
    if abs(det) <= 1e-10 * la.norm(fa.q) * la.norm(fb.q) * la.norm(fc.q):
        return None

    def solution(ca: float, cb: float, cc: float, scale: float) -> Vec:
        """The y with ``y . q = scale * c`` for each form (Cramer's rule)."""
        return tuple((ca * x + cb * y + cc * z) * scale / det
                     for x, y, z in zip(cab, cbc, cca))

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
    lo = max(fa.near, fb.near, fc.near)
    hi = min(fa.far, fb.far, fc.far)
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
    not available (no gradients, or that system is singular), and so the
    point is not certifiable.
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
    gram = [sum(g[r] * g[c] for g in grads)
            for r, c in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))]
    try:
        z = la.solve_sym3(*gram, 0.0, 0.0, -1.0)
    except ValueError:
        return None
    return [min(la.dot(g, z), 0.0) for g in grads]


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
    :func:`_lone`, which is this written out for one member, certifies
    only through this.

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


def _lone(con: _Constraint):
    """The minimizer of a lone member in the unbounded region, certified in
    closed form at the member's own lowest point, as :func:`_direct`
    returns it, or None.

    This is :func:`_certify` for one active member and no other constraint,
    with the same arithmetic in the same order: ``|f|`` within
    ``ACTIVE_TOLERANCE``, the multiplier of :func:`_lone_multiplier`, then
    stationarity and slackness within ``KKT_TOLERANCE``.  Every test fails
    on NaN.
    """
    y = con.lowest()
    value, (g0, g1, g2), _ = _f_grad_hess(con.key, y, hessian=False)
    if not abs(value) <= ACTIVE_TOLERANCE:
        return None
    lam = _lone_multiplier(g0, g1, g2)
    r0 = lam * g0
    r1 = lam * g1
    r2 = 1.0 + lam * g2
    stationarity = math.sqrt(r0 * r0 + r1 * r1 + r2 * r2)
    slack = abs(lam * value)
    if not (stationarity <= KKT_TOLERANCE and slack <= KKT_TOLERANCE):
        return None
    return y, (0,), [lam], stationarity, slack


def _direct(group: list[_Constraint]):
    """The minimizer of two or more constraints certified directly from one
    to three active ones, as ``(y, active, multipliers, stationarity,
    slackness)`` (see :func:`_certify`), or None.

    Tries each constraint's own lowest point (likely highest first), then
    pairs of members, then a member with the ball, then triples (lowest
    candidate first).  A certified KKT point of this strictly convex
    program is its unique minimizer, so the order only affects cost.
    """
    count = len(group)
    for c in group:
        c.shape()
    # A single-active minimizer is the highest of the constraints' own
    # lowest points, which their dropped spheres approximate.
    order = sorted(range(count), key=[c.low_z for c in group].__getitem__,
                   reverse=True)
    for j in order:
        low = group[j].lowest()
        certificate = _certify(group, low, (j,))
        if certificate is not None:
            return (low, *certificate)

    n = sum(c.member for c in group)  # the ball, if any, is constraint n
    subsets = list(itertools.combinations(range(n), 2))
    if n < count:
        subsets += [(j, n) for j in range(n)]
    subsets += list(itertools.combinations(range(count), 3))
    for subset in subsets:
        forms = [group[j].form for j in subset]
        points = (_pair_points(*forms) if len(forms) == 2
                  else _triple_points(*forms) or [])
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
    its own lowest points and, with the ball in it, from its members' lowest
    points moved radially onto the ball's sphere: the pair kernel has no
    point for a member whose axis is parallel to the ball's.
    """
    for size in (1, 2, 3):
        for subset in itertools.combinations(range(len(group)), size):
            seeds = [group[j].lowest() for j in subset]
            last = group[subset[-1]]
            if not last.member:
                # The ball comes last in the set, after its members.
                centre, radius = last.key
                seeds += [la.add(centre, la.scale(la.sub(y, centre),
                                                  radius / la.dist(y, centre)))
                          for y in seeds[:-1]]
            for seed in seeds:
                found = _polish_hypothesis(group, seed, subset)
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
    return InterceptionResult(
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
    found = ((_lone(group[0]) if len(group) == 1 else _direct(group))
             or _polished(group))
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
