"""The tests' independent reference for the interception point: a
log-barrier Newton continuation, then the solver's KKT polish.

:func:`barrier_reference` continues a log-barrier from a given strictly
feasible point and polishes the result on active-set hypotheses from tight
to loose, else the barrier point itself certifies.  It shares no kernel with
:func:`reachavoid.solve_interception`, so the tests use it to cross-check
the default solve and the uniqueness of the minimizer.  It reuses the
solve's constraint group (``interception._program``), its polish and its
certificate, which is why it lives here and not in :mod:`oracles`, whose
helpers avoid the library's solution paths altogether.

The barrier works in the solver's evader frame (a point is y = x - x_E)
and handles each member through the equivalent concave form

    f_i(x) >= 0  <=>  ||x - x_P||^2 - (alpha ||x - x_E|| + r)^2 >= 0,

that is ftilde(y) = ||y-q||^2 - alpha^2 ||y||^2 - r^2 - 2 alpha r ||y||
with q = x_P - x_E, which is positive exactly where the original potential
f is and makes the log-barrier strictly convex.  It is evaluated only
inside the barrier evaluators below, so a point is strictly feasible
exactly when its barrier value exists.  The ball enters through its g.

For positive capture radii the final term puts a cone kink at the evader,
and for small barrier weights the barrier minimum can sit exactly on that
kink, trapping Newton.  The barrier phase therefore works with ||y|| replaced
by sqrt(||y||^2 + mu^2) for a tiny mu: the smoothed set lies strictly inside
the true one, the barrier becomes C^2, and the KKT polish on the
unsmoothed constraints removes the O(mu) perturbation afterwards.
"""

from __future__ import annotations

import itertools
import math

from reachavoid import _linalg as la
from reachavoid._linalg import Vec
from reachavoid.geometry import EvaderSpec
from reachavoid.interception import (
    ACTIVE_TOLERANCE,
    InterceptionResult,
    Region,
    SolverFailure,
    _ball_g,
    _certify_at,
    _Constraint,
    _polish_hypothesis,
    _program,
    _result,
    validate_coalition,
)

_BARRIER_GAP = 1e-10
_NEWTON_DECREMENT_TOL = 1e-12


def _solve_sym3(h11: float, h12: float, h13: float,
                h22: float, h23: float, h33: float,
                b1: float, b2: float, b3: float) -> Vec:
    """Solve a symmetric 3x3 system; falls back to pivoted elimination if needed."""
    # Cofactor expansion is fine for the barrier's Hessians, which are SPD;
    # the fallback covers near-singular corner cases.
    c11 = h22 * h33 - h23 * h23
    c12 = h13 * h23 - h12 * h33
    c13 = h12 * h23 - h13 * h22
    det = h11 * c11 + h12 * c12 + h13 * c13
    scale_ = max(abs(h11), abs(h22), abs(h33), 1e-300)
    if abs(det) < 1e-14 * scale_ ** 3:
        sol = la.gauss_solve(
            [[h11, h12, h13], [h12, h22, h23], [h13, h23, h33]],
            [b1, b2, b3],
        )
        return (sol[0], sol[1], sol[2])
    c22 = h11 * h33 - h13 * h13
    c23 = h12 * h13 - h11 * h23
    c33 = h11 * h22 - h12 * h12
    inv = 1.0 / det
    return (
        (c11 * b1 + c12 * b2 + c13 * b3) * inv,
        (c12 * b1 + c22 * b2 + c23 * b3) * inv,
        (c13 * b1 + c23 * b2 + c33 * b3) * inv,
    )


def _barrier_value(group: list[_Constraint], y: Vec, t: float,
                   mu2: float) -> float | None:
    """Smoothed barrier objective, or None when y is not strictly feasible."""
    value = t * y[2]
    d_e2 = y[0] * y[0] + y[1] * y[1] + y[2] * y[2]
    ds = math.sqrt(d_e2 + mu2)
    for c in group:
        if c.member:
            q, a, r = c.key
            dpx = y[0] - q[0]
            dpy = y[1] - q[1]
            dpz = y[2] - q[2]
            ft = ((dpx * dpx + dpy * dpy + dpz * dpz) - a * a * d_e2 - r * r
                  - 2.0 * a * r * ds)
        else:
            ft = _ball_g(c.key, y)
        if not ft > 0.0:
            return None
        value -= math.log(ft)
    return value


def _barrier_step(group: list[_Constraint], y: Vec, t: float, mu2: float):
    """Gradient and packed Hessian of the smoothed barrier at a strictly
    feasible y; :func:`_barrier_value` gives its value."""
    dex, dey, dez = y
    d_e2 = dex * dex + dey * dey + dez * dez
    ds = math.sqrt(d_e2 + mu2)
    if ds < 1e-150:
        ds = 1e-150
    g0 = 0.0
    g1 = 0.0
    g2 = t
    h11 = h12 = h13 = h22 = h23 = h33 = 0.0
    for c in group:
        if not c.member:
            g = _ball_g(c.key, y)
            if g <= 0.0:
                raise SolverFailure("barrier evaluated outside the play region")
            bx = dex - c.key[0][0]
            by = dey - c.key[0][1]
            bz = dez - c.key[0][2]
            inv = 1.0 / g
            inv2 = inv * inv
            g0 += 2.0 * bx * inv
            g1 += 2.0 * by * inv
            g2 += 2.0 * bz * inv
            h11 += 4.0 * bx * bx * inv2 + 2.0 * inv
            h22 += 4.0 * by * by * inv2 + 2.0 * inv
            h33 += 4.0 * bz * bz * inv2 + 2.0 * inv
            h12 += 4.0 * bx * by * inv2
            h13 += 4.0 * bx * bz * inv2
            h23 += 4.0 * by * bz * inv2
            continue
        q, a, r = c.key
        dpx = dex - q[0]
        dpy = dey - q[1]
        dpz = dez - q[2]
        a2 = a * a
        ft = (dpx * dpx + dpy * dpy + dpz * dpz) - a2 * d_e2 - r * r - 2.0 * a * r * ds
        if ft <= 0.0:
            raise SolverFailure("barrier evaluated at an infeasible point")
        cone = 2.0 * a * r / ds if r != 0.0 else 0.0
        k = 2.0 * a2 + cone
        gf0 = 2.0 * dpx - k * dex
        gf1 = 2.0 * dpy - k * dey
        gf2 = 2.0 * dpz - k * dez
        inv = 1.0 / ft
        inv2 = inv * inv
        g0 -= gf0 * inv
        g1 -= gf1 * inv
        g2 -= gf2 * inv
        # Hessian of smoothed ftilde:
        #   (2 - 2 a^2 - cone) I + (cone/ds^2) dE dE^T
        hd = 2.0 - 2.0 * a2 - cone
        cw = cone / (ds * ds) if cone != 0.0 else 0.0
        h11 += inv2 * gf0 * gf0 - inv * (hd + cw * dex * dex)
        h22 += inv2 * gf1 * gf1 - inv * (hd + cw * dey * dey)
        h33 += inv2 * gf2 * gf2 - inv * (hd + cw * dez * dez)
        h12 += inv2 * gf0 * gf1 - inv * (cw * dex * dey)
        h13 += inv2 * gf0 * gf2 - inv * (cw * dex * dez)
        h23 += inv2 * gf1 * gf2 - inv * (cw * dey * dez)
    return (g0, g1, g2), (h11, h12, h13, h22, h23, h33)


# Hard but legitimate geometries (barely-faster pursuers whose bodies dwarf
# the scene) can take a long steady march per stage, so the budget is
# generous; the stall and step-floor guards below stop genuinely stuck runs
# long before it is spent.
_NEWTON_MAX_ITER = 3000


def _newton_center(group: list[_Constraint], y: Vec, t: float,
                   mu2: float) -> Vec:
    """Damped Newton on the smoothed barrier at weight ``t`` from a strictly
    feasible ``y``; ``value`` is always :func:`_barrier_value` at ``y``."""
    value = _barrier_value(group, y, t, mu2)
    previous_decrement = math.inf
    for _ in range(_NEWTON_MAX_ITER):
        grad, hess = _barrier_step(group, y, t, mu2)
        try:
            dx = _solve_sym3(*hess, -grad[0], -grad[1], -grad[2])
        except ValueError:
            raise SolverFailure("singular Newton system in the barrier") from None
        decrement = -(grad[0] * dx[0] + grad[1] * dx[1] + grad[2] * dx[2])
        # The barrier gradient is a difference of terms of order t times the
        # coordinate scale, so its rounding noise (and hence the reachable
        # decrement floor) grows with both; the stopping tolerance scales to
        # match.  Steps at the resolution floor of y and decrements that stop
        # shrinking are the same noise floor in disguise.  The KKT polish
        # restores full precision afterwards.
        noise_scale = t * (1.0 + la.norm(y))
        tol = max(_NEWTON_DECREMENT_TOL, 4e-16 * noise_scale)
        if decrement <= 2.0 * tol:
            return y
        if la.norm(dx) <= 1e-11 * (1.0 + la.norm(y)):
            return y
        if decrement < 1e-2 and decrement >= 0.9 * previous_decrement:
            return y
        previous_decrement = decrement
        slope = -decrement
        step = 1.0
        moved = 0.0
        for _ in range(60):
            candidate = (y[0] + step * dx[0], y[1] + step * dx[1], y[2] + step * dx[2])
            cand_value = _barrier_value(group, candidate, t, mu2)
            if cand_value is not None and cand_value <= value + 0.25 * step * slope:
                moved = step * la.norm(dx)
                y = candidate
                value = cand_value
                break
            step *= 0.5
        else:
            if decrement <= max(2e-9, 4e-14 * noise_scale):
                return y
            raise SolverFailure("barrier line search failed to make progress")
        if moved <= 1e-13 * (1.0 + la.norm(y)):
            return y
    raise SolverFailure("Newton iteration budget exhausted")


def _barrier_solve(group: list[_Constraint], y0: Vec, mu2: float) -> Vec:
    m = len(group)
    t = 1.0
    y = y0
    while True:
        y = _newton_center(group, y, t, mu2)
        if m / t <= _BARRIER_GAP:
            return y
        t *= 10.0


def barrier_reference(coalition, evader: EvaderSpec, pursuers,
                      region: Region, initial_point) -> InterceptionResult:
    """The interception point by the barrier + polish from the strictly
    feasible ``initial_point``: the tests' reference, which shares no kernel
    with :func:`solve_interception` and so cross-checks it and the
    uniqueness of the minimizer."""
    members = validate_coalition(coalition, len(pursuers), max_size=None)
    group = _program(members, evader, pursuers, region)
    epos = evader.position

    # Smoothing scale for the barrier phase, relative to the tightest
    # feasibility margin; zero when no capture radius introduces a kink.
    races = [c.key for c in group if c.member]
    margin = min(la.norm(q) - r for q, _, r in races)
    mu2 = (1e-7 * margin) ** 2 if any(r > 0.0 for _, _, r in races) else 0.0
    start = la.sub(la.as_vec(initial_point), epos)
    if _barrier_value(group, start, 0.0, mu2) is None:
        raise ValueError("initial point must be strictly feasible")
    barrier = _barrier_solve(group, start, mu2)

    # The barrier stops at a finite duality gap, so a constraint that is
    # truly active can still show a residual slightly above any single
    # threshold.  Polish active-set hypotheses from tight to loose, and
    # return the first polished point that certifies, else the barrier
    # point itself if it does.
    values = [c.value(barrier) for c in group]
    hypotheses: list[tuple[int, ...]] = []
    for tol in (ACTIVE_TOLERANCE, 1e-5, 1e-3):
        candidate = tuple(j for j, v in enumerate(values) if abs(v) <= tol)
        if candidate not in hypotheses:
            hypotheses.append(candidate)
    polished = (_polish_hypothesis(group, barrier, active)
                for active in hypotheses)
    for y in itertools.chain(
            (found[0] for found in polished if found is not None), (barrier,)):
        certificate = _certify_at(group, y)
        if certificate is not None:
            return _result(members, epos, group, y, *certificate)
    raise SolverFailure("no KKT certificate at the barrier point or a "
                        "polished one")

