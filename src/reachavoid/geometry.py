"""Closed-form evasion-space primitives.

A pursuer at ``x_P`` with speed ``v_P`` and capture radius ``r`` races an
evader at ``x_E`` with speed ``v_E`` toward points of 3D space.  With the
speed ratio ``alpha = v_P / v_E`` the potential

    f(x) = ||x - x_P|| - alpha * ||x - x_E|| - r

is positive exactly on the points the evader reaches strictly before the
pursuer can place it inside the capture sphere.  For ``alpha > 1`` the
closure ``{f >= 0}`` is a compact, strictly convex body around the evader;
its boundary has an explicit radial description in polar coordinates
centred on the evader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _linalg as la
from ._linalg import Vec

class AssumptionViolation(ValueError):
    """A game-setup assumption (speed ratio, initial deployment) fails."""


class CapturedConfigurationError(ValueError):
    """The evader already lies inside a pursuer's capture sphere."""


class SingularPointError(ValueError):
    """Evaluation requested at a point where the formula is singular."""


@dataclass(frozen=True)
class PursuerSpec:
    """A pursuer: position, speed (length/time) and capture radius (length)."""

    position: Vec
    speed: float
    capture_radius: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", la.as_vec(self.position))
        object.__setattr__(self, "speed", float(self.speed))
        object.__setattr__(self, "capture_radius", float(self.capture_radius))
        if not 0.0 < self.speed < math.inf:
            raise ValueError(f"pursuer speed must be finite and > 0, got {self.speed}")
        if not 0.0 <= self.capture_radius < math.inf:
            raise ValueError(
                f"capture radius must be finite and >= 0, got {self.capture_radius}"
            )


@dataclass(frozen=True)
class EvaderSpec:
    """An evader: position and speed (length/time)."""

    position: Vec
    speed: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", la.as_vec(self.position))
        object.__setattr__(self, "speed", float(self.speed))
        if not 0.0 < self.speed < math.inf:
            raise ValueError(f"evader speed must be finite and > 0, got {self.speed}")


def speed_ratio(pursuer: PursuerSpec, evader: EvaderSpec) -> float:
    """Pursuer-to-evader speed ratio ``alpha``."""
    return pursuer.speed / evader.speed


def _check_not_captured(pursuer: PursuerSpec, evader: EvaderSpec) -> float:
    separation = la.dist(evader.position, pursuer.position)
    if separation <= pursuer.capture_radius:
        raise CapturedConfigurationError(
            f"evader at distance {separation} from pursuer is within capture "
            f"radius {pursuer.capture_radius}"
        )
    return separation


# A pursuer as the race potential sees it, in the frame centred on the
# evader: ``(x_P - x_E, alpha, r)``.  Points are passed as ``y = x - x_E``,
# which keeps their digits next to the evader.
_Con = tuple[Vec, float, float]


def _race_numerator(alpha: float, yy: float, yq: float, qq: float) -> float:
    """``||y - q||^2 - alpha^2 ||y||^2`` from ``y.y``, ``y.q`` and ``q.q``.

    With ``y = x - x_E`` and ``q = x_P - x_E`` this equals
    ``(d_p - alpha d_e)(d_p + alpha d_e)``, so dividing by the second factor
    gives ``d_p - alpha d_e`` without subtracting two large distances: far
    below a barely-faster pursuer both are huge and nearly equal.
    """
    return -(alpha - 1.0) * (alpha + 1.0) * yy - 2.0 * yq + qq


def _f_original(con: _Con, y: Vec) -> float:
    (q0, q1, q2), alpha, r = con
    y0, y1, y2 = y
    d0 = y0 - q0
    d1 = y1 - q1
    d2 = y2 - q2
    yy = y0 * y0 + y1 * y1 + y2 * y2
    numerator = _race_numerator(alpha, yy, y0 * q0 + y1 * q1 + y2 * q2,
                                q0 * q0 + q1 * q1 + q2 * q2)
    return numerator / (math.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
                        + alpha * math.sqrt(yy)) - r


def _f_grad_hess(con: _Con, y: Vec, hessian: bool = True):
    """Race potential, its gradient and (unless ``hessian`` is false, when
    None stands in) its packed symmetric Hessian at ``y``."""
    (q0, q1, q2), a, r = con
    y0, y1, y2 = y
    # Written out on scalars: a single's certificate evaluates this once per
    # solve, and the vector helpers' calls cost as much as the arithmetic.
    dp0 = y0 - q0
    dp1 = y1 - q1
    dp2 = y2 - q2
    d_p = math.sqrt(dp0 * dp0 + dp1 * dp1 + dp2 * dp2)
    ee = y0 * y0 + y1 * y1 + y2 * y2
    d_e = math.sqrt(ee)
    numerator = _race_numerator(a, ee, y0 * q0 + y1 * q1 + y2 * q2,
                                q0 * q0 + q1 * q1 + q2 * q2)
    f = numerator / (d_p + a * d_e) - r
    ip = 1.0 / d_p
    iw = 1.0 / d_e
    u = (dp0 * ip, dp1 * ip, dp2 * ip)
    w = (y0 * iw, y1 * iw, y2 * iw)
    grad = (u[0] - w[0] * a, u[1] - w[1] * a, u[2] - w[2] * a)
    if not hessian:
        return f, grad, None
    # Hessian (I - u u^T)/d_p - a (I - w w^T)/d_e, packed symmetric.
    ie = a / d_e
    h = (
        ip * (1.0 - u[0] * u[0]) - ie * (1.0 - w[0] * w[0]),
        ip * (-u[0] * u[1]) - ie * (-w[0] * w[1]),
        ip * (-u[0] * u[2]) - ie * (-w[0] * w[2]),
        ip * (1.0 - u[1] * u[1]) - ie * (1.0 - w[1] * w[1]),
        ip * (-u[1] * u[2]) - ie * (-w[1] * w[2]),
        ip * (1.0 - u[2] * u[2]) - ie * (1.0 - w[2] * w[2]),
    )
    return f, grad, h


def _race(pursuer: PursuerSpec, evader: EvaderSpec) -> _Con:
    # Written out on scalars: the graph build makes one for every pursuer
    # and evader, and the helpers' calls cost as much as the arithmetic.
    (p0, p1, p2), (e0, e1, e2) = pursuer.position, evader.position
    return ((p0 - e0, p1 - e1, p2 - e2), pursuer.speed / evader.speed,
            pursuer.capture_radius)


def potential(pursuer: PursuerSpec, evader: EvaderSpec, x) -> float:
    """Race potential ``||x - x_P|| - alpha*||x - x_E|| - r`` at point ``x``.

    Positive where the evader wins the race, zero on the boundary of its
    evasion space, negative where the pursuer wins.  Rejects configurations
    in which the evader is already captured.
    """
    _check_not_captured(pursuer, evader)
    return _f_original(_race(pursuer, evader),
                       la.sub(la.as_vec(x), evader.position))


def potential_gradient(pursuer: PursuerSpec, evader: EvaderSpec, x) -> Vec:
    """Gradient of :func:`potential` with respect to the evaluation point.

    Singular at the player positions themselves.
    """
    point = la.as_vec(x)
    if (la.dist(point, pursuer.position) == 0.0
            or la.dist(point, evader.position) == 0.0):
        raise SingularPointError("gradient is undefined at a player position")
    _, grad, _ = _f_grad_hess(_race(pursuer, evader),
                              la.sub(point, evader.position), hessian=False)
    return grad


def radial_derivatives(h1: float, h1_d: float, ar: float, a2m1: float,
                       const: float) -> tuple[float, float, float]:
    """Boundary radius ``rho`` and its first two angle derivatives.

    A unit direction ``e(psi)`` sweeping a circle in a plane through the
    evader meets the boundary at ``rho = (h1 + h2) / (alpha^2 - 1)``, with

        h1 = (x_E - x_P) . e - alpha r,   h2 = sqrt(h1^2 + const),
        const = (alpha^2 - 1) (||x_E - x_P||^2 - r^2).

    ``h1_d`` is ``(x_E - x_P) . e'``; since ``e'' = -e`` the second
    derivative ``h1''`` collapses to ``-(h1 + alpha r)``.  ``ar`` is
    ``alpha r`` and ``a2m1`` is ``alpha^2 - 1``.

    Toward the pursuer ``h1 < 0`` and ``h1 + h2`` cancels, so ``rho`` is
    then taken as ``(const / a2m1) / (h2 - h1)``, and both derivatives are
    written through ``rho`` so that neither holds ``h1 + h2``.
    """
    h1_dd = -(h1 + ar)
    h2 = math.sqrt(h1 * h1 + const)
    span = const / a2m1  # ||x_E - x_P||^2 - r^2 = (h2 + h1)(h2 - h1) / a2m1
    rho = (h1 + h2) / a2m1 if h1 >= 0.0 else span / (h2 - h1)
    rho_d = rho * h1_d / h2
    rho_dd = (rho * h1_dd + span * h1_d * h1_d / (h2 * h2)) / h2
    return rho, rho_d, rho_dd
