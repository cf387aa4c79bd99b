"""Independent verification helpers for the test suite.

Everything here avoids the library's solution paths: curvatures come from
central differences of the boundary radius, minimum altitudes from dense
direction grids with local refinement, optimal matchings from full subset
enumeration, and 3-dimensional matchings from backtracking search.
:func:`bisect_boundary` finds a boundary radius by scalar bisection of the
potential along a ray, but only the geometry tests use it.

Two exceptions share code with the package:

- :func:`grid_min_altitude` and :func:`boundary_spread` (acceptance
  criteria 2 and 5) read every boundary radius from
  ``lemmas.boundary_radius``, that is from the package's
  ``geometry.radial_derivatives``, the formula the single solve searches.
  A wrong radial formula would move these oracles and the solve together.
  Only the checks of that formula in ``tests/test_geometry.py`` would
  catch it: ``test_boundary_radius_axis_fixtures`` against
  :func:`bisect_boundary`, ``test_boundary_consistency_random_directions``
  on the potential at the boundary point, and
  ``test_boundary_radius_toward_barely_faster_pursuer_keeps_its_digits``
  against a 60-digit evaluation.
- :func:`lone_reference` is the package's generic certificate written out
  for a lone member, against which its closed form must agree bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
import random

import numpy as np
import pytest

from reachavoid import (
    UNBOUNDED,
    EvaderSpec,
    InterceptionResult,
    PursuerSpec,
    ThreeDMInstance,
    potential,
)
from reachavoid import interception

from lemmas import PolarFrame, boundary_radius, polar_direction


def bisect_boundary(pursuer: PursuerSpec, evader: EvaderSpec, direction) -> float:
    """Root of the potential along a ray from the evader, by pure bisection."""
    direction = np.asarray(direction, dtype=float)
    start = np.asarray(evader.position, dtype=float)

    def f(t: float) -> float:
        return potential(pursuer, evader, start + t * direction)

    hi = 1.0
    for _ in range(200):
        if f(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise AssertionError("potential never went negative along the ray")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fd_gradient(pursuer: PursuerSpec, evader: EvaderSpec, x, h: float = 1e-6):
    """Central finite differences of the potential."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros(3)
    for axis in range(3):
        offset = np.zeros(3)
        offset[axis] = h
        grad[axis] = (
            potential(pursuer, evader, x + offset)
            - potential(pursuer, evader, x - offset)
        ) / (2.0 * h)
    return grad


def fd_curvature(pursuer: PursuerSpec, evader: EvaderSpec, frame: PolarFrame,
                 theta: float, psi: float) -> float:
    """Cross-section curvature from central differences (step 1e-4) of the
    boundary radius over ``psi``."""
    def rho(angle: float) -> float:
        return boundary_radius(pursuer, evader, polar_direction(frame, theta, angle))

    h = 1e-4
    r, r_plus, r_minus = rho(psi), rho(psi + h), rho(psi - h)
    r_d = (r_plus - r_minus) / (2.0 * h)
    r_dd = (r_plus - 2.0 * r + r_minus) / (h * h)
    return (r * r + 2.0 * r_d * r_d - r * r_dd) / (r * r + r_d * r_d) ** 1.5


def fibonacci_directions(n: int) -> np.ndarray:
    indices = np.arange(n) + 0.5
    polar = np.arccos(1.0 - 2.0 * indices / n)
    azimuth = math.pi * (1.0 + math.sqrt(5.0)) * indices
    return np.column_stack([
        np.sin(polar) * np.cos(azimuth),
        np.sin(polar) * np.sin(azimuth),
        np.cos(polar),
    ])


def grid_min_altitude(members, evader: EvaderSpec, pursuers,
                      n: int = 6000, refine: int = 60) -> float:
    """Lowest altitude over the joint evasion body by direction-grid search.

    The body's radial extent along a direction is the smallest per-pursuer
    boundary radius; a coarse grid pass is followed by shrinking pattern
    search on the sphere.
    """
    def altitude(e) -> float:
        rho = min(boundary_radius(pursuers[i], evader, e) for i in members)
        return evader.position[2] + rho * e[2]

    directions = fibonacci_directions(n)
    values = [altitude(e) for e in directions]
    best_index = int(np.argmin(values))
    best_value = values[best_index]
    e = directions[best_index]
    azimuth = math.atan2(e[1], e[0])
    polar = math.acos(min(1.0, max(-1.0, e[2])))
    step = 2.0 * math.pi / math.sqrt(n)
    for _ in range(refine):
        improved = False
        for da, dp in ((1, 0), (-1, 0), (0, 1), (0, -1),
                       (1, 1), (-1, -1), (1, -1), (-1, 1)):
            az = azimuth + da * step
            po = min(max(polar + dp * step, 1e-9), math.pi - 1e-9)
            candidate = np.array([
                math.sin(po) * math.cos(az),
                math.sin(po) * math.sin(az),
                math.cos(po),
            ])
            value = altitude(candidate)
            if value < best_value:
                best_value, azimuth, polar = value, az, po
                improved = True
        if not improved:
            step *= 0.5
    return best_value


def boundary_spread(members, evader: EvaderSpec, pursuers, direction) -> float:
    """Gap between the largest and smallest per-pursuer boundary radius.

    A common point of all three boundaries along a direction needs zero
    spread, so a positive lower bound over a fine grid certifies that no
    common point exists near that grid.
    """
    radii = [boundary_radius(pursuers[i], evader, direction) for i in members]
    return max(radii) - min(radii)


def brute_force_3dm(instance: ThreeDMInstance) -> bool:
    """Backtracking search for a perfect 3-dimensional matching."""
    by_last = {}
    for i, j, k in instance.triples:
        by_last.setdefault(k, []).append((i, j))
    if set(by_last) != set(range(instance.m)):
        return False
    used_first: set[int] = set()
    used_second: set[int] = set()

    def place(k: int) -> bool:
        if k == instance.m:
            return True
        for i, j in by_last[k]:
            if i not in used_first and j not in used_second:
                used_first.add(i)
                used_second.add(j)
                if place(k + 1):
                    return True
                used_first.discard(i)
                used_second.discard(j)
        return False

    return place(0)


def exhaustive_mbmc_size(graph, limit: int = 16) -> int:
    """Optimal conflict-free matching size by full subset enumeration."""
    edges = list(graph.edges)
    assert len(edges) <= limit, "exhaustive oracle limited to small graphs"
    best = 0
    for mask in range(1 << len(edges)):
        used_pursuers: set[int] = set()
        used_evaders: set[int] = set()
        size = 0
        ok = True
        for index in range(len(edges)):
            if not mask >> index & 1:
                continue
            ci, ej = edges[index]
            members = set(graph.coalitions[ci])
            if ej in used_evaders or members & used_pursuers:
                ok = False
                break
            used_evaders.add(ej)
            used_pursuers |= members
            size += 1
        if ok:
            best = max(best, size)
    return best


# ---------------------------------------------------------------------------
# pose generators shared across test modules


def random_pose(rng: random.Random, n: int, radius_max: float = 0.4):
    """n pursuers and one evader satisfying the setup assumptions."""
    while True:
        pursuers = [
            PursuerSpec(
                position=(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-1, 2.5)),
                speed=rng.uniform(1.3, 2.8),
                capture_radius=rng.uniform(0.0, radius_max),
            )
            for _ in range(n)
        ]
        evader = EvaderSpec(
            position=(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                      rng.uniform(0.5, 3.5)),
            speed=rng.uniform(0.8, 1.2),
        )
        if all(
            math.dist(p.position, evader.position) > p.capture_radius + 0.05
            for p in pursuers
        ):
            return pursuers, evader


def ring_pose(rng: random.Random):
    """Three pursuers spread around and below the evader.

    Biased so that the interception point often sits on all three
    boundaries at once (a corner of the joint evasion body).
    """
    base = rng.uniform(0.0, 2.0 * math.pi)
    pursuers = []
    for k in range(3):
        angle = base + 2.0 * math.pi * k / 3.0 + rng.uniform(-0.3, 0.3)
        radius = rng.uniform(1.0, 2.0)
        pursuers.append(PursuerSpec(
            position=(radius * math.cos(angle), radius * math.sin(angle),
                      rng.uniform(-0.3, 0.6)),
            speed=rng.uniform(1.8, 2.4),
            capture_radius=rng.uniform(0.0, 0.25),
        ))
    evader = EvaderSpec(
        position=(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                  rng.uniform(1.5, 2.5)),
        speed=1.0,
    )
    return pursuers, evader


# ---------------------------------------------------------------------------
# the generic certificate of a lone member, as an exact reference


def lone_reference(pursuer: PursuerSpec,
                   evader: EvaderSpec) -> tuple[InterceptionResult | None, bool]:
    """The unbounded solve of ``(pursuer,)`` against ``evader`` through the
    generic certificate, None when nothing certifies, and whether it
    certified the member's own lowest point (else the KKT polish is tried).

    The certificate is written out from ``_gram_multipliers`` with
    stationarity summed over the active gradients, as the generic loop
    does for any active set.
    """
    group = interception._program((0,), evader, [pursuer], UNBOUNDED)
    y = group[0].lowest()
    value, grad, _ = group[0].grad_hess(y, hessian=False)
    found = None
    if abs(value) <= interception.ACTIVE_TOLERANCE:
        multipliers = interception._gram_multipliers([grad])
        r0 = r1 = 0.0
        r2 = 1.0
        slack = 0.0
        for lj, g, v in zip(multipliers, [grad], [value]):
            r0 += lj * g[0]
            r1 += lj * g[1]
            r2 += lj * g[2]
            slack = max(slack, abs(lj * v))
        stationarity = math.sqrt(r0 * r0 + r1 * r1 + r2 * r2)
        if (stationarity <= interception.KKT_TOLERANCE
                and slack <= interception.KKT_TOLERANCE):
            found = (y, (0,), multipliers, stationarity, slack)
    direct = found is not None
    if not direct:
        found = interception._polished(group)
        if found is None:
            return None, False
    return interception._result((0,), evader.position, group, *found), direct


def lone_pose(rng: random.Random, regime: str, scale: float = 1.0):
    """One pursuer and one evader, with every length times ``scale``.

    ``regime`` is ``"generic"`` (speed ratio in [1.05, 3], capture radius
    up to 0.99 of the distance), ``"barely-faster"`` (speed ratio
    1 + 1e-6), ``"grazing"`` (the evader 1e-9 outside the capture sphere)
    or ``"vertical"`` (the pursuer straight above or below the evader).
    """
    evader = EvaderSpec(tuple(scale * rng.uniform(-2.0, 2.0) for _ in range(2))
                        + (scale * rng.uniform(0.5, 3.0),), rng.uniform(0.5, 2.0))
    distance = scale * rng.uniform(0.3, 3.0)
    if regime == "vertical":
        axis = (0.0, 0.0, rng.choice((-1.0, 1.0)))
    else:
        axis = tuple(rng.gauss(0.0, 1.0) for _ in range(3))
        length = math.sqrt(sum(c * c for c in axis))
        axis = tuple(c / length for c in axis)
    position = tuple(e + distance * c for e, c in zip(evader.position, axis))
    alpha = 1.0 + 1e-6 if regime == "barely-faster" else rng.uniform(1.05, 3.0)
    if regime == "grazing":
        radius = math.dist(position, evader.position) - 1e-9
    else:
        radius = distance * rng.choice((0.0, rng.uniform(0.0, 0.5),
                                        rng.uniform(0.9, 0.99)))
    return PursuerSpec(position, alpha * evader.speed, radius), evader


def assert_same_as_init(obj) -> None:
    """Check that ``obj``, a frozen dataclass instance the package built
    without calling its ``__init__``, cannot be told apart from the one
    ``__init__`` builds from the same field values."""
    cls = type(obj)
    values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(cls)}
    made = cls(**values)
    assert obj == made and made == obj
    assert hash(obj) == hash(made)
    assert repr(obj) == repr(made)
    assert list(vars(obj).items()) == list(vars(made).items())
    assert dataclasses.replace(obj) == made
    assert dataclasses.asdict(obj) == dataclasses.asdict(made)
    copied = pickle.loads(pickle.dumps(obj))
    assert type(copied) is cls and copied == made and repr(copied) == repr(made)
    for name in values:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, values[name])
    assert vars(obj) == values
