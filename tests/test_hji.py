"""The value against the Hamilton-Jacobi-Isaacs equation.

A coalition's value ``V`` is the certified lowest altitude of its evasion
space, ``solve_interception(...).point[2]``, and its strategies head every
player straight at the interception point.  On seeded poses in which every
member is active and the ball is not, these tests take central differences
(``H = 1e-6``) of ``V`` in each player's position and check:

- the envelope theorem: ``dV/dx_{P_i} = lambda_i df_i/dx_{P_i}`` and
  ``dV/dx_E = sum_i lambda_i df_i/dx_E`` with the race potential
  ``f_i = |x - x_{P_i}| - alpha_i |x - x_E| - r_i``, which checks the
  certificate's multipliers against the value's true sensitivity;
- the HJI equation of the game of degree, in which the pursuers raise the
  value and the evader lowers it: the Hamiltonian
  ``sum_i v_i |grad_{P_i} V| - v_E |grad_E V|`` vanishes;
- the saddle point: ``pursuer_heading`` points along ``grad_{P_i} V`` and
  ``evader_optimal_heading`` along ``-grad_E V``.

A triple's altitude jitters by up to ~4e-14 under input moves of 1e-9,
against ~3e-15 for singles and pairs, so at this step its difference
quotients miss ``GRADIENT_TOLERANCE`` by up to ~1e-8 (CHANGES.md FOUND).
The triples' gradient checks are strict expected failures, not a wider
bound; their headings are checked all the same.
"""

from __future__ import annotations

import functools
import math
import random

import pytest

from reachavoid import (
    Ball,
    EvaderSpec,
    PursuerSpec,
    evader_optimal_heading,
    pursuer_heading,
    solve_interception,
)
from reachavoid.interception import UNBOUNDED

H = 1e-6
#: Bound on the Hamiltonian residual and on each gradient's distance from
#: the envelope theorem's, relative to max(1, |gradient|).
GRADIENT_TOLERANCE = 2.5e-9
#: Bound on ``1 - cos`` between a heading and its value gradient.
HEADING_TOLERANCE = 1e-9
POSES_PER_REGION = 20
REGIONS = {"unbounded": UNBOUNDED, "ball": Ball((0.0, 0.0, 1.0), 4.0)}


@functools.lru_cache(maxsize=None)
def poses(k: int):
    """``(members, evader, pursuers, region, result)`` of seeded poses of
    ``k`` members, every one of them active and the ball inactive."""
    rng = random.Random(f"hji-{k}")
    found = []
    for region in REGIONS.values():
        drawn = 0
        while drawn < POSES_PER_REGION:
            evader = EvaderSpec((rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                                 rng.uniform(0.5, 2.5)), rng.uniform(0.8, 1.2))
            pursuers = []
            for _ in range(k):
                position = (rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5),
                            rng.uniform(0.0, 3.0))
                radius = rng.uniform(0.0, 0.3) * math.dist(position,
                                                           evader.position)
                pursuers.append(PursuerSpec(position,
                                            evader.speed * rng.uniform(1.2, 3.0),
                                            radius))
            if isinstance(region, Ball) and any(region.g(p.position) <= 0.0
                                                for p in pursuers):
                continue
            members = tuple(range(k))
            result = solve_interception(members, evader, pursuers, region)
            if result.active_set == members and not result.region_active:
                found.append((members, evader, pursuers, region, result))
                drawn += 1
    return found


def _moved(position, axis: int, step: float):
    return tuple(c + step if a == axis else c for a, c in enumerate(position))


def _value_gradient(members, evader, pursuers, region, who):
    """Central differences of the value in the position of pursuer ``who``,
    or of the evader when ``who`` is None."""
    gradient = []
    for axis in range(3):
        values = []
        for step in (H, -H):
            moved_evader, moved_pursuers = evader, list(pursuers)
            if who is None:
                moved_evader = EvaderSpec(_moved(evader.position, axis, step),
                                          evader.speed)
            else:
                p = pursuers[who]
                moved_pursuers[who] = PursuerSpec(_moved(p.position, axis, step),
                                                  p.speed, p.capture_radius)
            values.append(solve_interception(members, moved_evader,
                                             moved_pursuers, region).point[2])
        gradient.append((values[0] - values[1]) / (2.0 * H))
    return tuple(gradient)


def _unit(v):
    length = math.hypot(*v)
    return tuple(c / length for c in v)


@functools.lru_cache(maxsize=None)
def gradients(k: int):
    """Per pose of :func:`poses`: the pose, the difference gradients of the
    value in each member's position and in the evader's, and the envelope
    theorem's gradients in the same order."""
    out = []
    for pose in poses(k):
        members, evader, pursuers, region, result = pose
        x = result.point
        measured = [_value_gradient(members, evader, pursuers, region, i)
                    for i in members]
        measured.append(_value_gradient(members, evader, pursuers, region, None))
        envelope = []
        toward_evader = [0.0, 0.0, 0.0]
        to_x = _unit(tuple(a - b for a, b in zip(x, evader.position)))
        for i in members:
            lam = result.multipliers[i]
            p = pursuers[i]
            # df/dx_P = -(x - x_P)/|x - x_P|; df/dx_E = alpha (x - x_E)/|x - x_E|
            envelope.append(tuple(-lam * c for c in _unit(
                tuple(a - b for a, b in zip(x, p.position)))))
            alpha = p.speed / evader.speed
            for axis in range(3):
                toward_evader[axis] += lam * alpha * to_x[axis]
        envelope.append(tuple(toward_evader))
        out.append((pose, measured, envelope))
    return out


#: Coalition sizes of the gradient checks, which triples miss.
SIZES = [1, 2, pytest.param(3, marks=pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="a triple's altitude jitters by ~4e-14, so its H = 1e-6 "
           "difference quotients err by ~1e-8 (CHANGES.md FOUND)"))]


@pytest.mark.parametrize("k", SIZES)
def test_value_gradient_is_the_envelope_theorem_gradient(k):
    worst = max(math.dist(got, want) / max(1.0, math.hypot(*want))
                for _, measured, envelope in gradients(k)
                for got, want in zip(measured, envelope))
    assert worst <= GRADIENT_TOLERANCE, worst


@pytest.mark.parametrize("k", SIZES)
def test_hamiltonian_vanishes(k):
    worst = 0.0
    for (members, evader, pursuers, _, _), measured, _ in gradients(k):
        residual = sum(pursuers[i].speed * math.hypot(*measured[n])
                       for n, i in enumerate(members))
        residual -= evader.speed * math.hypot(*measured[-1])
        worst = max(worst, abs(residual))
    assert worst <= GRADIENT_TOLERANCE, worst


@pytest.mark.parametrize("k", [1, 2, 3])
def test_headings_are_the_saddle_point_of_the_hamiltonian(k):
    for (members, evader, pursuers, _, result), measured, _ in gradients(k):
        x = result.point
        for n, i in enumerate(members):
            heading = pursuer_heading(pursuers[i].position, x)
            cos = sum(a * b for a, b in zip(heading, _unit(measured[n])))
            assert cos >= 1.0 - HEADING_TOLERANCE, (k, i, cos)
        heading = evader_optimal_heading(evader.position, x)
        cos = -sum(a * b for a, b in zip(heading, _unit(measured[-1])))
        assert cos >= 1.0 - HEADING_TOLERANCE, (k, cos)
