"""The closed-form certificate of a lone member, in either region.

A one-pursuer solve, the engine's per-frame re-solve of an adopted single,
certifies the member's own lowest point with one multiplier and one
stationarity and slackness residual instead of the generic certificate; in
the ball region the ball must also hold strictly there, else the solve
takes the generic ordered tries.  It must return what the generic
certificate returns, bit for bit, and hand a point it cannot certify to
the KKT polish.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from reachavoid import (
    Ball,
    EvaderSpec,
    PursuerSpec,
    random_scenario,
    solve_interception,
)
from reachavoid import interception
from reachavoid.interception import KKT_TOLERANCE, SolverFailure

import oracles
import test_degenerate

REGIMES = ("generic", "barely-faster", "grazing", "vertical")


@pytest.fixture
def calls(monkeypatch):
    """Counts of the lone path's kernels and of the generic certificate."""
    counts = Counter()

    def counted(name):
        original = getattr(interception, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(interception, name, wrapper)

    for name in ("_solve_single", "_f_grad_hess", "_certify", "_direct",
                 "_gram_multipliers", "_polished"):
        counted(name)
    return counts


def test_lone_solve_skips_the_generic_certificate(calls):
    pursuer, evader = oracles.lone_pose(random.Random(3), "generic")
    result = solve_interception((0,), evader, [pursuer])
    assert result.active_set == (0,)
    assert calls == Counter(_solve_single=1, _f_grad_hess=1)


def test_lone_member_inside_the_ball_skips_the_generic_certificate(calls):
    evader = EvaderSpec((0.0, 0.0, 1.0), 1.0)
    pursuer = PursuerSpec((0.5, 0.0, 1.5), 2.0, 0.1)
    result = solve_interception((0,), evader, [pursuer],
                                Ball((0.0, 0.0, 1.0), 4.0))
    assert result.active_set == (0,) and not result.region_active
    assert calls == Counter(_solve_single=1, _f_grad_hess=1)


def test_lone_member_with_a_binding_ball_takes_the_ordered_tries(calls):
    evader = EvaderSpec((0.0, 0.0, 1.0), 1.0)
    pursuer = PursuerSpec((0.5, 0.0, 1.5), 1.2, 0.1)
    result = solve_interception((0,), evader, [pursuer],
                                Ball(evader.position, 1.2))
    assert result.region_active
    assert calls["_direct"] == 1
    # _direct reads the member's lowest point that the lone test found.
    assert calls["_solve_single"] == 1


def _ball_pairs(radius: float):
    """Every (pursuer, evader) pair of ``random_scenario(0…39)`` whose
    players both lie within 0.9 ``radius`` of their midpoint, with a ball
    of ``radius`` centred there; the pair is moved vertically so that the
    centre sits ``radius / 2`` above the exit plane."""
    for seed in range(40):
        scenario = random_scenario(seed)
        for evader in scenario.evaders:
            for pursuer in scenario.pursuers:
                mid = [0.5 * (a + b) for a, b in
                       zip(pursuer.position, evader.position)]
                if math.dist(mid, evader.position) >= 0.9 * radius:
                    continue
                drop = mid[2] - 0.5 * radius
                px, py, pz = pursuer.position
                ex, ey, ez = evader.position
                yield (PursuerSpec((px, py, pz - drop), pursuer.speed,
                                   pursuer.capture_radius),
                       EvaderSpec((ex, ey, ez - drop), evader.speed),
                       Ball((mid[0], mid[1], 0.5 * radius), radius))


def _lone_ball_corpus():
    for regime in ("ball-boundary", "ball-coaxial"):
        rng = random.Random(f"lone-{regime}")
        for _ in range(150):
            _, evader, pursuers, region = test_degenerate.draw(rng, regime, 1)
            yield pursuers[0], evader, region
    for radius in (4.5, 2.0, 1.2):
        yield from _ball_pairs(radius)


def test_lone_ball_certificate_matches_the_generic_one_bit_for_bit():
    paths = Counter()
    for pursuer, evader, region in _lone_ball_corpus():
        group = interception._program((0,), evader, [pursuer], region)
        found = interception._direct(group) or interception._polished(group)
        if found is None:
            with pytest.raises(SolverFailure):
                solve_interception((0,), evader, [pursuer], region)
            paths["failed"] += 1
            continue
        reference = interception._result((0,), evader.position, group, *found)
        result = solve_interception((0,), evader, [pursuer], region)
        # repr also tells 0.0 from -0.0.
        assert repr(result) == repr(reference), (pursuer, evader, region)
        fresh = interception._program((0,), evader, [pursuer], region)
        if interception._lone(*fresh) is not None:
            paths["lone"] += 1
        elif result.region_active:
            paths["binding ball"] += 1
    assert paths["lone"] >= 100 and paths["binding ball"] >= 100, paths


def test_lone_certificate_matches_the_generic_one_bit_for_bit():
    rng = random.Random(41)
    paths = Counter()
    for k in range(1200):
        regime = REGIMES[k % len(REGIMES)]
        scale = 1e3 if (k // len(REGIMES)) % 2 else 1.0
        pursuer, evader = oracles.lone_pose(rng, regime, scale)
        reference, direct = oracles.lone_reference(pursuer, evader)
        if reference is None:
            # Deep points of barely faster pursuers at scale 1e3 leave no
            # certifiable double; both paths must then fail alike.
            with pytest.raises(SolverFailure):
                solve_interception((0,), evader, [pursuer])
            paths["failed", regime] += 1
            continue
        result = solve_interception((0,), evader, [pursuer])
        assert result == reference, (regime, scale, pursuer, evader)
        # repr also tells 0.0 from -0.0.
        assert repr(result) == repr(reference)
        paths["direct" if direct else "polished", regime] += 1
    for regime in REGIMES:
        assert paths["direct", regime] >= 30, paths
    assert paths["polished", "grazing"] >= 30, paths
    assert sum(n for (path, _), n in paths.items() if path == "failed") <= 150


def test_off_boundary_lone_point_is_polished(calls, monkeypatch):
    pursuer, evader = oracles.lone_pose(random.Random(8), "generic")
    expected = solve_interception((0,), evader, [pursuer])
    kernel = interception._solve_single

    def inside(con):
        # Halfway to the evader: strictly inside the body, off its boundary.
        return tuple(0.5 * c for c in kernel(con))

    monkeypatch.setattr(interception, "_solve_single", inside)
    calls.clear()
    result = solve_interception((0,), evader, [pursuer])
    assert calls["_polished"] == 1
    assert result.active_set == (0,)
    assert result.kkt_residual <= KKT_TOLERANCE
    assert result.slackness_residual <= KKT_TOLERANCE
    assert math.dist(result.point, expected.point) <= 1e-9
