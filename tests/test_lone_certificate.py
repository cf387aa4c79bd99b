"""The closed-form certificate of a lone member in the unbounded region.

A one-pursuer solve without the ball, the engine's per-frame re-solve of
an adopted single, certifies the member's own lowest point with one
multiplier and one stationarity and slackness residual instead of the
generic certificate.  It must return what the generic certificate returns,
bit for bit, and hand a point it cannot certify to the KKT polish.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from reachavoid import Ball, EvaderSpec, PursuerSpec, solve_interception
from reachavoid import interception
from reachavoid.interception import KKT_TOLERANCE, SolverFailure

import oracles

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


def test_lone_member_with_the_ball_keeps_the_ordered_tries(calls):
    evader = EvaderSpec((0.0, 0.0, 1.0), 1.0)
    pursuer = PursuerSpec((0.5, 0.0, 1.5), 2.0, 0.1)
    solve_interception((0,), evader, [pursuer], Ball((0.0, 0.0, 1.0), 4.0))
    assert calls["_direct"] == 1
    assert calls["_certify"] >= 1


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
