"""The single-active path of the interception solver.

A default solve first looks for a single member whose own lowest point
satisfies every other constraint strictly; that point is certified with a
closed-form multiplier and returned without the barrier or the KKT polish.
Passing an ``initial_point`` always takes the barrier + polish path, so the
two paths can be compared on the same input.
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
    solve_interception,
)
from reachavoid import interception
from reachavoid.interception import KKT_TOLERANCE, UNBOUNDED

AGREEMENT = 1e-7


@pytest.fixture
def calls(monkeypatch):
    """Counts of polish hypotheses tried and of angle-kernel evaluations."""
    counts = Counter()

    def counted(name):
        original = getattr(interception, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(interception, name, wrapper)

    counted("_polish_hypothesis")
    counted("_section_altitude")
    return counts


def polishes(calls, members, evader, pursuers, region=UNBOUNDED) -> int:
    """Polish hypotheses a default solve tries; 0 on the single-active path."""
    before = calls["_polish_hypothesis"]
    solve_interception(members, evader, pursuers, region)
    return calls["_polish_hypothesis"] - before


def assert_paths_agree(members, evader, pursuers, region=UNBOUNDED):
    """Solve by default and from the evader position; return the default."""
    fast = solve_interception(members, evader, pursuers, region)
    slow = solve_interception(members, evader, pursuers, region,
                              initial_point=evader.position)
    assert math.dist(fast.point, slow.point) <= AGREEMENT
    assert abs(fast.value - slow.value) <= AGREEMENT
    assert fast.active_set == slow.active_set
    assert fast.region_active == slow.region_active
    for mine, theirs in zip(fast.multipliers, slow.multipliers):
        assert abs(mine - theirs) <= AGREEMENT
    assert abs(fast.region_multiplier - slow.region_multiplier) <= AGREEMENT
    for result in (fast, slow):
        assert result.kkt_residual <= KKT_TOLERANCE
        assert result.slackness_residual <= KKT_TOLERANCE
    return fast


def _pursuer(rng: random.Random, evader: EvaderSpec, barely_faster: bool):
    distance = rng.uniform(0.5, 3.0)
    axis = [rng.gauss(0.0, 1.0) for _ in range(3)]
    length = math.sqrt(sum(c * c for c in axis))
    position = tuple(e + distance * c / length
                     for e, c in zip(evader.position, axis))
    if barely_faster:
        alpha = 1.0 + rng.uniform(1e-4, 0.01)
    else:
        alpha = rng.uniform(1.05, 3.0)
    draw = rng.random()
    if draw < 0.3:
        radius = 0.0
    elif draw < 0.5:
        radius = distance * rng.uniform(0.9, 0.99)
    else:
        radius = distance * rng.uniform(0.0, 0.5)
    return PursuerSpec(position, alpha * evader.speed, radius)


def corpus(seed: int = 5, size: int = 240):
    """Seeded singles, pairs and triples: every fourth barely faster
    (alpha in (1, 1.01]), capture radii of 0, up to half and 0.9-0.99 of the
    distance, and every fifth inside a ball."""
    rng = random.Random(seed)
    for k in range(size):
        n = 1 + k % 3
        evader = EvaderSpec(
            (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.5, 3.0)),
            rng.uniform(0.8, 1.2),
        )
        pursuers = [_pursuer(rng, evader, k % 4 == 0) for _ in range(n)]
        region = UNBOUNDED
        if k % 5 == 0:
            region = Ball((0.0, 0.0, 1.0), rng.uniform(3.5, 6.0))
            if region.g(evader.position) <= 0.0 or any(
                    region.g(p.position) < 0.0 for p in pursuers):
                region = Ball((0.0, 0.0, 1.0), 50.0)
        yield tuple(range(n)), evader, pursuers, region


def test_paths_agree_on_seeded_corpus(calls):
    seen = Counter()
    for members, evader, pursuers, region in corpus():
        single_active = polishes(calls, members, evader, pursuers, region) == 0
        seen["fast", len(members)] += single_active
        result = assert_paths_agree(members, evader, pursuers, region)
        seen["multi-active"] += len(result.active_set) > 1
        seen["region-active"] += result.region_active
        seen["region-inactive"] += isinstance(region, Ball) and not result.region_active
        alpha = min(p.speed for p in pursuers) / evader.speed
        seen["barely-faster"] += alpha <= 1.01
        seen["zero-radius"] += any(p.capture_radius == 0.0 for p in pursuers)
    for key in (("fast", 1), ("fast", 2), ("fast", 3), "multi-active",
                "region-active", "region-inactive", "barely-faster",
                "zero-radius"):
        assert seen[key] >= 5, (key, seen)


def test_zero_radius_seed_is_the_answer(calls):
    # For r = 0 the body is the Apollonius sphere, whose lowest point is the
    # Newton seed: two bracket evaluations and one at the seed suffice.
    rng = random.Random(11)
    for _ in range(20):
        evader = EvaderSpec((0.0, 0.0, 2.0), 1.0)
        pursuer = _pursuer(rng, evader, barely_faster=False)
        pursuer = PursuerSpec(pursuer.position, pursuer.speed, 0.0)
        calls.clear()
        solve_interception((0,), evader, [pursuer])
        assert calls["_section_altitude"] == 3
        assert calls["_polish_hypothesis"] == 0


def test_scan_fallback_when_seed_does_not_bracket(calls):
    # A capture radius of 0.99 of the distance moves the lowest point far
    # from the Apollonius angle, so the 16-sample scan brackets it instead.
    evader = EvaderSpec((0.0, 0.0, 2.0), 1.0)
    pursuer = PursuerSpec(
        (0.12262577773376164, 0.1255002931952482, 0.545753320981457),
        1.0017662521178619, 0.9914435289717565)
    calls.clear()
    assert polishes(calls, (0,), evader, [pursuer]) == 0
    assert calls["_section_altitude"] > 16
    assert assert_paths_agree((0,), evader, [pursuer]).active_set == (0,)


def test_barely_faster_far_low_point_certifies():
    # The body's lowest point sits near z = -1.2e4, where d_p and alpha*d_e
    # are both about 1.2e4; evaluating f as their difference left the
    # slackness at 1.7e-8, above the certificate tolerance.
    evader = EvaderSpec(
        (0.974083920916762, -0.8571461430218021, 2.0409641122544158), 1.0)
    pursuer = PursuerSpec(
        (-2.82390921181133, -2.589746585341727, 0.6797835441392379),
        1.0001264, 0.0)
    result = solve_interception((0,), evader, [pursuer])
    assert result.value < -1e4
    assert result.kkt_residual <= KKT_TOLERANCE
    assert result.slackness_residual <= KKT_TOLERANCE


def test_second_active_member_falls_through(calls):
    # Pursuer 0 alone has its lowest point at (0, 0, 7/3); pursuer 1's speed
    # puts that point on its boundary too, so the point is right but the
    # active set has two members and the polish must settle the multipliers.
    evader = EvaderSpec((0.0, 0.0, 3.0), 1.0)
    low = (0.0, 0.0, 7.0 / 3.0)
    second_position = (2.0, 0.0, 2.0)
    alpha = math.dist(low, second_position) / math.dist(low, evader.position)
    pursuers = [PursuerSpec((0.0, 0.0, 1.0), 2.0),
                PursuerSpec(second_position, alpha)]
    assert polishes(calls, (0, 1), evader, pursuers) > 0
    result = assert_paths_agree((0, 1), evader, pursuers)
    assert result.active_set == (0, 1)
    assert math.dist(result.point, low) <= 1e-9


def test_pair_both_strictly_active_falls_through(calls):
    pursuers = [PursuerSpec((1.0, 0.0, 1.0), 2.0),
                PursuerSpec((-1.0, 0.0, 1.0), 2.0)]
    evader = EvaderSpec((0.0, 0.0, 3.0), 1.0)
    assert polishes(calls, (0, 1), evader, pursuers) > 0
    result = assert_paths_agree((0, 1), evader, pursuers)
    assert result.active_set == (0, 1)
    assert all(m < -1e-3 for m in result.multipliers)


def test_active_ball_falls_through(calls):
    # The pursuer's lowest point (0, 0, -1) lies on the sphere of a ball
    # tilted so that its own lowest point is elsewhere: the point stands,
    # but the region is active there.
    evader = EvaderSpec((0.0, 0.0, 1.0), 1.0)
    pursuer = PursuerSpec((0.0, 0.0, 3.0), 2.0)
    radius = 2.5
    tilt = math.radians(30.0)
    ball = Ball((radius * math.sin(tilt), 0.0, -1.0 + radius * math.cos(tilt)),
                radius)
    assert polishes(calls, (0,), evader, [pursuer], ball) > 0
    result = assert_paths_agree((0,), evader, [pursuer], ball)
    assert result.region_active
    assert result.active_set == (0,)
    assert math.dist(result.point, (0.0, 0.0, -1.0)) <= 1e-9
