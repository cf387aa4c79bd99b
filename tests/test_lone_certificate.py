"""The closed-form certificate of one active constraint, in either region.

A minimizer with one constraint active is that constraint's own lowest
point with every other constraint strictly holding there, so it is the
highest of the group's own lowest points.  Every solve certifies that one
point with one multiplier and one stationarity and slackness residual
instead of the generic certificate, before it takes the generic ordered
tries of two and three active constraints; a pair or triple tries its
kernel with every member active before both.  It must return what the
generic certificate returns, bit for bit, and hand a point it cannot
certify to the KKT polish.  The engine's per-frame re-solve of an adopted
single is the common case.
"""

from __future__ import annotations

import itertools
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
from reachavoid.interception import KKT_TOLERANCE, UNBOUNDED, SolverFailure

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


def test_lone_ball_bottom_skips_the_ordered_tries(calls):
    # The ball's bottom lies above the member's lowest point, inside its body.
    evader = EvaderSpec((0.0, 0.0, 1.0), 1.0)
    pursuer = PursuerSpec((0.5, 0.0, 1.5), 1.2, 0.1)
    result = solve_interception((0,), evader, [pursuer],
                                Ball(evader.position, 1.2))
    assert result.region_active and result.active_set == ()
    assert calls["_direct"] == 0 and calls["_certify"] == 0
    assert calls["_solve_single"] == 1


def test_lone_member_with_a_binding_ball_takes_the_ordered_tries(calls):
    # The member and the ball both bind: no own lowest point certifies.
    evader = EvaderSpec((0.0, 0.0, 1.0), 1.0)
    pursuer = PursuerSpec((0.5, 0.0, 0.6), 1.1, 0.1)
    result = solve_interception((0,), evader, [pursuer],
                                Ball(evader.position, 1.2))
    assert result.region_active and result.active_set == (0,)
    assert calls["_direct"] == 1
    # _direct reads the member's lowest point that the lone test found.
    assert calls["_solve_single"] == 1
    # A ball centred on the evader has near = far = R, and the pair's
    # closed form finds its root in that zero-width range: no polish.
    assert calls["_polished"] == 0
    assert result.kkt_residual <= KKT_TOLERANCE


def _centred_ball_poses(count: int):
    """Seeded single-pursuer poses in a ball centred on the evader that
    reaches 0.2-1 below the exit plane, the pursuer 0.3-0.9 of its radius
    from the evader."""
    rng = random.Random("centred-ball")
    for _ in range(count):
        height = rng.uniform(0.5, 2.5)
        centre = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), height)
        radius = height + rng.uniform(0.2, 1.0)
        offset = [rng.gauss(0.0, 1.0) for _ in range(3)]
        distance = rng.uniform(0.3, 0.9) * radius / math.hypot(*offset)
        position = tuple(c + distance * u for c, u in zip(centre, offset))
        yield (PursuerSpec(position, rng.uniform(1.05, 3.0),
                           rng.uniform(0.0, 0.2) * distance),
               EvaderSpec(centre, 1.0), Ball(centre, radius))


def test_member_and_centred_ball_binding_together_skip_the_polish(calls):
    # The pair's range [R, R] has zero width, and its closed-form root can
    # land an ulp off R: _real_roots returns R itself when the quadratic
    # vanishes there to rounding.
    binding = 0
    for pursuer, evader, region in _centred_ball_poses(400):
        result = solve_interception((0,), evader, [pursuer], region)
        if result.region_active and result.active_set == (0,):
            binding += 1
            assert result.kkt_residual <= KKT_TOLERANCE
    assert binding >= 20 and calls["_polished"] == 0, (binding, calls)


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


def _generic_single(group):
    """The first own lowest point of ``group`` that the generic certificate
    certifies with that constraint alone active, as ``_lone`` returns it,
    or None."""
    for j, c in enumerate(group):
        certificate = interception._certify(group, c.lowest(), (j,))
        if certificate is not None:
            return (c.lowest(), *certificate)
    return None


def test_lone_ball_certificate_matches_the_generic_one_bit_for_bit():
    paths = Counter()
    for pursuer, evader, region in _lone_ball_corpus():
        group = interception._program((0,), evader, [pursuer], region)
        found = (_generic_single(group) or interception._direct(group)
                 or interception._polished(group))
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
        if interception._lone(fresh) is None:
            paths["ordered tries"] += 1
        elif result.region_active:
            paths["ball bottom"] += 1
        else:
            paths["lone member"] += 1
        paths["binding ball"] += result.region_active
    assert paths["lone member"] >= 100 and paths["binding ball"] >= 100, paths
    assert paths["ball bottom"] >= 1 and paths["ordered tries"] >= 100, paths


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


def _low_balls():
    """One to three pursuers in a ball of radius 0.5 to 2 above an evader
    half a radius below its centre, so that for slow pursuers the ball's
    bottom lies inside their bodies."""
    rng = random.Random("low-balls")
    for k in range(150):
        radius = rng.uniform(0.5, 2.0)
        centre = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                  rng.uniform(0.5, 0.9) * radius)
        evader = EvaderSpec(
            (centre[0], centre[1], centre[2] - 0.5 * radius), 1.0)
        pursuers = []
        for _ in range(1 + k % 3):
            up = (rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0),
                  abs(rng.gauss(0.0, 1.0)) + 0.5)
            scale = 0.8 * radius / math.hypot(*up)
            pursuers.append(PursuerSpec(
                tuple(c + scale * u for c, u in zip(centre, up)),
                rng.uniform(1.05, 4.0), rng.uniform(0.0, 0.2) * radius))
        yield (tuple(range(len(pursuers))), evader, pursuers,
               Ball(centre, radius))


def _single_active_corpus():
    """``(members, evader, pursuers, region)`` groups of one to three
    members: the degenerate corpus, the lone poses of
    :func:`test_lone_certificate_matches_the_generic_one_bit_for_bit`, the
    lone ball corpus, :func:`_low_balls` and every coalition of
    ``random_scenario(0…4)`` with up to six pursuers, unbounded and in a
    radius-4.5 ball."""
    for regime in test_degenerate.REGIMES:
        yield from test_degenerate.corpus(regime)
    rng = random.Random(41)
    for k in range(1200):
        scale = 1e3 if (k // len(REGIMES)) % 2 else 1.0
        pursuer, evader = oracles.lone_pose(rng, REGIMES[k % len(REGIMES)], scale)
        yield (0,), evader, [pursuer], UNBOUNDED
    for pursuer, evader, region in _lone_ball_corpus():
        yield (0,), evader, [pursuer], region
    yield from _low_balls()
    for seed in range(5):
        for region in (UNBOUNDED, Ball((0.0, 0.0, 1.0), 4.5)):
            scenario = random_scenario(seed, max_pursuers=6, region=region)
            pursuers = scenario.pursuers
            for evader in scenario.evaders:
                for size in (1, 2, 3):
                    for members in itertools.combinations(range(len(pursuers)),
                                                          size):
                        yield members, evader, pursuers, region


def test_only_the_highest_own_lowest_point_certifies_alone():
    # A single-active minimizer is its constraint's own lowest point, above
    # every other one, so the generic certificate grants one constraint
    # alone at no other own lowest point, and _lone, which tries only the
    # highest, returns what the generic certificate gives there.
    seen = Counter()
    for members, evader, pursuers, region in _single_active_corpus():
        group = interception._program(members, evader, pursuers, region)
        lows = [c.lowest() for c in group]
        top = max(range(len(group)), key=lambda j: lows[j][2])
        certificates = {j: interception._certify(group, lows[j], (j,))
                        for j in range(len(group))}
        certified = [j for j, found in certificates.items() if found is not None]
        assert certified in ([], [top]), (members, evader, pursuers, region)
        expected = (lows[top], *certificates[top]) if certified else None
        # repr also tells 0.0 from -0.0.
        assert repr(interception._lone(group)) == repr(expected)
        if certified:
            seen["ball" if top == len(members) else "member", len(group) > 1,
                 top > 0] += 1
        else:
            seen["none"] += 1
    for key in (("member", False, False), ("member", True, False),
                ("member", True, True), ("ball", True, True), "none"):
        assert seen[key] >= 20, seen
