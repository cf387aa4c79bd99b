import math
import random

import numpy as np
import pytest

from reachavoid import (
    AssumptionViolation,
    Ball,
    EvaderSpec,
    GameKind,
    PursuerSpec,
    classify_kind,
    classify_result,
    potential,
    solve_interception,
    validate_coalition,
)
from reachavoid.interception import UNBOUNDED, _gram_multipliers

import oracles
from barrier import barrier_reference
from lemmas import (
    CoplanarConfigurationError,
    reduce_coalition,
    triple_candidates,
)

P_AXIS = PursuerSpec(position=(0, 0, 1), speed=2.0, capture_radius=0.0)
P_AXIS_R = PursuerSpec(position=(0, 0, 1), speed=2.0, capture_radius=0.5)
E_AXIS = EvaderSpec(position=(0, 0, 3), speed=1.0)


def tetra_pose(height=2.0, ring=1.5, speed=2.0):
    pursuers = [
        PursuerSpec(
            position=(ring * math.cos(2 * math.pi * k / 3),
                      ring * math.sin(2 * math.pi * k / 3), 0.0),
            speed=speed,
        )
        for k in range(3)
    ]
    return pursuers, EvaderSpec(position=(0, 0, height), speed=1.0)


def test_validate_coalition():
    assert validate_coalition([0, 2], 5) == (0, 2)
    with pytest.raises(ValueError):
        validate_coalition([])
    with pytest.raises(ValueError):
        validate_coalition([2, 1])
    with pytest.raises(ValueError):
        validate_coalition([0, 0])
    with pytest.raises(ValueError):
        validate_coalition([0, 1, 2, 3])
    with pytest.raises(ValueError):
        validate_coalition([0, 7], 5)
    with pytest.raises(ValueError):
        validate_coalition([-1])


def test_ball_validation():
    with pytest.raises(ValueError):
        Ball(center=(0, 0, 5), radius=2.0)  # no exit disk
    with pytest.raises(ValueError):
        Ball(center=(0, 0, 0), radius=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="radius"):
            Ball(center=(0, 0, 0), radius=bad)


def test_collinear_fixture_no_radius():
    # Apollonius sphere with center (0,0,11/3) and radius 4/3; the grid
    # oracle agrees with the axis bisection.
    result = solve_interception((0,), E_AXIS, [P_AXIS])
    assert np.allclose(result.point, (0, 0, 7.0 / 3.0), atol=1e-9)
    assert result.value == pytest.approx(7.0 / 3.0, abs=1e-9)
    assert result.active_set == (0,)
    assert not result.region_active
    assert result.multipliers[0] == pytest.approx(-1.0 / 3.0, abs=1e-9)
    expected = 3.0 - oracles.bisect_boundary(P_AXIS, E_AXIS, (0, 0, -1))
    assert result.value == pytest.approx(expected, abs=1e-12)


def test_collinear_fixture_with_radius():
    result = solve_interception((0,), E_AXIS, [P_AXIS_R])
    assert np.allclose(result.point, (0, 0, 2.5), atol=1e-9)
    assert result.value == pytest.approx(2.5, abs=1e-9)


def test_inactive_ball_changes_nothing():
    big = Ball(center=(0, 0, 3), radius=10.0)
    plain = solve_interception((0,), E_AXIS, [P_AXIS])
    bounded = solve_interception((0,), E_AXIS, [P_AXIS], big)
    assert math.dist(plain.point, bounded.point) <= 1e-9
    assert not bounded.region_active


def test_value_matches_grid_oracle():
    rng = random.Random(31)
    for n in (1, 2, 3):
        pursuers, evader = oracles.random_pose(rng, n)
        result = solve_interception(tuple(range(n)), evader, pursuers)
        grid = oracles.grid_min_altitude(tuple(range(n)), evader, pursuers)
        assert result.value <= grid + 1e-9
        assert result.value == pytest.approx(grid, abs=1e-5)


def test_kkt_certificates_random_poses():
    rng = random.Random(17)
    for k in range(150):
        n = 1 + k % 3
        pursuers, evader = oracles.random_pose(rng, n)
        result = solve_interception(tuple(range(n)), evader, pursuers)
        assert result.kkt_residual <= 1e-8
        assert result.slackness_residual <= 1e-8
        assert all(m <= 1e-10 for m in result.multipliers)
        point = result.point
        for i in range(n):
            assert potential(pursuers[i], evader, point) >= -1e-8


def test_uniqueness_from_warm_starts():
    rng = random.Random(23)
    for k in range(10):
        n = 1 + k % 3
        pursuers, evader = oracles.random_pose(rng, n)
        reference = solve_interception(tuple(range(n)), evader, pursuers)
        for _ in range(20):
            while True:
                start = tuple(
                    c + rng.uniform(-0.4, 0.4) for c in evader.position
                )
                try:
                    resolved = barrier_reference(
                        tuple(range(n)), evader, pursuers, UNBOUNDED, start
                    )
                    break
                except ValueError:
                    continue
            assert math.dist(resolved.point, reference.point) <= 1e-6


def test_infeasible_warm_start_rejected():
    with pytest.raises(ValueError):
        barrier_reference((0,), E_AXIS, [P_AXIS], UNBOUNDED, (0, 0, 100.0))


def test_monotone_refinement():
    rng = random.Random(37)
    for _ in range(50):
        pursuers, evader = oracles.random_pose(rng, 3)
        v1 = solve_interception((0,), evader, pursuers).value
        v12 = solve_interception((0, 1), evader, pursuers).value
        v123 = solve_interception((0, 1, 2), evader, pursuers).value
        assert v12 >= v1 - 1e-9
        assert v123 >= v12 - 1e-9


def test_reduce_drops_inactive_member():
    pursuers = [P_AXIS, PursuerSpec(position=(5, 5, 4), speed=2.0)]
    assert reduce_coalition((0, 1), E_AXIS, pursuers) == (0,)


def test_reduce_singleton_is_identity():
    assert reduce_coalition((0,), E_AXIS, [P_AXIS]) == (0,)


def test_reduce_keeps_full_triple_and_matches_quartic():
    pursuers, evader = tetra_pose()
    full = solve_interception((0, 1, 2), evader, pursuers)
    assert full.active_set == (0, 1, 2)
    reduced = reduce_coalition((0, 1, 2), evader, pursuers)
    assert reduced == (0, 1, 2)
    candidates = triple_candidates((0, 1, 2), evader, pursuers)
    best = min(candidates, key=lambda c: c[2])
    assert math.dist(best, full.point) <= 1e-6


def test_reduce_handles_dependent_gradients():
    # Both boundaries pass through (0,0,7/3) with gradients along the axis,
    # so the active system is dependent and the higher index is dropped.
    second = PursuerSpec(position=(0, 0, 0), speed=3.0, capture_radius=1.0 / 3.0)
    pursuers = [P_AXIS, second]
    result = solve_interception((0, 1), E_AXIS, pursuers)
    assert result.value == pytest.approx(7.0 / 3.0, abs=1e-8)
    reduced = reduce_coalition((0, 1), E_AXIS, pursuers)
    assert len(reduced) == 1
    again = solve_interception(reduced, E_AXIS, pursuers)
    assert math.dist(again.point, result.point) <= 1e-7


def test_reduction_agreement_random():
    rng = random.Random(41)
    for k in range(60):
        pursuers, evader = (
            oracles.ring_pose(rng) if k % 2 else oracles.random_pose(rng, 3)
        )
        full = solve_interception((0, 1, 2), evader, pursuers)
        assert len(full.active_set) <= 3
        reduced = reduce_coalition((0, 1, 2), evader, pursuers)
        sub = solve_interception(reduced, evader, pursuers)
        assert math.dist(sub.point, full.point) <= 1e-7


def test_triple_candidates_symmetric_ring():
    pursuers, evader = tetra_pose()
    candidates = triple_candidates((0, 1, 2), evader, pursuers)
    assert 1 <= len(candidates) <= 4
    for candidate in candidates:
        # The symmetry axis is fixed by the three-fold rotation.
        assert math.hypot(candidate[0], candidate[1]) <= 1e-8
        for p in pursuers:
            assert abs(potential(p, evader, candidate)) <= 1e-7


def test_triple_candidates_substitution_random():
    rng = random.Random(43)
    seen = 0
    for _ in range(40):
        pursuers, evader = oracles.ring_pose(rng)
        try:
            candidates = triple_candidates((0, 1, 2), evader, pursuers)
        except CoplanarConfigurationError:
            continue
        assert len(candidates) <= 4
        for candidate in candidates:
            for p in pursuers:
                assert abs(potential(p, evader, candidate)) <= 1e-7
        seen += len(candidates)
    assert seen > 0


def test_triple_candidates_empty_when_boundaries_nested():
    # Pursuers at increasing range on one side give strictly nested
    # evasion bodies, so the three boundaries share no point; the grid
    # certificate bounds the radial spread away from zero.
    pursuers = [
        PursuerSpec(position=(10, 0.5, 3.0), speed=2.0),
        PursuerSpec(position=(13, -0.7, 3.4), speed=2.0),
        PursuerSpec(position=(16, 0.3, 2.6), speed=2.0),
    ]
    evader = EvaderSpec(position=(0, 0, 3), speed=1.0)
    assert triple_candidates((0, 1, 2), evader, pursuers) == []
    spread = min(
        oracles.boundary_spread((0, 1, 2), evader, pursuers, e)
        for e in oracles.fibonacci_directions(4000)
    )
    assert spread > 1e-3


def test_triple_candidates_rejects_coplanar():
    pursuers = [
        PursuerSpec(position=(1, 0, 1), speed=2.0),
        PursuerSpec(position=(-1, 0, 1), speed=2.0),
        PursuerSpec(position=(0, 0, 0.5), speed=2.0),
    ]
    evader = EvaderSpec(position=(0, 0, 3), speed=1.0)
    with pytest.raises(CoplanarConfigurationError):
        triple_candidates((0, 1, 2), evader, pursuers)
    with pytest.raises(ValueError):
        triple_candidates((0, 1), evader, pursuers)


@pytest.mark.parametrize("pursuer_z,evader_z,expected", [
    (1.0, 3.0, GameKind.PURSUIT_WINS),
    (2.0, 1.0, GameKind.TIE),
    (3.0, 1.0, GameKind.EVADER_WINS),
])
def test_classify_collinear(pursuer_z, evader_z, expected):
    pursuer = PursuerSpec(position=(0, 0, pursuer_z), speed=2.0)
    evader = EvaderSpec(position=(0, 0, evader_z), speed=1.0)
    assert classify_kind((0,), evader, [pursuer]) is expected


def test_classify_collinear_values():
    tie = solve_interception(
        (0,), EvaderSpec(position=(0, 0, 1), speed=1.0),
        [PursuerSpec(position=(0, 0, 2), speed=2.0)],
    )
    assert abs(tie.value) <= 1e-7
    lose = solve_interception(
        (0,), EvaderSpec(position=(0, 0, 1), speed=1.0),
        [PursuerSpec(position=(0, 0, 3), speed=2.0)],
    )
    assert lose.value == pytest.approx(-1.0, abs=1e-9)


def test_classify_result_matches_classify_kind():
    rng = random.Random(47)
    for _ in range(20):
        pursuers, evader = oracles.random_pose(rng, 2)
        result = solve_interception((0, 1), evader, pursuers)
        assert classify_result(result, evader, pursuers) is classify_kind(
            (0, 1), evader, pursuers
        )


def test_ball_bottom_only_region_active():
    pursuer = PursuerSpec(position=(0, 0, 2.8), speed=1.2)
    evader = EvaderSpec(position=(0, 0, 1.2), speed=1.0)
    ball = Ball(center=(0, 0, 1.0), radius=2.0)
    result = solve_interception((0,), evader, [pursuer], ball)
    assert result.value == pytest.approx(-1.0, abs=1e-9)
    assert result.active_set == ()
    assert result.region_active
    assert result.region_multiplier == pytest.approx(-0.25, abs=1e-9)
    assert classify_kind((0,), evader, [pursuer], ball) is GameKind.EVADER_WINS
    assert reduce_coalition((0,), evader, [pursuer], ball) == (0,)


def test_ball_requires_players_inside():
    outside = PursuerSpec(position=(0, 0, -8), speed=2.0)
    evader = EvaderSpec(position=(0, 0, 1.2), speed=1.0)
    ball = Ball(center=(0, 0, 1.0), radius=2.0)
    with pytest.raises(ValueError):
        solve_interception((0,), evader, [outside], ball)


def test_bounded_certificates_random():
    rng = random.Random(53)
    ball = Ball(center=(0, 0, 1.5), radius=4.0)
    solved = 0
    while solved < 40:
        pursuers, evader = oracles.random_pose(rng, 2)
        if ball.g(evader.position) < 0.2 or any(
            ball.g(p.position) < 0.0 for p in pursuers
        ):
            continue
        result = solve_interception((0, 1), evader, pursuers, ball)
        assert result.kkt_residual <= 1e-8
        assert result.slackness_residual <= 1e-8
        assert result.region_multiplier <= 1e-10
        unbounded = solve_interception((0, 1), evader, pursuers)
        if not result.region_active:
            assert math.dist(result.point, unbounded.point) <= 1e-7
        else:
            assert result.value >= unbounded.value - 1e-9
        solved += 1


def test_assumption_errors():
    slow = PursuerSpec(position=(0, 0, 1), speed=0.9)
    with pytest.raises(AssumptionViolation):
        solve_interception((0,), E_AXIS, [slow])
    touching = PursuerSpec(position=(0, 0, 2.8), speed=2.0, capture_radius=0.5)
    with pytest.raises(Exception):
        solve_interception((0,), E_AXIS, [touching])


def test_gram_multipliers_are_clamped_minimum_norm_fit():
    # Four gradients of rank 3 take the Gram-system branch; its multipliers
    # are the minimum-norm least-squares fit of (0, 0, -1), clamped to <= 0.
    rng = random.Random(29)
    for _ in range(200):
        grads = [tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(4)]
        matrix = np.array(grads).T
        assert np.linalg.matrix_rank(matrix) == 3
        fit = np.linalg.lstsq(matrix, (0.0, 0.0, -1.0), rcond=None)[0]
        expected = np.minimum(fit, 0.0)
        assert np.allclose(_gram_multipliers(grads), expected,
                           rtol=1e-9, atol=1e-9 * np.abs(fit).max())
    assert _gram_multipliers([]) is None
