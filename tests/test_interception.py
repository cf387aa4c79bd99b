import dataclasses
import itertools
import math
import random
import re

import numpy as np
import pytest

from reachavoid import (
    AssumptionViolation,
    Ball,
    EvaderSpec,
    GameKind,
    PursuerSpec,
    SolverFailure,
    classify_kind,
    classify_result,
    potential,
    solve_interception,
    validate_coalition,
)
from reachavoid.interception import (
    ACTIVE_TOLERANCE,
    UNBOUNDED,
    _certify,
    _certify_at,
    _Form,
    _gram_multipliers,
    _program,
    _real_roots,
)
from reachavoid.matching import _sphere_low_point

import oracles
from barrier import barrier_reference
from lemmas import (
    reduce_coalition,
    triple_candidates,
)
from test_degenerate import KEPT, corpus as degenerate_corpus

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
    # Python and numpy integers are indices; bools, floats and strings are
    # refused by value rather than truncated.
    got = validate_coalition((np.int64(0), np.int32(2)), 5)
    assert got == (0, 2) and all(type(i) is int for i in got)
    for bad in (1.7, True, "1", np.float64(1.0), np.True_):
        with pytest.raises(ValueError, match=f"got {re.escape(repr(bad))}$"):
            validate_coalition((bad,))
    with pytest.raises(ValueError, match="got 0.9$"):
        solve_interception((0.9,), E_AXIS, [P_AXIS])


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
        candidates = triple_candidates((0, 1, 2), evader, pursuers)
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


def test_triple_candidates_of_coplanar_axes_lie_on_every_boundary():
    # With the evader and the pursuers in one plane the three boundaries
    # still meet in at most four points, each on all three of them.
    seen = 0
    for members, evader, pursuers, _ in degenerate_corpus("coplanar"):
        if len(members) != 3:
            continue
        candidates = triple_candidates(members, evader, pursuers)
        assert len(candidates) <= 4
        for candidate in candidates:
            for p in pursuers:
                assert abs(potential(p, evader, candidate)) <= 1e-7
        seen += len(candidates)
    assert seen >= 10, seen
    # Seed-8 coplanar draw 491 binds all three members: the lowest
    # candidate is the interception point.
    (members, evader, pursuers, _), active_set = KEPT[2]
    assert active_set == (0, 1, 2)
    best = min(triple_candidates(members, evader, pursuers), key=lambda c: c[2])
    result = solve_interception(members, evader, pursuers)
    assert math.dist(best, result.point) <= 1e-9
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


def test_certificate_refuses_an_active_constraint_off_its_boundary():
    # Two pursuers mirrored about the evader's vertical: the pair certifies
    # with both active, and 1e-5 higher both potentials read 1.6e-5.
    pursuers = [PursuerSpec((1, 0, 1), 1.3, 0.1), PursuerSpec((-1, 0, 1), 1.3, 0.1)]
    evader = EvaderSpec((0, 0, 2), 1.0)
    group = _program((0, 1), evader, pursuers, UNBOUNDED)
    result = solve_interception((0, 1), evader, pursuers)
    y = tuple(x - e for x, e in zip(result.point, evader.position))
    assert _certify(group, y, (0, 1)) is not None
    assert _certify(group, (y[0], y[1], y[2] + 1e-5), (0, 1)) is None
    # Just below the evader both constraints strictly hold: with no active
    # constraint there are no multipliers, so nothing is certified.
    below = (0.0, 0.0, -0.01)
    assert all(c.value(below) > ACTIVE_TOLERANCE for c in group)
    assert _certify(group, below, ()) is None
    assert _certify_at(group, below) is None


def test_classify_result_refuses_an_exit_point_outside_the_evasion_space():
    pursuers = [PursuerSpec((0, 0, 1), 2.0, 0.1)]
    evader = EvaderSpec((0, 0, 2), 1.0)
    ball = Ball((0, 0, 1), 4.5)
    result = solve_interception((0,), evader, pursuers, ball)
    assert classify_result(result, evader, pursuers, ball) is GameKind.PURSUIT_WINS
    # The segment from the evader to (3, 0, -1) crosses z = 0 at (2, 0, 0),
    # which the pursuer reaches first.
    forged = dataclasses.replace(result, point=(3.0, 0.0, -1.0), value=-1.0)
    with pytest.raises(SolverFailure,
                       match="negative optimal altitude without a reachable exit point"):
        classify_result(forged, evader, pursuers, ball)


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


def test_solves_build_results_as_init_does():
    # _result skips the frozen __init__; a single, a pair and a triple with
    # every member active, and a single whose ball alone binds.
    pursuers, evader = tetra_pose()
    ball_solve = solve_interception(
        (0,), EvaderSpec((0, 0, 1.2), 1.0), [PursuerSpec((0, 0, 2.8), 1.2)],
        Ball(center=(0, 0, 1.0), radius=2.0))
    assert ball_solve.region_active and ball_solve.active_set == ()
    for members in ((0,), (0, 1), (0, 1, 2)):
        result = solve_interception(members, evader, pursuers)
        assert result.active_set == members
        oracles.assert_same_as_init(result)
    oracles.assert_same_as_init(ball_solve)


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


def test_gram_multipliers_refuse_gradients_of_rank_two():
    # Three or four gradients in one plane, not all parallel: the Gram
    # system is singular and no fit is returned, rather than one of its
    # rounding.
    rng = random.Random(37)
    for size in (3, 4):
        for _ in range(200):
            a, b = (tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(2))
            grads = [a, b]
            for _ in range(size - 2):
                s, t = rng.uniform(-1, 1), rng.uniform(-1, 1)
                grads.append(tuple(s * x + t * y for x, y in zip(a, b)))
            rng.shuffle(grads)
            assert _gram_multipliers(grads) is None, grads
    a, b = (0.3, -0.8, 0.5), (0.9, 0.2, -0.4)
    assert _gram_multipliers(
        [a, b, tuple(0.3 * x - 0.7 * y for x, y in zip(a, b))]) is None


def _dropped(form):
    """Centre and radius of ``k ||y||^2 - 2 y . q + m = 0``."""
    centre = np.array(form.q) / form.k
    return centre, math.sqrt(centre @ centre - form.m / form.k)


def _circle_sweep(fa, fb, steps=3600):
    """``steps`` points spread evenly around the circle where the two
    forms' dropped spheres meet."""
    (ca, ra), (cb, rb) = _dropped(fa), _dropped(fb)
    nu = (cb - ca) / np.linalg.norm(cb - ca)
    t = ((cb - ca) @ nu + (ra * ra - rb * rb) / ((cb - ca) @ nu)) / 2.0
    centre = ca + t * nu
    u = np.cross(nu, (1.0, 0.0, 0.0) if abs(nu[0]) < 0.9 else (0.0, 1.0, 0.0))
    u /= np.linalg.norm(u)
    v = np.cross(nu, u)
    theta = np.linspace(0.0, 2.0 * math.pi, steps, endpoint=False)
    return centre + math.sqrt(ra * ra - t * t) * (
        np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * v)


def _sphere_pairs():
    """Seeded pairs of member forms, and of a member's form and the ball's,
    from random poses."""
    rng = random.Random(31)
    ball = Ball(center=(0.0, 0.0, 1.0), radius=5.0)
    pairs = []
    for _ in range(40):
        pursuers, evader = oracles.random_pose(rng, 2)
        a, b = _program((0, 1), evader, pursuers, UNBOUNDED)
        pairs.append((a.shape(), b.shape()))
        member, sphere = _program((0,), evader, pursuers, ball)
        pairs.append((member.shape(), sphere.shape()))
    return pairs


def _sphere_form(centre, radius):
    """A form whose dropped sphere is ``(centre, radius)``."""
    return _Form(centre, 1.0, 0.0, sum(x * x for x in centre) - radius * radius,
                 0.0, math.inf)


def test_real_roots_match_numpy_on_seeded_polynomials():
    rng = random.Random(17)
    for degree in (2, 3, 4):
        for _ in range(300):
            coeffs = [rng.uniform(-1.0, 1.0) for _ in range(degree + 1)]
            roots = np.roots(coeffs)
            if min(abs(a - b) for a, b in itertools.combinations(roots, 2)) < 1e-6:
                continue  # a near-double root has no sign change to find
            expected = sorted(r.real for r in roots
                              if r.imag == 0.0 and -2.0 <= r.real <= 2.0)
            got = _real_roots(coeffs, -2.0, 2.0)
            assert got == sorted(got)
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-12), coeffs
    # A quadratic without its square term, or a line, has the line's root.
    assert _real_roots([0.0, 2.0, -1.0], 0.0, 3.0) == [0.5]
    assert _real_roots([2.0, -1.0], 0.0, 3.0) == [0.5]
    assert _real_roots([1.0, 0.0, 1.0], -3.0, 3.0) == []
    assert _real_roots([1.0], -3.0, 3.0) == []


def test_sphere_low_point_is_the_lowest_point_of_both_dropped_spheres():
    met = {True: 0, False: 0}
    for fa, fb in _sphere_pairs():
        y = _sphere_low_point(fa, fb)
        if y is None:
            continue
        met[fb.k == 1.0] += 1
        y = np.array(y)
        for form in (fa, fb):
            centre, radius = _dropped(form)
            scale = (np.linalg.norm(centre) + radius) ** 2
            assert abs((y - centre) @ (y - centre) - radius * radius) <= 1e-12 * scale
        sweep = _circle_sweep(fa, fb)
        assert sweep[:, 2].min() >= y[2] - 1e-12 * np.linalg.norm(y)
        # The sweep's lowest point is the point itself, to its step.
        assert sweep[:, 2].min() - y[2] <= 1e-5 * np.linalg.norm(y)
    # Most seeded pairs of each kind meet in a circle.
    assert met[False] >= 20 and met[True] >= 10, met


def test_sphere_low_point_is_none_unless_the_spheres_meet_in_a_tilted_circle():
    disjoint = (_sphere_form((0.0, 0.0, -1.0), 1.0), _sphere_form((0.0, 3.0, -5.0), 1.0))
    nested = (_sphere_form((0.0, 0.0, -1.0), 3.0), _sphere_form((0.5, 0.0, -1.5), 0.5))
    concentric = (_sphere_form((0.0, 0.0, -1.0), 3.0), _sphere_form((0.0, 0.0, -1.0), 2.0))
    for fa, fb in (disjoint, nested, concentric):
        assert _sphere_low_point(fa, fb) is None
        assert _sphere_low_point(fb, fa) is None
    # Centres one above the other: the circle is horizontal and every point
    # of it is lowest.
    horizontal = (_sphere_form((0.5, -0.25, -1.0), 2.0),
                  _sphere_form((0.5, -0.25, -2.0), 2.0))
    assert _sphere_low_point(*horizontal) is None
