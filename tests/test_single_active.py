"""The direct paths of the interception solver.

A default solve first looks for one, two or three active constraints
(members or the ball sphere) whose common lowest point satisfies every other
constraint strictly; that point is certified with Gram-system multipliers
and returned without the KKT polish.  Only when none certifies does it
polish active-set guesses from the same kernels' points.  The tests'
barrier + polish reference (``barrier.barrier_reference``) shares none of
these kernels, so the two can be compared on the same input; the package
itself defines no barrier.
"""

from __future__ import annotations

import importlib
import inspect
import math
import pkgutil
import random
from collections import Counter

import pytest

import reachavoid
from reachavoid import (
    Ball,
    EvaderSpec,
    PursuerSpec,
    solve_interception,
)
from reachavoid import interception
from reachavoid.interception import KKT_TOLERANCE, UNBOUNDED

import lemmas
import oracles
from barrier import barrier_reference
from test_degenerate import corpus as degenerate_corpus

AGREEMENT = 1e-7


@pytest.fixture
def calls(monkeypatch):
    """Counts of polish hypotheses tried, polish runs, angle-kernel
    evaluations, pair seeds climbed onto their curve and single lowest
    points."""
    counts = Counter()

    def counted(name):
        original = getattr(interception, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(interception, name, wrapper)

    counted("_polish_hypothesis")
    counted("_polish_kkt")
    counted("_section_altitude")
    counted("_climb")
    counted("_solve_single")
    return counts


def polishes(calls, members, evader, pursuers, region=UNBOUNDED) -> int:
    """Polish hypotheses a default solve tries; 0 on every direct path."""
    before = calls["_polish_hypothesis"]
    solve_interception(members, evader, pursuers, region)
    return calls["_polish_hypothesis"] - before


def assert_paths_agree(members, evader, pursuers, region=UNBOUNDED):
    """Solve by default and by the reference from the evader position;
    return the default."""
    fast = solve_interception(members, evader, pursuers, region)
    slow = barrier_reference(members, evader, pursuers, region, evader.position)
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
    distance, and every fifth inside a ball; then ``size // 2`` cases of
    :func:`symmetric_corpus`."""
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
    yield from symmetric_corpus(rng, size // 2)


def _around(evader: EvaderSpec, angle: float, tilt: float, distance: float):
    """The point ``distance`` from the evader at azimuth ``angle`` and
    ``tilt`` below the horizontal."""
    axis = (math.cos(angle) * math.cos(tilt), math.sin(angle) * math.cos(tilt),
            -math.sin(tilt))
    return tuple(e + distance * c for e, c in zip(evader.position, axis))


def symmetric_corpus(rng: random.Random, size: int):
    """Nearly alike pursuers spread evenly around the evader, so that several
    constraints bind at once: pairs in a vertical plane through the evader
    and rings of three, every fifth barely faster.  Two cases in three that
    are not barely faster get a ball whose lowest point sits just above the
    unbounded minimizer, shifted sideways so that its sphere cuts the edge
    where the boundaries meet; the scene is moved down so that the ball
    meets the exit plane.  Barely faster groups get no ball: theirs would
    reach hundreds of units down (see test_forced_barrier_on_large_ball,
    where the two paths agree only to about 1e-8)."""
    for k in range(size):
        n = 2 + k % 2
        evader = EvaderSpec(
            (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.5, 3.0)),
            rng.uniform(0.8, 1.2),
        )
        base = rng.uniform(0.0, 2.0 * math.pi)
        tilt = rng.uniform(-0.5, 1.2)
        distance = rng.uniform(1.0, 2.0)
        barely_faster = k % 5 == 1
        alpha = 1.0 + rng.uniform(1e-4, 0.01) if barely_faster else rng.uniform(1.5, 3.0)
        fraction = rng.choice([0.0, 0.3, 0.95])
        pursuers = []
        for j in range(n):
            angle = base + 2.0 * math.pi * j / n
            own_tilt = tilt
            if n == 3:
                angle += rng.uniform(-0.3, 0.3)
                own_tilt += rng.uniform(-0.2, 0.2)
            d = distance * rng.uniform(0.9, 1.1)
            speed = (1.0 + (alpha - 1.0) * rng.uniform(0.95, 1.05)) * evader.speed
            pursuers.append(PursuerSpec(_around(evader, angle, own_tilt, d), speed,
                                        d * fraction * rng.uniform(0.95, 1.0)))
        members = tuple(range(n))
        region = UNBOUNDED
        if k % 3 != 0 and not barely_faster:
            low = solve_interception(members, evader, pursuers).point
            bottom = low[2] + rng.uniform(0.005, 0.05)
            side = rng.uniform(0.1, 0.5)
            centre = (low[0] - side * math.sin(base), low[1] + side * math.cos(base))
            players = [evader.position] + [p.position for p in pursuers]
            if min(point[2] for point in players) <= bottom:
                yield members, evader, pursuers, region
                continue
            # The smallest ball with this lowest point that holds a player
            # has radius (across^2 + above^2) / (2 above).
            radius = max(
                1.05 * ((x - centre[0]) ** 2 + (y - centre[1]) ** 2 + (z - bottom) ** 2)
                / (2.0 * (z - bottom))
                for x, y, z in players)
            shift = -0.1 - bottom
            evader = EvaderSpec(_shifted(evader.position, shift), evader.speed)
            pursuers = [PursuerSpec(_shifted(p.position, shift), p.speed,
                                    p.capture_radius) for p in pursuers]
            region = Ball((centre[0], centre[1], radius - 0.1), radius)
        yield members, evader, pursuers, region


def _shifted(point, dz: float):
    return (point[0], point[1], point[2] + dz)


def _vertical_plane(evader: EvaderSpec, pursuers) -> bool:
    """Whether the evader and two pursuers lie in one vertical plane."""
    a, b = (tuple(p - e for p, e in zip(q.position, evader.position))
            for q in pursuers)
    normal = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
              a[0] * b[1] - a[1] * b[0])
    return abs(normal[2]) <= 1e-9 * math.hypot(*normal)


def test_paths_agree_on_seeded_corpus(calls):
    seen = Counter()
    for members, evader, pursuers, region in corpus():
        before = calls.copy()
        direct = polishes(calls, members, evader, pursuers, region) == 0
        seen["fast", len(members)] += direct
        climbed = calls["_climb"] > before["_climb"]
        singles = calls["_solve_single"] - before["_solve_single"]
        result = assert_paths_agree(members, evader, pursuers, region)
        seen["multi-active"] += len(result.active_set) > 1
        seen["region-active"] += result.region_active
        seen["region-inactive"] += isinstance(region, Ball) and not result.region_active
        alpha = min(p.speed for p in pursuers) / evader.speed
        seen["barely-faster"] += alpha <= 1.01
        seen["zero-radius"] += any(p.capture_radius == 0.0 for p in pursuers)
        if direct:
            active = len(result.active_set) + result.region_active
            regime = {(2, False): "pair", (3, False): "triple",
                      (2, True): "member+ball", (3, True): "two members+ball"}
            if (active, result.region_active) in regime:
                seen[regime[active, result.region_active]] += 1
            if active == 1 and region is UNBOUNDED and all(
                    p.capture_radius == 0.0 for p in pursuers):
                # Singles are tried from the highest lowest point of their
                # l-dropped spheres, which for r = 0 are the bodies: the
                # first one tried is the one that certifies.
                assert singles == 1
                seen["first single certifies"] += len(members) > 1
            seen["seed outside range"] += climbed and active > 1
            seen["vertical-plane pair"] += (
                result.active_set == (0, 1) and not result.region_active
                and len(members) == 2 and _vertical_plane(evader, pursuers))
    for key in (("fast", 1), ("fast", 2), ("fast", 3), "multi-active",
                "region-active", "region-inactive", "barely-faster",
                "zero-radius", "pair", "triple", "member+ball",
                "two members+ball", "seed outside range",
                "vertical-plane pair", "first single certifies"):
        assert seen[key] >= 5, (key, seen)


def test_zero_radius_seed_is_the_answer(calls):
    # For r = 0 the body is the Apollonius sphere, whose lowest point is the
    # Newton seed: one evaluation at the seed suffices.
    rng = random.Random(11)
    for _ in range(20):
        evader = EvaderSpec((0.0, 0.0, 2.0), 1.0)
        pursuer = _pursuer(rng, evader, barely_faster=False)
        pursuer = PursuerSpec(pursuer.position, pursuer.speed, 0.0)
        calls.clear()
        solve_interception((0,), evader, [pursuer])
        assert calls["_section_altitude"] == 1
        assert calls["_polish_hypothesis"] == 0


# A capture radius of 0.99 of the distance puts this body's lowest point
# far from the Apollonius angle that seeds the single's Newton search.
FAR_SEED_EVADER = EvaderSpec((0.0, 0.0, 2.0), 1.0)
FAR_SEED_PURSUER = PursuerSpec(
    (0.12262577773376164, 0.1255002931952482, 0.545753320981457),
    1.0017662521178619, 0.9914435289717565)


def test_single_far_from_apollonius_seed_certifies(calls):
    evader, pursuer = FAR_SEED_EVADER, FAR_SEED_PURSUER
    assert polishes(calls, (0,), evader, [pursuer]) == 0
    assert assert_paths_agree((0,), evader, [pursuer]).active_set == (0,)


def section_arguments(q, alpha: float, r: float):
    """What ``_solve_single`` passes to ``_section_altitude`` after the angle
    for the member ``(q, alpha, r)``."""
    d = math.sqrt(sum(c * c for c in q))
    a2m1 = (alpha - 1.0) * (alpha + 1.0)
    return (math.hypot(q[0], q[1]), q[2], alpha * r, a2m1,
            a2m1 * (d * d - r * r))


def test_lower_half_circle_brackets_every_single():
    # _solve_single searches phi in (-pi/2, pi/2) without checking the ends:
    # the body strictly contains the evader, so the section's horizontal
    # points sit at the evader's altitude, where it slopes down and then up.
    rng = random.Random(23)
    far = FAR_SEED_PURSUER
    members = [(tuple(p - e for p, e in zip(far.position,
                                            FAR_SEED_EVADER.position)),
                far.speed, far.capture_radius)]
    for draw in range(3000):
        alpha = 1.0 + 10.0 ** rng.uniform(-6.0, 1.0)
        d = 10.0 ** rng.uniform(-2.0, 2.0)
        ratio = (0.0, rng.uniform(0.0, 0.99),
                 1.0 - 10.0 ** rng.uniform(-9.0, -1.0))[draw % 3]
        if draw % 10 < 2:
            # Vertical axis (qp = 0), pursuer above then below the evader.
            axis = (0.0, 0.0, 1.0 if draw % 10 == 0 else -1.0)
        else:
            axis = [rng.gauss(0.0, 1.0) for _ in range(3)]
            length = math.sqrt(sum(c * c for c in axis))
            axis = [c / length for c in axis]
        members.append((tuple(d * c for c in axis), alpha, ratio * d))
    for q, alpha, r in members:
        arguments = section_arguments(q, alpha, r)
        down = interception._section_altitude(-0.5 * math.pi, *arguments)[1]
        up = interception._section_altitude(0.5 * math.pi, *arguments)[1]
        assert down < 0.0 < up, (q, alpha, r, down, up)


# A barely faster pursuer whose body's lowest point sits near z = -1.2e4,
# where d_p and alpha*d_e are both about 1.2e4.
FAR_LOW_EVADER = EvaderSpec(
    (0.974083920916762, -0.8571461430218021, 2.0409641122544158), 1.0)
FAR_LOW_PURSUER = PursuerSpec(
    (-2.82390921181133, -2.589746585341727, 0.6797835441392379), 1.0001264, 0.0)


def test_barely_faster_far_low_point_certifies():
    # Evaluating f as the difference of the two distances left the
    # slackness at 1.7e-8, above the certificate tolerance.
    result = solve_interception((0,), FAR_LOW_EVADER, [FAR_LOW_PURSUER])
    assert result.value < -1e4
    assert result.kkt_residual <= KKT_TOLERANCE
    assert result.slackness_residual <= KKT_TOLERANCE


def test_barely_faster_far_low_point_lies_in_closure():
    # geometry.potential shares the solver's cancellation-free race
    # potential, so in_closure holds at the certified point; the difference
    # of the two distances read -3.6e-12 there, below -CLOSURE_TOLERANCE.
    result = solve_interception((0,), FAR_LOW_EVADER, [FAR_LOW_PURSUER])
    assert lemmas.in_closure((0,), FAR_LOW_EVADER, [FAR_LOW_PURSUER], result.point)


def test_second_active_member_certifies_directly(calls):
    # Pursuer 0 alone has its lowest point at (0, 0, 7/3); pursuer 1's speed
    # puts that point on its boundary too, so the point is right but the
    # active set has two members, which the pair path certifies.
    evader = EvaderSpec((0.0, 0.0, 3.0), 1.0)
    low = (0.0, 0.0, 7.0 / 3.0)
    second_position = (2.0, 0.0, 2.0)
    alpha = math.dist(low, second_position) / math.dist(low, evader.position)
    pursuers = [PursuerSpec((0.0, 0.0, 1.0), 2.0),
                PursuerSpec(second_position, alpha)]
    assert polishes(calls, (0, 1), evader, pursuers) == 0
    result = assert_paths_agree((0, 1), evader, pursuers)
    assert result.active_set == (0, 1)
    assert math.dist(result.point, low) <= 1e-9


def test_pair_both_strictly_active_certifies_directly(calls):
    pursuers = [PursuerSpec((1.0, 0.0, 1.0), 2.0),
                PursuerSpec((-1.0, 0.0, 1.0), 2.0)]
    evader = EvaderSpec((0.0, 0.0, 3.0), 1.0)
    assert polishes(calls, (0, 1), evader, pursuers) == 0
    result = assert_paths_agree((0, 1), evader, pursuers)
    assert result.active_set == (0, 1)
    assert all(m < -1e-3 for m in result.multipliers)


def test_active_ball_certifies_directly(calls):
    # The pursuer's lowest point (0, 0, -1) lies on the sphere of a ball
    # tilted so that its own lowest point is elsewhere: the point stands,
    # but the region is active there.
    evader = EvaderSpec((0.0, 0.0, 1.0), 1.0)
    pursuer = PursuerSpec((0.0, 0.0, 3.0), 2.0)
    radius = 2.5
    tilt = math.radians(30.0)
    ball = Ball((radius * math.sin(tilt), 0.0, -1.0 + radius * math.cos(tilt)),
                radius)
    assert polishes(calls, (0,), evader, [pursuer], ball) == 0
    result = assert_paths_agree((0,), evader, [pursuer], ball)
    assert result.region_active
    assert result.active_set == (0,)
    assert math.dist(result.point, (0.0, 0.0, -1.0)) <= 1e-9


def test_coaxial_and_dependent_pairs_fall_through(calls):
    # With the evader and both pursuers on one tilted line the two bodies
    # share their axis, so no pair frame exists and the polish from the
    # members' own lowest points solves it.
    evader = EvaderSpec((0.0, 0.0, 2.0), 1.0)
    axis = (math.cos(0.6), 0.3 * math.cos(0.6), math.sin(0.6))
    length = math.hypot(*axis)
    pursuers = [
        PursuerSpec(tuple(e + c / length for e, c in zip(evader.position, axis)),
                    2.0, 0.1),
        PursuerSpec(tuple(e - c / length for e, c in zip(evader.position, axis)),
                    2.0, 0.0),
    ]
    assert polishes(calls, (0, 1), evader, pursuers) >= 1
    assert assert_paths_agree((0, 1), evader, pursuers).active_set == (0, 1)

    # Both boundaries pass through (0, 0, 7/3) with gradients along the
    # vertical axis: the active gradients are dependent.
    evader = EvaderSpec((0.0, 0.0, 3.0), 1.0)
    pursuers = [PursuerSpec((0.0, 0.0, 1.0), 2.0),
                PursuerSpec((0.0, 0.0, 0.0), 3.0, 1.0 / 3.0)]
    calls.clear()
    assert polishes(calls, (0, 1), evader, pursuers) >= 1
    result = solve_interception((0, 1), evader, pursuers)
    assert math.dist(result.point, (0.0, 0.0, 7.0 / 3.0)) <= 1e-8


def _shed_to_first_member(calls, members, evader, pursuers, ball):
    """Polish the guess that constraints 0 and 1 bind, where only member 0
    does: constraint 1 must be shed and the point come out at (0, 0, 7/3).

    The polish works in the evader's frame, so the points and the ball's
    centre are passed relative to the evader, in the constraint group a
    solve builds: the members in order, then the ball.  The ball is
    appended by hand, since a solve would reject a pursuer outside it."""
    def relative(point):
        return tuple(p - e for p, e in zip(point, evader.position))

    low = relative((0.0, 0.0, 7.0 / 3.0))
    start = relative((0.01, 0.0, 7.0 / 3.0 - 0.01))
    group = interception._program(members, evader, pursuers, UNBOUNDED)
    if ball is not None:
        group.append(interception._Constraint(
            (relative(ball.center), ball.radius), False))
    calls.clear()
    outcome = interception._polish_hypothesis(group, start, (0, 1))
    assert outcome is not None
    point, lam = outcome
    assert calls["_polish_kkt"] == 2
    assert list(lam) == [0]
    assert lam[0] == pytest.approx(-1.0 / 3.0, abs=1e-9)
    assert math.dist(point, low) <= 1e-9


def test_polish_sheds_inactive_member(calls):
    # Pursuer 1 is 0.999 times the speed that would put (0, 0, 7/3) on its
    # boundary, so it clears that point and its multiplier has the wrong sign.
    evader = EvaderSpec((0.0, 0.0, 3.0), 1.0)
    low = (0.0, 0.0, 7.0 / 3.0)
    second_position = (2.0, 0.0, 2.0)
    tangent = math.dist(low, second_position) / math.dist(low, evader.position)
    pursuers = [PursuerSpec((0.0, 0.0, 1.0), 2.0),
                PursuerSpec(second_position, 0.999 * tangent)]
    _shed_to_first_member(calls, (0, 1), evader, pursuers, None)


def test_polish_sheds_inactive_ball(calls):
    # The ball is constraint 1 (after the one member), and (0, 0, 7/3) lies
    # 1e-3 inside its sphere.
    evader = EvaderSpec((0.0, 0.0, 3.0), 1.0)
    radius = 6.0
    tilt = math.radians(60.0)
    inside = radius - 1e-3
    ball = Ball((inside * math.sin(tilt), 0.0, 7.0 / 3.0 + inside * math.cos(tilt)),
                radius)
    _shed_to_first_member(calls, (0,), evader,
                          [PursuerSpec((0.0, 0.0, 1.0), 2.0)], ball)


# Three barely faster pursuers and a ball of radius 169 whose sphere cuts the
# edge of two of their boundaries 318 below the evader.
LARGE_BALL_EVADER = EvaderSpec(
    (-0.4673388790854809, 0.6036527339929671, 318.20427240797204),
    0.8408908632440193)
LARGE_BALL_PURSUERS = [
    PursuerSpec((-1.3142441733627512, 2.030825852348018, 318.671499148299),
                0.8410520258386522, 0.5111062035368145),
    PursuerSpec((-0.9766738942946137, -0.7494114602030293, 318.88651068475565),
                0.841054424066632, 0.4738600013622042),
    PursuerSpec((1.0633873117437171, 0.8686517708698425, 318.67030904245576),
                0.8410582720107097, 0.48467490965264737),
]
LARGE_BALL = Ball((-12.515960689809667, -29.69558520516441, 169.11945372005624),
                  169.21945372005624)


def test_direct_path_certifies_where_barrier_fails(calls):
    evader, pursuers, ball = LARGE_BALL_EVADER, LARGE_BALL_PURSUERS, LARGE_BALL
    assert polishes(calls, (0, 1, 2), evader, pursuers, ball) == 0
    result = solve_interception((0, 1, 2), evader, pursuers, ball)
    assert result.active_set == (0, 1)
    assert result.region_active
    assert result.kkt_residual <= KKT_TOLERANCE
    assert result.slackness_residual <= KKT_TOLERANCE
    assert all(m <= 0.0 for m in result.multipliers)
    assert result.region_multiplier < 0.0


def test_forced_barrier_on_large_ball():
    # The barrier + polish used to stop at stationarity 1.4e-3 here; its
    # polished point now certifies with the same Gram multipliers as the
    # direct path.
    result = assert_paths_agree((0, 1, 2), LARGE_BALL_EVADER,
                                LARGE_BALL_PURSUERS, LARGE_BALL)
    assert result.active_set == (0, 1)
    assert result.region_active


#: The default solve's kernels, none of which the reference may run.
DEFAULT_KERNELS = ("_lone", "_direct", "_polished", "_solve_single",
                   "_pair_points", "_triple_points", "_member_form",
                   "_ball_form")


def test_reference_shares_no_kernel_with_the_default_solve(monkeypatch):
    rng = random.Random(29)
    cases = []
    for k in range(60):
        pursuers, evader = oracles.random_pose(rng, 1 + k % 3)
        cases.append((tuple(range(len(pursuers))), evader, pursuers, UNBOUNDED))
    # The evader lies on the ball's sphere, so most minimizers are region
    # active.
    for regime in ("ball-boundary", "ball-coaxial"):
        cases += degenerate_corpus(regime, size=30)
    defaults = [solve_interception(*case) for case in cases]
    assert sum(result.region_active for result in defaults) >= 30

    def kernel(*args, **kwargs):
        raise AssertionError("the reference ran a kernel of the default solve")

    for name in DEFAULT_KERNELS:
        monkeypatch.setattr(interception, name, kernel)
    for case, fast in zip(cases, defaults):
        _, evader, _, region = case
        start = evader.position
        if isinstance(region, Ball):
            # Strictly inside the ball, 1e-6 toward its centre.
            gap = math.dist(region.center, start)
            start = tuple(e + 1e-6 * (c - e) / gap
                          for e, c in zip(start, region.center))
        slow = barrier_reference(*case, start)
        assert slow.kkt_residual <= KKT_TOLERANCE
        assert slow.slackness_residual <= KKT_TOLERANCE
        assert math.dist(slow.point, fast.point) <= AGREEMENT, case


#: The paper-lemma instruments, which only the tests run (tests/lemmas.py).
LEMMA_NAMES = ("PolarFrame", "_radial_terms", "boundary_radius",
               "boundary_point", "in_closure", "CLOSURE_TOLERANCE",
               "polar_direction", "_rho_derivatives", "cross_section_curvature",
               "CoplanarConfigurationError", "triple_candidates",
               "reduce_coalition")


def test_package_keeps_no_test_reference():
    # The barrier reference, the finite-difference curvature and the
    # paper-lemma instruments live in the tests (barrier.py,
    # oracles.fd_curvature, lemmas.py), not in the package.
    modules = [reachavoid] + [
        importlib.import_module(f"reachavoid.{info.name}")
        for info in pkgutil.iter_modules(reachavoid.__path__)]
    for module in modules:
        names = [name for name in vars(module) if "barrier" in name.lower()]
        assert names == [], (module.__name__, names)
        names = [name for name in LEMMA_NAMES if name in vars(module)]
        assert names == [], (module.__name__, names)
    assert all(hasattr(lemmas, name) for name in LEMMA_NAMES)
    assert "method" not in inspect.signature(
        lemmas.cross_section_curvature).parameters
