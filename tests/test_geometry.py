import decimal
import math
import random

import numpy as np
import pytest

from reachavoid import (
    AssumptionViolation,
    CapturedConfigurationError,
    EvaderSpec,
    PursuerSpec,
    SingularPointError,
    potential,
    potential_gradient,
    speed_ratio,
)

import oracles
from lemmas import (
    PolarFrame,
    boundary_point,
    boundary_radius,
    cross_section_curvature,
    in_closure,
    polar_direction,
)

P_AXIS = PursuerSpec(position=(0, 0, 1), speed=2.0, capture_radius=0.0)
P_AXIS_R = PursuerSpec(position=(0, 0, 1), speed=2.0, capture_radius=0.5)
E_AXIS = EvaderSpec(position=(0, 0, 3), speed=1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        PursuerSpec(position=(0, 0, 0), speed=0.0)
    with pytest.raises(ValueError):
        PursuerSpec(position=(0, 0, 0), speed=1.0, capture_radius=-0.1)
    with pytest.raises(ValueError):
        EvaderSpec(position=(0, 0, 0), speed=-1.0)
    with pytest.raises(ValueError):
        PursuerSpec(position=(0, 0), speed=1.0)
    with pytest.raises(ValueError):
        EvaderSpec(position=(0, 0, float("nan")), speed=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="speed"):
            PursuerSpec(position=(0, 0, 0), speed=bad)
        with pytest.raises(ValueError, match="capture radius"):
            PursuerSpec(position=(0, 0, 0), speed=1.0, capture_radius=bad)
        with pytest.raises(ValueError, match="speed"):
            EvaderSpec(position=(0, 0, 0), speed=bad)
    assert speed_ratio(P_AXIS, E_AXIS) == 2.0


def test_potential_at_evader_position():
    # At the evader itself the race value is the pursuer distance minus the
    # capture radius.
    assert potential(P_AXIS, E_AXIS, (0, 0, 3)) == pytest.approx(2.0, abs=1e-15)


def test_potential_zero_on_axis_boundary():
    rho = oracles.bisect_boundary(P_AXIS, E_AXIS, (0, 0, -1))
    assert rho == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert potential(P_AXIS, E_AXIS, (0, 0, 7.0 / 3.0)) == pytest.approx(0.0, abs=1e-12)


def test_potential_zero_with_capture_radius():
    rho = oracles.bisect_boundary(P_AXIS_R, E_AXIS, (0, 0, -1))
    assert rho == pytest.approx(0.5, abs=1e-12)
    assert potential(P_AXIS_R, E_AXIS, (0, 0, 2.5)) == pytest.approx(0.0, abs=1e-12)


def test_potential_rejects_captured_configuration():
    inside = PursuerSpec(position=(0, 0, 2.8), speed=2.0, capture_radius=0.5)
    with pytest.raises(CapturedConfigurationError):
        potential(inside, E_AXIS, (1, 1, 1))


def test_gradient_matches_finite_differences_at_midpoint():
    pursuer = PursuerSpec(position=(0, 0, 0), speed=2.0)
    evader = EvaderSpec(position=(0, 0, 2), speed=1.0)
    x = (1.0, 0.0, 1.0)
    grad = potential_gradient(pursuer, evader, x)
    assert np.allclose(grad, oracles.fd_gradient(pursuer, evader, x), atol=1e-6)


def test_gradient_symmetry_for_equal_speeds():
    # With matched speeds the equidistant plane is the zero level set, so
    # the gradient there is purely along the plane normal: it equals
    # (E - P)/d and its tangential components vanish.
    pursuer = PursuerSpec(position=(0, 0, 0), speed=1.0)
    evader = EvaderSpec(position=(0, 0, 2), speed=1.0)
    point = (3.0, 2.0, 1.0)
    grad = potential_gradient(pursuer, evader, point)
    assert abs(grad[0]) < 1e-14 and abs(grad[1]) < 1e-14
    d = math.dist(point, pursuer.position)
    assert grad[2] == pytest.approx(2.0 / d, abs=1e-14)


def test_gradient_on_axis_boundary_point():
    grad = potential_gradient(P_AXIS, E_AXIS, (0, 0, 7.0 / 3.0))
    assert np.allclose(grad, (0.0, 0.0, 3.0), atol=1e-12)


def test_gradient_singular_at_player_positions():
    with pytest.raises(SingularPointError):
        potential_gradient(P_AXIS, E_AXIS, (0, 0, 1))
    with pytest.raises(SingularPointError):
        potential_gradient(P_AXIS, E_AXIS, (0, 0, 3))


def test_gradient_random_points_match_finite_differences():
    rng = random.Random(2)
    checked = 0
    while checked < 300:
        pursuers, evader = oracles.random_pose(rng, 1)
        pursuer = pursuers[0]
        x = np.array(evader.position) + np.array(
            [rng.uniform(-2, 2) for _ in range(3)]
        )
        if (
            math.dist(x, pursuer.position) < 0.2
            or math.dist(x, evader.position) < 0.2
        ):
            continue
        grad = potential_gradient(pursuer, evader, x)
        fd = oracles.fd_gradient(pursuer, evader, x)
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(grad))
        checked += 1


@pytest.mark.parametrize("pursuer,direction,expected", [
    (P_AXIS, (0, 0, -1), 2.0 / 3.0),
    (P_AXIS_R, (0, 0, -1), 0.5),
    (P_AXIS, (0, 0, 1), 2.0),
])
def test_boundary_radius_axis_fixtures(pursuer, direction, expected):
    assert boundary_radius(pursuer, E_AXIS, direction) == pytest.approx(
        expected, abs=1e-12
    )
    assert oracles.bisect_boundary(pursuer, E_AXIS, direction) == pytest.approx(
        expected, abs=1e-12
    )


def test_boundary_radius_up_axis_point_is_apollonius():
    # The point (0,0,5) is twice as far from the evader as from the pursuer.
    point = np.asarray(boundary_point(P_AXIS, E_AXIS, (0, 0, 1)))
    assert np.allclose(point, (0, 0, 5))
    assert abs(np.linalg.norm(point - (0, 0, 1)) - 2.0 * np.linalg.norm(point - (0, 0, 3))) < 1e-12


def test_boundary_radius_requires_unit_direction():
    with pytest.raises(ValueError):
        boundary_radius(P_AXIS, E_AXIS, (0, 0, -2))


def test_boundary_radius_requires_fast_pursuer():
    slow = PursuerSpec(position=(0, 0, 1), speed=1.0)
    with pytest.raises(AssumptionViolation):
        boundary_radius(slow, E_AXIS, (0, 0, -1))


def test_boundary_consistency_random_directions():
    rng = random.Random(11)
    for _ in range(20):
        pursuers, evader = oracles.random_pose(rng, 1)
        pursuer = pursuers[0]
        alpha = speed_ratio(pursuer, evader)
        if alpha <= 1.0:
            continue
        separation = math.dist(pursuer.position, evader.position)
        bound = (separation + pursuer.capture_radius) / (alpha - 1.0) + separation
        for e in oracles.fibonacci_directions(50):
            rho = boundary_radius(pursuer, evader, e)
            assert 0.0 < rho <= bound
            assert abs(potential(pursuer, evader, boundary_point(pursuer, evader, e))) <= 1e-9


def exact_boundary_radius(pursuer, evader, e) -> decimal.Decimal:
    """``boundary_radius`` evaluated with 60 digits from the same float
    inputs: the positive root of ``|rho e - q|^2 = (alpha rho + r)^2``."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        D = decimal.Decimal
        q = [D(p) - D(x) for p, x in zip(pursuer.position, evader.position)]
        alpha = D(speed_ratio(pursuer, evader))
        r = D(pursuer.capture_radius)
        h1 = -sum(qi * D(ei) for qi, ei in zip(q, e)) - alpha * r
        span = sum(qi * qi for qi in q) - r * r
        a2m1 = alpha * alpha - 1
        h2 = (h1 * h1 + a2m1 * span).sqrt()
        return (h1 + h2) / a2m1


@pytest.mark.parametrize("excess", [1e-9, 1e-6])
def test_boundary_radius_toward_barely_faster_pursuer_keeps_its_digits(excess):
    # Toward the pursuer h1 < 0, where h1 + h2 cancels; the radius must
    # still match an exact evaluation to rounding.
    rng = random.Random(5)
    worst = 0.0
    for _ in range(300):
        evader = EvaderSpec(tuple(rng.uniform(-3.0, 3.0) for _ in range(3)),
                            rng.uniform(0.5, 2.0))
        pursuer = PursuerSpec(tuple(rng.uniform(-3.0, 3.0) for _ in range(3)),
                              evader.speed * (1.0 + excess),
                              rng.uniform(0.0, 0.2))
        q = [p - x for p, x in zip(pursuer.position, evader.position)]
        if math.hypot(*q) <= 2.0 * pursuer.capture_radius:
            continue
        e = tuple(c / math.hypot(*q) for c in q)
        rho = boundary_radius(pursuer, evader, e)
        exact = exact_boundary_radius(pursuer, evader, e)
        worst = max(worst, float(abs(decimal.Decimal(rho) - exact) / exact))
    assert worst <= 1e-14, worst


def test_in_closure_basics():
    assert in_closure((0,), E_AXIS, [P_AXIS], (0, 0, 3))
    # The pursuer's own position loses the race by 2 alpha lengths.
    assert potential(P_AXIS, E_AXIS, (0, 0, 1)) == pytest.approx(-4.0)
    assert not in_closure((0,), E_AXIS, [P_AXIS], (0, 0, 1))
    boundary = boundary_point(P_AXIS, E_AXIS, (0, 0, -1))
    assert in_closure((0,), E_AXIS, [P_AXIS], boundary)
    with pytest.raises(ValueError):
        in_closure((), E_AXIS, [P_AXIS], (0, 0, 3))


def test_in_closure_matches_per_pursuer_conjunction():
    pursuers = [
        PursuerSpec(position=(1, 0, 2), speed=2.0),
        PursuerSpec(position=(-1, 0, 2), speed=2.0),
    ]
    evader = EvaderSpec(position=(0, 0, 3), speed=1.0)
    rng = random.Random(4)
    for _ in range(100):
        x = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(1, 5))
        expected = all(potential(p, evader, x) >= -1e-12 for p in pursuers)
        assert in_closure((0, 1), evader, pursuers, x) == expected


def test_midpoint_of_boundary_pairs_is_interior():
    rng = random.Random(9)
    pairs = 0
    while pairs < 300:
        pursuers, evader = oracles.random_pose(rng, 1)
        pursuer = pursuers[0]
        dirs = oracles.fibonacci_directions(64)
        a = np.asarray(boundary_point(pursuer, evader, dirs[rng.randrange(64)]))
        b = np.asarray(boundary_point(pursuer, evader, dirs[rng.randrange(64)]))
        if np.linalg.norm(a - b) <= 1e-3:
            continue
        assert potential(pursuer, evader, 0.5 * (a + b)) > 0.0
        pairs += 1


def test_polar_frame_validation():
    with pytest.raises(ValueError):
        PolarFrame(origin=(0, 0, 0), theta0=4.0)
    with pytest.raises(ValueError):
        PolarFrame(origin=(0, 0, 0), psi0=-0.5)
    frame = PolarFrame(origin=(0, 0, 3), theta0=0.3, psi0=1.2)
    e = polar_direction(frame, 0.4, 0.7)
    assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-15)


def test_curvature_of_spherical_section_is_constant():
    # With zero capture radius the boundary is a sphere; a section through
    # the evader along the pursuer axis is a great circle of that sphere.
    pursuer = PursuerSpec(position=(1.5, 0.0, 3.0), speed=2.0)
    evader = EvaderSpec(position=(0.0, 0.0, 3.0), speed=1.0)
    alpha = 2.0
    separation = 1.5
    sphere_radius = alpha * separation / (alpha * alpha - 1.0)
    frame = PolarFrame(origin=evader.position)
    for psi in np.linspace(0.0, 2.0 * math.pi, 17):
        kappa = cross_section_curvature(pursuer, evader, frame, 0.0, float(psi))
        assert kappa == pytest.approx(1.0 / sphere_radius, rel=1e-9)


def test_curvature_positive_and_consistent_on_random_sections():
    rng = random.Random(21)
    for _ in range(100):
        pursuers, evader = oracles.random_pose(rng, 1)
        frame = PolarFrame(origin=evader.position,
                           theta0=rng.uniform(0, math.pi),
                           psi0=rng.uniform(0, 2 * math.pi))
        theta = rng.uniform(0, math.pi)
        psi = rng.uniform(0, 2 * math.pi)
        analytic = cross_section_curvature(pursuers[0], evader, frame, theta, psi)
        fd = oracles.fd_curvature(pursuers[0], evader, frame, theta, psi)
        assert analytic > 0.0
        assert abs(analytic - fd) <= 1e-5


def test_curvature_generic_pose_positive():
    pursuer = PursuerSpec(position=(1, 1, 1), speed=2.0, capture_radius=0.3)
    frame = PolarFrame(origin=(0, 0, 3))
    evader = EvaderSpec(position=(0, 0, 3), speed=1.0)
    for theta in (0.0, 0.9, 2.2):
        for psi in (0.0, 1.3, 4.0):
            assert cross_section_curvature(pursuer, evader, frame, theta, psi) > 0.0


def test_curvature_rejects_mismatched_frame():
    frame = PolarFrame(origin=(5, 5, 5))
    with pytest.raises(ValueError):
        cross_section_curvature(P_AXIS, E_AXIS, frame, 0.0, 0.0)
