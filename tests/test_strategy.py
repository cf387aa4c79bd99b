import math
import random

import numpy as np
import pytest

from reachavoid import (
    EvaderSpec,
    HOLD,
    PursuerSpec,
    evader_optimal_heading,
    is_hold,
    pursuer_heading,
    value_function,
)

import minisim
import oracles

P_AXIS = PursuerSpec(position=(0, 0, 1), speed=2.0, capture_radius=0.0)
E_AXIS = EvaderSpec(position=(0, 0, 3), speed=1.0)


def test_heading_fixtures():
    assert np.allclose(pursuer_heading((0, 0, 1), (0, 0, 7 / 3)), (0, 0, 1))
    assert np.allclose(pursuer_heading((1, 0, 0), (0, 0, 0)), (-1, 0, 0))
    assert np.allclose(evader_optimal_heading((0, 0, 3), (0, 0, 7 / 3)), (0, 0, -1))


def test_heading_identity_random_pairs():
    rng = random.Random(5)
    for _ in range(100):
        source = tuple(rng.uniform(-5, 5) for _ in range(3))
        target = tuple(rng.uniform(-5, 5) for _ in range(3))
        if math.dist(source, target) <= 1e-9:
            continue
        heading = np.asarray(pursuer_heading(source, target))
        assert np.linalg.norm(heading) == pytest.approx(1.0, abs=1e-12)
        rebuilt = np.asarray(source) + math.dist(source, target) * heading
        assert np.allclose(rebuilt, target, atol=1e-10)


def test_degenerate_headings_hold():
    assert is_hold(pursuer_heading((1, 2, 3), (1, 2, 3)))
    assert is_hold(evader_optimal_heading((1, 2, 3), (1, 2, 3)))
    assert is_hold(HOLD)
    assert not is_hold((0, 0, 1))


def test_value_function_fixtures():
    assert value_function((0,), E_AXIS, [P_AXIS]) == pytest.approx(7 / 3, abs=1e-9)
    with_radius = PursuerSpec(position=(0, 0, 1), speed=2.0, capture_radius=0.5)
    assert value_function((0,), E_AXIS, [with_radius]) == pytest.approx(2.5, abs=1e-9)


def test_value_function_requires_winning_pursuit():
    tie_p = PursuerSpec(position=(0, 0, 2), speed=2.0)
    tie_e = EvaderSpec(position=(0, 0, 1), speed=1.0)
    with pytest.raises(ValueError):
        value_function((0,), tie_e, [tie_p])
    losing_p = PursuerSpec(position=(0, 0, 3), speed=2.0)
    with pytest.raises(ValueError):
        value_function((0,), tie_e, [losing_p])


def test_value_function_rotation_invariance():
    rng = random.Random(13)
    for _ in range(10):
        pursuers, evader = oracles.random_pose(rng, 2)
        try:
            base = value_function((0, 1), evader, pursuers)
        except ValueError:
            continue
        angle = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(angle), math.sin(angle)

        def rotate(p):
            return (c * p[0] - s * p[1], s * p[0] + c * p[1], p[2])

        rotated_ps = [
            PursuerSpec(position=rotate(p.position), speed=p.speed,
                        capture_radius=p.capture_radius)
            for p in pursuers
        ]
        rotated_e = EvaderSpec(position=rotate(evader.position), speed=evader.speed)
        assert value_function((0, 1), rotated_e, rotated_ps) == pytest.approx(
            base, abs=1e-9
        )


def test_value_function_reduces_large_coalitions():
    pursuers = [
        P_AXIS,
        PursuerSpec(position=(5, 5, 4), speed=2.0),
        PursuerSpec(position=(-5, 5, 4), speed=2.0),
        PursuerSpec(position=(5, -5, 4), speed=2.0),
    ]
    assert value_function((0, 1, 2, 3), E_AXIS, pursuers) == pytest.approx(
        7 / 3, abs=1e-8
    )


def drift_poses(count, seed):
    rng = random.Random(seed)
    poses = []
    while len(poses) < count:
        n = 1 + len(poses) % 3
        pursuers, evader = oracles.random_pose(rng, n, radius_max=0.25)
        if any(
            math.dist(p.position, evader.position) < p.capture_radius + 0.3
            for p in pursuers
        ):
            continue
        poses.append((pursuers, evader))
    return poses


def test_drift_slack_shrinks_quadratically():
    # Straight-line frames keep the old interception point feasible exactly
    # (the pursuer closes on it at full speed while the evader can recede at
    # most at its own), so the measured slack usually sits at rounding
    # level; the quadratic bound then holds with a tiny constant.
    floor = 1e-10
    for mode in ("random", "optimal"):
        slack = {}
        for dt in (1e-2, 1e-3):
            worst = 0.0
            for k, (pursuers, evader) in enumerate(drift_poses(8, seed=101)):
                worst = max(worst, minisim.worst_altitude_drop(
                    pursuers, evader, dt, 0.25, mode, seed=500 + k
                ))
            slack[dt] = worst
        assert slack[1e-2] <= 10.0 * (1e-2) ** 2
        assert slack[1e-3] <= 10.0 * (1e-3) ** 2
        if slack[1e-2] > floor:
            assert slack[1e-3] * 3.5 <= slack[1e-2]
        else:
            assert slack[1e-3] <= floor


def test_saddle_altitude_nearly_constant_under_optimal_play():
    pursuers, evader = oracles.random_pose(random.Random(77), 1, radius_max=0.2)
    drop = minisim.worst_altitude_drop(pursuers, evader, 1e-3, 0.2, "optimal", 0)
    assert drop <= 1e-8


def test_terminal_consistency_near_capture():
    # As the pursuer closes to the capture sphere the reachable set shrinks
    # to the evader itself, so the value approaches the evader altitude.
    for eps, bound in ((1e-4, 1e-3), (1e-6, 1e-5)):
        pursuer = PursuerSpec(position=(0, 0, 1.0), speed=2.0, capture_radius=0.5)
        evader = EvaderSpec(position=(0, 0, 1.5 + eps), speed=1.0)
        value = value_function((0,), evader, [pursuer])
        assert abs(value - evader.position[2]) <= bound
