"""Metamorphic invariants of the interception solve on the degenerate corpus.

Over the first ``DRAWS`` inputs of every regime of
:func:`test_degenerate.corpus`:

- doubling every speed leaves each speed ratio alpha bit-identical, so the
  results are equal as dataclasses;
- rotating the scene about the evader's vertical axis and translating it in
  x-y moves the interception point with the scene, to
  ``1e-9 * max(1, |x|)``, and keeps the kind wherever ``|z| > 1e-6``;
- adding a member never lowers the value by more than 1e-9;
- shrinking the ball about the evader, which it keeps on its sphere, never
  lowers the value by more than 1e-9 (the ball regimes only);
- scaling every position, capture radius and the ball by ``2^k``, which is
  exact in binary, scales the interception point of every input that
  certifies at scale 1, to ``1e-9`` of the scaled scene.  This holds for
  ``k = +-2`` and ``k = -10``.  At ``k = 10`` some ball inputs fail, since
  the ball's tolerances are on squared lengths, and so do some
  barely-faster ones (ROADMAP item 8); that stays visible as a strict
  expected failure.

Relabelling the pursuers of barely-faster 8v8 poses, unbounded and in a
ball, permutes the graph build's edges exactly.

A failing input goes to ``test_degenerate.KEPT`` and is fixed in the
numerics; the tolerances here are not widened.
"""

from __future__ import annotations

import math
import random

import pytest

from reachavoid import (
    Ball,
    EvaderSpec,
    PursuerSpec,
    SolverFailure,
    build_graph,
    solve_interception,
)
from reachavoid.interception import UNBOUNDED, classify_result

from test_degenerate import REGIMES, corpus, outcome
from test_shared_solves import BALL, snapshot

DRAWS = 100


def _doubled(evader: EvaderSpec, pursuers):
    return (EvaderSpec(evader.position, 2.0 * evader.speed),
            [PursuerSpec(p.position, 2.0 * p.speed, p.capture_radius)
             for p in pursuers])


def _motion(evader: EvaderSpec, angle: float, shift):
    """Rotation by ``angle`` about the evader's vertical axis, then the
    x-y translation ``shift``."""
    ex, ey, _ = evader.position
    c = math.cos(angle)
    s = math.sin(angle)

    def move(point):
        dx = point[0] - ex
        dy = point[1] - ey
        return (ex + c * dx - s * dy + shift[0], ey + s * dx + c * dy + shift[1],
                point[2])

    return move


@pytest.mark.parametrize("regime", REGIMES)
def test_doubling_every_speed_changes_no_result(regime):
    for members, evader, pursuers, region in corpus(regime, size=DRAWS):
        result = solve_interception(members, evader, pursuers, region)
        fast_evader, fast_pursuers = _doubled(evader, pursuers)
        assert solve_interception(members, fast_evader, fast_pursuers,
                                  region) == result


@pytest.mark.parametrize("regime", REGIMES)
def test_vertical_rotation_and_translation_move_the_point(regime):
    rng = random.Random(f"motion-{regime}")
    for members, evader, pursuers, region in corpus(regime, size=DRAWS):
        move = _motion(evader, rng.uniform(0.0, 2.0 * math.pi),
                       (rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)))
        moved_evader = EvaderSpec(move(evader.position), evader.speed)
        moved_pursuers = [PursuerSpec(move(p.position), p.speed,
                                      p.capture_radius) for p in pursuers]
        moved_region = region
        if isinstance(region, Ball):
            moved_region = Ball(move(region.center), region.radius)
        result = solve_interception(members, evader, pursuers, region)
        moved = solve_interception(members, moved_evader, moved_pursuers,
                                   moved_region)
        scale = max(1.0, math.hypot(*result.point))
        assert math.dist(moved.point, move(result.point)) <= 1e-9 * scale, (
            members, evader, pursuers, region)
        if abs(result.value) > 1e-6:
            assert (classify_result(moved, moved_evader, moved_pursuers,
                                    moved_region)
                    == classify_result(result, evader, pursuers, region))


@pytest.mark.parametrize("regime", REGIMES)
def test_adding_a_member_never_lowers_the_value(regime):
    for members, evader, pursuers, region in corpus(regime, size=DRAWS):
        if len(members) == 1:
            continue
        value = solve_interception(members, evader, pursuers, region).value
        for dropped in members:
            fewer = tuple(i for i in members if i != dropped)
            assert value >= solve_interception(
                fewer, evader, pursuers, region).value - 1e-9, (
                members, dropped, evader, pursuers, region)


def _shrunk(region: Ball, evader: EvaderSpec, pursuers, rng: random.Random):
    """``region`` shrunk about the evader, which sits on its sphere, by a
    factor drawn between 1 and the least one that keeps every pursuer
    inside; None when no valid ball is drawn."""
    e = evader.position
    w = tuple(c - x for c, x in zip(region.center, e))
    least = 0.0
    for p in pursuers:
        u = tuple(a - x for a, x in zip(p.position, e))
        # |u - s w| <= s R with |w| = R holds for s >= |u|^2 / (2 u . w).
        least = max(least, sum(a * a for a in u) / (2.0 * sum(
            a * b for a, b in zip(u, w))))
    factor = least + (1.0 - least) * rng.uniform(0.05, 0.95)
    centre = tuple(x + factor * a for x, a in zip(e, w))
    radius = factor * region.radius
    if abs(centre[2]) >= radius:
        return None
    ball = Ball(centre, radius)
    if any(ball.g(p.position) < 0.0 for p in pursuers):
        return None
    return ball


@pytest.mark.parametrize("regime", ["ball-boundary", "ball-coaxial"])
def test_shrinking_the_ball_never_lowers_the_value(regime):
    rng = random.Random(f"shrink-{regime}")
    shrunk = 0
    for members, evader, pursuers, region in corpus(regime, size=DRAWS):
        smaller = _shrunk(region, evader, pursuers, rng)
        if smaller is None:
            continue
        value = solve_interception(members, evader, pursuers, region).value
        assert solve_interception(members, evader, pursuers,
                                  smaller).value >= value - 1e-9, (
            members, evader, pursuers, region, smaller)
        shrunk += 1
    assert shrunk >= DRAWS // 2


def _scaled(s: float, evader: EvaderSpec, pursuers, region):
    """The scene with every position, capture radius and the ball scaled by
    ``s`` about the origin, which keeps the goal plane; speeds unchanged."""

    def up(point):
        return tuple(s * c for c in point)

    if isinstance(region, Ball):
        region = Ball(up(region.center), s * region.radius)
    return (EvaderSpec(up(evader.position), evader.speed),
            [PursuerSpec(up(p.position), p.speed, s * p.capture_radius)
             for p in pursuers], region)


_UNIT_DEFECT = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 8: the ball's activity and outside tests are "
           "squared lengths, and the barely-faster floor does not scale")


@pytest.mark.parametrize("k", [2, -2, pytest.param(10, marks=_UNIT_DEFECT), -10])
def test_scaling_the_scene_scales_the_point(k):
    s = 2.0 ** k
    failed = []
    for regime in REGIMES:
        for members, evader, pursuers, region in corpus(regime, size=DRAWS):
            result = outcome(members, evader, pursuers, region)
            if result is None:
                continue
            try:
                scaled = solve_interception(
                    members, *_scaled(s, evader, pursuers, region))
            except (SolverFailure, ValueError) as error:
                failed.append((regime, members, evader, repr(error)))
                continue
            want = tuple(s * c for c in result.point)
            if math.dist(scaled.point, want) > 1e-9 * s * max(
                    1.0, math.hypot(*result.point)):
                failed.append((regime, members, evader, scaled.point, want))
    assert not failed, (len(failed), failed[:3])


@pytest.mark.parametrize("region", [UNBOUNDED, BALL], ids=["unbounded", "ball"])
def test_relabelling_the_pursuers_permutes_the_edges(region):
    rng = random.Random(23)
    for _ in range(3):
        pursuers, evaders = snapshot(rng)
        graph = build_graph(pursuers, evaders, region)
        order = list(range(len(pursuers)))
        rng.shuffle(order)
        relabelled = build_graph([pursuers[i] for i in order], evaders, region)
        assert len(graph.edges) > len(evaders)
        assert sorted(
            (tuple(sorted(order[k] for k in relabelled.coalitions[ci])), ej)
            for ci, ej in relabelled.edges) == sorted(
            (graph.coalitions[ci], ej) for ci, ej in graph.edges)
