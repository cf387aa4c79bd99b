"""The graph build's solves and the poses that exercise them.

``build_graph_with_results`` returns the result of every coalition it
solves, and each must equal (dataclass equality) a fresh solve of the same
coalition and evader: the build's solves are the public solve, with no
state carried between the coalitions of one build.  ``snapshot`` makes
the barely-faster poses on which builds still solve pairs and triples;
other test modules share it and ``BALL``.
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
from reachavoid.interception import UNBOUNDED
from reachavoid.matching import build_graph_with_results

BALL = Ball((0.0, 0.0, 1.0), 4.5)


def regime(result) -> str:
    active = len(result.active_set)
    if result.region_active:
        return {1: "member+ball", 2: "two members+ball"}.get(active, "ball")
    return {1: "single", 2: "pair", 3: "triple"}[active]


def snapshot(rng: random.Random, size: int = 8):
    """An 8v8 pose with pursuers only 1.05-1.8 times as fast as the fastest
    evader, so most singles lose and pairs and triples are solved."""
    evaders = [EvaderSpec((rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                           rng.uniform(0.5, 2.5)), rng.uniform(0.8, 1.2))
               for _ in range(size)]
    fastest = max(e.speed for e in evaders)
    pursuers = []
    while len(pursuers) < size:
        pursuer = PursuerSpec((rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
                               rng.uniform(0.2, 2.2)),
                              fastest * rng.uniform(1.05, 1.8),
                              rng.uniform(0.08, 0.3))
        if all(math.dist(pursuer.position, e.position)
               > 2.0 * pursuer.capture_radius for e in evaders):
            pursuers.append(pursuer)
    return pursuers, evaders


@pytest.mark.parametrize("region", [UNBOUNDED, BALL], ids=["unbounded", "ball"])
def test_graph_build_results_are_fresh_solves(region):
    # Poses whose builds still solve every regime below: most coalitions are
    # decided without a solve.
    rng = random.Random(11)
    seen = Counter()
    for _ in range(4):
        pursuers, evaders = snapshot(rng)
        _, results = build_graph_with_results(pursuers, evaders, region)
        for (members, ej), result in results.items():
            assert result == solve_interception(members, evaders[ej], pursuers,
                                                region)
            seen[regime(result)] += 1
    wanted = (("pair", "triple") if region is UNBOUNDED
              else ("member+ball", "two members+ball"))
    for key in wanted:
        assert seen[key] >= 1, (key, seen)
