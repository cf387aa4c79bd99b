"""Solves that share one :class:`~reachavoid.interception.SolveTable`.

The graph build solves the coalitions of up to three pursuers that it
cannot decide without a solve through one table per evader, so each
member's lowest point and each pair's and triple's candidate points are
computed once; constraint values and certificates are computed per solve.  Every answer must be
bit-identical (dataclass equality) to a solve without a table, and a table
reused with moved players must answer afresh.
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
    build_graph_with_results,
    solve_interception,
)
from reachavoid import interception
from reachavoid.interception import UNBOUNDED, SolveTable

from test_single_active import corpus

BALL = Ball((0.0, 0.0, 1.0), 4.5)


def subsets_in_build_order(members):
    """Every 1-, 2- and 3-member subset, singles first, as the graph build
    visits them."""
    for size in (1, 2, 3):
        yield from itertools.combinations(members, size)


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


def test_shared_table_is_bit_identical_on_corpus():
    seen = Counter()
    for members, evader, pursuers, region in corpus():
        table = SolveTable()
        for subset in subsets_in_build_order(members):
            shared = solve_interception(subset, evader, pursuers, region,
                                        table=table)
            assert shared == solve_interception(subset, evader, pursuers, region)
            seen[regime(shared)] += 1
    for key in ("single", "pair", "triple", "member+ball", "two members+ball"):
        assert seen[key] >= 5, (key, seen)


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


def test_build_computes_each_kernel_once_per_input(monkeypatch):
    calls = {name: [] for name in ("_solve_single", "_pair_points", "_triple_points")}

    def counted(name):
        original = getattr(interception, name)

        def wrapper(*args):
            calls[name].append(args)
            return original(*args)

        monkeypatch.setattr(interception, name, wrapper)

    for name in calls:
        counted(name)
    pursuers, evaders = snapshot(random.Random(11))
    _, results = build_graph_with_results(pursuers, evaders)
    sizes = Counter(len(members) for members, _ in results)
    assert sizes[2] > 0 and sizes[3] > 0
    for name, args in calls.items():
        assert args, name
        assert len(args) == len(set(args)), name
    # A member's lowest point is found once per evader, for the first solve
    # that holds it, though every later solve of that evader needs it too;
    # a member in no solve needs none.
    solved_members = {(i, ej) for members, ej in results for i in members}
    assert len(calls["_solve_single"]) == len(solved_members)


def test_reused_table_answers_moved_players_afresh():
    evader = EvaderSpec((0.0, 0.0, 3.0), 1.0)
    pursuers = [PursuerSpec((1.0, 0.0, 1.0), 1.3, 0.1),
                PursuerSpec((-1.0, 0.2, 1.5), 1.2, 0.2)]
    table = SolveTable()
    for members in subsets_in_build_order((0, 1)):
        solve_interception(members, evader, pursuers, table=table)
    before = solve_interception((0, 1), evader, pursuers, table=table)

    moved = [pursuers[0], PursuerSpec((-1.0, 0.4, 1.5), 1.2, 0.2)]
    after = solve_interception((0, 1), evader, moved, table=table)
    assert after == solve_interception((0, 1), evader, moved)
    assert after != before

    evader = EvaderSpec((0.1, 0.0, 3.0), 1.0)
    again = solve_interception((0, 1), evader, moved, table=table)
    assert again == solve_interception((0, 1), evader, moved)
    assert again != after
