"""The graph build's skip of pair and triple solves.

An evasion space only shrinks as pursuers join a coalition, so when a
losing coalition's lowest point lies strictly inside pursuer k's body
(f_k > ACTIVE_TOLERANCE) the coalition with k added has that same lowest
point and loses; ``build_graph_with_results`` then leaves it unsolved.
These tests compare the build against every coalition of up to three
solved against each evader, on seeded poses whose pursuers are barely
faster than the evaders, so that most singles lose.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter

import pytest

from reachavoid import (
    EvaderSpec,
    GameKind,
    PursuerSpec,
    build_graph_with_results,
    classify_result,
    matching,
    potential,
    solve_interception,
)
from reachavoid.geometry import _f_original, _race
from reachavoid.interception import ACTIVE_TOLERANCE, UNBOUNDED, SolveTable
from reachavoid.matching import all_coalitions

from test_shared_solves import BALL, snapshot

REGIONS = {"unbounded": UNBOUNDED, "ball": BALL}
#: (pursuers and evaders a side, seed) of each pose.
POSES = ((8, 3), (8, 4), (12, 5))


@functools.lru_cache(maxsize=None)
def pose(size: int, seed: int):
    return snapshot(random.Random(seed), size)


@functools.lru_cache(maxsize=None)
def build(size: int, seed: int, region_name: str):
    pursuers, evaders = pose(size, seed)
    return build_graph_with_results(pursuers, evaders, REGIONS[region_name])


@functools.lru_cache(maxsize=None)
def every_solve(size: int, seed: int, region_name: str):
    """Per evader, every coalition of up to three solved, nothing skipped,
    with its kind.  Each evader's solves share a table, which leaves every
    result bit-identical to a solve without one."""
    pursuers, evaders = pose(size, seed)
    region = REGIONS[region_name]
    solved = []
    for evader in evaders:
        table = SolveTable()
        results = {}
        for members in all_coalitions(len(pursuers)):
            result = solve_interception(members, evader, pursuers, region,
                                        table=table)
            results[members] = (result,
                                classify_result(result, evader, pursuers, region))
        solved.append(results)
    return solved


def proper_subsets(members):
    return [sub for size in range(1, len(members))
            for sub in itertools.combinations(members, size)]


def undecided(members, loses) -> bool:
    """Whether every proper subcoalition loses, so that the build must
    either solve ``members`` or skip it."""
    return len(members) > 1 and all(loses[sub] for sub in proper_subsets(members))


CASES = [(size, seed, region_name) for size, seed in POSES for region_name in REGIONS]
IDS = [f"{size}v{size}-seed{seed}-{region_name}" for size, seed, region_name in CASES]


@pytest.mark.parametrize("size,seed,region_name", CASES, ids=IDS)
def test_edges_are_the_minimal_winners_of_every_solve(size, seed, region_name):
    graph, _ = build(size, seed, region_name)
    expected = []
    for ej, solved in enumerate(every_solve(size, seed, region_name)):
        loses = {c: kind is GameKind.EVADER_WINS for c, (_, kind) in solved.items()}
        for ci, members in enumerate(graph.coalitions):
            if not loses[members] and all(loses[sub]
                                          for sub in proper_subsets(members)):
                expected.append((ci, ej))
    assert list(graph.edges) == sorted(expected)


@pytest.mark.parametrize("size,seed,region_name", CASES, ids=IDS)
def test_skipped_coalitions_lose_at_the_point_they_were_skipped_for(
        size, seed, region_name):
    pursuers, evaders = pose(size, seed)
    _, results = build(size, seed, region_name)
    for ej, solved in enumerate(every_solve(size, seed, region_name)):
        evader = evaders[ej]
        loses = {c: kind is GameKind.EVADER_WINS for c, (_, kind) in solved.items()}
        for members, (result, kind) in solved.items():
            if (members, ej) in results or not undecided(members, loses):
                continue
            assert kind is GameKind.EVADER_WINS, (members, ej)
            # Some subcoalition one smaller has its point strictly inside
            # the remaining member's body, and that point is this one's.
            decided_by = []
            for k in members:
                sub = tuple(i for i in members if i != k)
                low = solved[sub][0].point
                y = tuple(a - b for a, b in zip(low, evader.position))
                if _f_original(_race(pursuers[k], evader), y) > ACTIVE_TOLERANCE:
                    decided_by.append(math.dist(result.point, low)
                                      / max(1.0, math.hypot(*low)))
            assert decided_by and min(decided_by) <= 1e-9, (members, ej, decided_by)


def test_skip_reaches_pairs_and_triples_and_leaves_only_multi_active_solves():
    skipped = Counter()
    for case in CASES:
        _, results = build(*case)
        for ej, solved in enumerate(every_solve(*case)):
            loses = {c: kind is GameKind.EVADER_WINS for c, (_, kind) in solved.items()}
            for members in solved:
                if not undecided(members, loses):
                    continue
                result = results.get((members, ej))
                if result is None:
                    skipped[len(members)] += 1
                else:
                    assert set(result.active_set) == set(members), (case, members, ej)
    assert skipped[2] >= 1 and skipped[3] >= 1, skipped


@pytest.mark.parametrize("region_name", list(REGIONS))
def test_cover_work_is_lazy_and_done_once(monkeypatch, region_name):
    races = []
    covers = []

    def race(pursuer, evader):
        races.append((pursuer, evader))
        return _race(pursuer, evader)

    def f_original(con, y):
        covers.append((con, y))
        return _f_original(con, y)

    monkeypatch.setattr(matching, "_race", race)
    monkeypatch.setattr(matching, "_f_original", f_original)
    pursuers, evaders = pose(8, 3)
    region = REGIONS[region_name]
    _, results = build_graph_with_results(pursuers, evaders, region)
    assert covers
    assert len(covers) == len(set(covers))
    assert len(races) == len(set(races))
    # A race is built only for a pursuer whose single loses, as only those
    # enter pairs and triples.
    losing = {(pursuers[members[0]], evaders[ej])
              for (members, ej), result in results.items()
              if len(members) == 1 and classify_result(
                  result, evaders[ej], pursuers, region) is GameKind.EVADER_WINS}
    assert len(losing) < len(pursuers) * len(evaders)
    assert set(races) <= losing


@pytest.mark.parametrize("f_at_point", [-5e-8, 5e-8, 2e-7])
def test_only_a_point_beyond_the_active_tolerance_decides(f_at_point):
    # Pursuer 1's capture radius is set so that f_1 takes ``f_at_point`` at
    # pursuer 0's lowest point.  Within ACTIVE_TOLERANCE of the boundary
    # both members count as active and the pair must be solved.
    evader = EvaderSpec((0.0, 0.0, 0.8), 1.0)
    first = PursuerSpec((1.5, 0.0, 1.5), 1.1, 0.1)
    low = solve_interception((0,), evader, [first]).point
    position, speed = (3.0, 0.8, 1.2), 1.1
    reach = potential(PursuerSpec(position, speed), evader, low)
    pursuers = [first, PursuerSpec(position, speed, reach - f_at_point)]
    assert potential(pursuers[1], evader, low) == pytest.approx(f_at_point, abs=1e-15)
    graph, results = build_graph_with_results(pursuers, [evader])
    assert graph.edges == ()
    assert {members for members, _ in results} >= {(0,), (1,)}
    pair = results.get(((0, 1), 0))
    if f_at_point > ACTIVE_TOLERANCE:
        assert pair is None
    else:
        assert pair.active_set == (0, 1)
