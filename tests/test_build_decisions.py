"""The graph build's decision ledger, pinned.

``build_graph_with_results`` decides each coalition by a kept point, a ray
witness or a solve.  These tests count the decisions it makes on the
seeded barely-faster poses of ``test_graph_skip``: kept-point lookups that
hit and miss, by coalition size; ray witnesses, by member count; and
solves, by coalition size.  The counts are integers and do not depend on
the platform's libm, so a change to how the build reaches its decisions
must leave every one of them as it is.

A re-pin is deliberate, and only for a change meant to move the
decisions.  The last one gave each pair's witness rays a first ray, toward
the lowest common point of its members' dropped spheres: no solve count
rose, and the pair solves fell from 9, 10 and 24 to 2, 5 and 13.
"""

from __future__ import annotations

from collections import Counter

import pytest

from reachavoid import GameKind, classify_result, interception, matching
from reachavoid.matching import build_graph_with_results

from test_graph_skip import POSES, REGIONS, pose

#: (size, seed, region) -> ({size: (kept hits, kept misses)},
#: {member count: witnesses}, {size: solves})
LEDGERS = {
    (8, 3, "unbounded"): ({2: (80, 19), 3: (133, 4)}, {1: 42, 2: 25, 3: 24},
                          {2: 2, 3: 3}),
    (8, 3, "ball"): ({2: (83, 16), 3: (133, 4)}, {1: 42, 2: 22, 3: 23},
                     {2: 2, 3: 3}),
    (8, 4, "unbounded"): ({2: (111, 22), 3: (193, 2)}, {1: 53, 2: 37, 3: 5},
                          {1: 4, 2: 5}),
    (8, 4, "ball"): ({2: (114, 19), 3: (193, 2)}, {1: 53, 2: 34, 3: 5},
                     {1: 4, 2: 5}),
    (12, 5, "unbounded"): ({2: (431, 42), 3: (1227, 6)},
                           {1: 110, 2: 81, 3: 26}, {1: 2, 2: 13, 3: 1}),
    (12, 5, "ball"): ({2: (431, 42), 3: (1227, 6)}, {1: 110, 2: 81, 3: 26},
                      {1: 3, 2: 13, 3: 1}),
}


def ledger(monkeypatch, size: int, seed: int, region_name: str):
    """The decision counts of one build, in the form of ``LEDGERS``."""
    kept = Counter()
    witnesses = Counter()
    solves = Counter()
    kept_point = matching._kept_point
    witness = matching._witness
    solve = matching.solve_interception

    def counted_kept_point(points, want):
        y = kept_point(points, want)
        kept[want.bit_count(), y is not None] += 1
        return y

    def counted_witness(group, ray):
        witnesses[sum(c.member for c in group)] += 1
        return witness(group, ray)

    def counted_solve(members, *args, **kwargs):
        solves[len(members)] += 1
        return solve(members, *args, **kwargs)

    monkeypatch.setattr(matching, "_kept_point", counted_kept_point)
    monkeypatch.setattr(matching, "_witness", counted_witness)
    monkeypatch.setattr(matching, "solve_interception", counted_solve)
    pursuers, evaders = pose(size, seed)
    build_graph_with_results(pursuers, evaders, REGIONS[region_name])
    sizes = sorted({k for k, _ in kept})
    return ({k: (kept[k, True], kept[k, False]) for k in sizes},
            dict(sorted(witnesses.items())), dict(sorted(solves.items())))


CASES = [(size, seed, region_name) for size, seed in POSES for region_name in REGIONS]
IDS = [f"{size}v{size}-seed{seed}-{region_name}" for size, seed, region_name in CASES]


@pytest.mark.parametrize("size,seed,region_name", CASES, ids=IDS)
def test_build_makes_the_pinned_decisions(monkeypatch, size, seed, region_name):
    assert ledger(monkeypatch, size, seed, region_name) == LEDGERS[
        size, seed, region_name]


def pair_solves(monkeypatch, sphere_low_point, region_name):
    """The graph of one build of the 8v8 seed-3 pose, and the kind of each
    pair it solves, by members and evader position; the build's sphere
    rays come from ``sphere_low_point``."""
    solved = {}
    solve = interception.solve_interception

    def counted_solve(members, evader, pursuers, region):
        result = solve(members, evader, pursuers, region)
        if len(members) == 2:
            solved[members, evader.position] = classify_result(
                result, evader, pursuers, region)
        return result

    monkeypatch.setattr(matching, "solve_interception", counted_solve)
    monkeypatch.setattr(matching, "_sphere_low_point", sphere_low_point)
    pursuers, evaders = pose(8, 3)
    graph, _ = build_graph_with_results(pursuers, evaders, REGIONS[region_name])
    return graph, solved


@pytest.mark.parametrize("region_name", REGIONS)
def test_the_sphere_ray_decides_losing_pairs_no_other_ray_witnesses(
        monkeypatch, region_name):
    # Without the ray toward the lowest common point of the members'
    # dropped spheres, the build solves these losing pairs: neither
    # member's point nor straight down witnesses them.  With it, it decides
    # them unsolved, and every edge stays as it was.
    graph, with_ray = pair_solves(monkeypatch, matching._sphere_low_point,
                                  region_name)
    old_graph, without_ray = pair_solves(monkeypatch, lambda fa, fb: None,
                                         region_name)
    assert graph == old_graph
    assert with_ray.items() <= without_ray.items()
    decided = without_ray.keys() - with_ray.keys()
    assert len(decided) == 7
    assert all(without_ray[key] is GameKind.EVADER_WINS for key in decided)
