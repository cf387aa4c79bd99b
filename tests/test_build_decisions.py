"""The graph build's decision ledger, pinned.

``build_graph_with_results`` decides each coalition by a kept point, a ray
witness or a solve.  These tests count the decisions it makes on the
seeded barely-faster poses of ``test_graph_skip``: kept-point lookups that
hit and miss, by coalition size; ray witnesses, by member count; and
solves, by coalition size.  The counts are integers and do not depend on
the platform's libm, so a change to how the build reaches its decisions
must leave every one of them as it is.
"""

from __future__ import annotations

from collections import Counter

import pytest

from reachavoid import matching
from reachavoid.matching import build_graph_with_results

from test_graph_skip import POSES, REGIONS, pose

#: (size, seed, region) -> ({size: (kept hits, kept misses)},
#: {member count: witnesses}, {size: solves})
LEDGERS = {
    (8, 3, "unbounded"): ({2: (79, 20), 3: (132, 5)}, {1: 42, 2: 47, 3: 30},
                          {2: 9, 3: 3}),
    (8, 3, "ball"): ({2: (83, 16), 3: (132, 5)}, {1: 42, 2: 42, 3: 29},
                     {2: 9, 3: 3}),
    (8, 4, "unbounded"): ({2: (116, 17), 3: (194, 1)}, {1: 53, 2: 44, 3: 6},
                          {1: 4, 2: 10}),
    (8, 4, "ball"): ({2: (118, 15), 3: (194, 1)}, {1: 53, 2: 42, 3: 6},
                     {1: 4, 2: 10}),
    (12, 5, "unbounded"): ({2: (437, 36), 3: (1223, 10)},
                           {1: 110, 2: 97, 3: 50}, {1: 2, 2: 24, 3: 1}),
    (12, 5, "ball"): ({2: (437, 36), 3: (1223, 10)}, {1: 110, 2: 97, 3: 50},
                      {1: 3, 2: 24, 3: 1}),
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
