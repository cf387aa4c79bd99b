"""The graph build's decision ledger, pinned.

``build_graph_with_results`` decides each coalition by a kept point, a ray
witness or a solve.  These tests count the decisions it makes on the
seeded barely-faster poses of ``test_graph_skip`` and on one 24v24 pose,
where the kept points are most numerous: kept-point lookups that hit and
miss, by coalition size; rays tried, by member count, whether or not their
point decides the coalition; and solves, by coalition size.  The counts
are integers and do not depend on the platform's libm, so a change to how
the build reaches its decisions must leave every one of them as it is.

A re-pin is deliberate, and only for a change meant to move the
decisions.  The last one gave each pair's witness rays a first ray, toward
the lowest common point of its members' dropped spheres: no solve count
rose, and the pair solves fell from 9, 10 and 24 to 2, 5 and 13.
"""

from __future__ import annotations

from collections import Counter

import pytest

from reachavoid import GameKind, classify_result, interception, matching
from reachavoid.geometry import _f_original, _race
from reachavoid.interception import GOAL_TOLERANCE, _ball_g
from reachavoid.matching import build_graph_with_results

from test_graph_skip import POSES, REGIONS, pose

#: (size, seed, region) -> ({size: (kept hits, kept misses)},
#: {member count: rays tried}, {size: solves})
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
    (24, 6, "unbounded"): ({2: (2618, 157), 3: (14048, 45)},
                           {1: 385, 2: 355, 3: 258}, {1: 26, 2: 65, 3: 26}),
    (24, 6, "ball"): ({2: (2618, 157), 3: (14047, 46)},
                      {1: 385, 2: 358, 3: 263}, {1: 30, 2: 66, 3: 26}),
}


def ledger(monkeypatch, size: int, seed: int, region_name: str):
    """The decision counts of one build, in the form of ``LEDGERS``."""
    kept = Counter()
    rays = Counter()
    solves = Counter()
    kept_point = matching._kept_point
    witness = matching._witness
    solve = matching.solve_interception

    def counted_kept_point(points, inside, members):
        y = kept_point(points, inside, members)
        kept[len(members), y is not None] += 1
        return y

    def counted_witness(group, ray):
        # Every ray tried counts: its point decides the coalition only once
        # the build's potential check keeps it.
        rays[sum(c.member for c in group)] += 1
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
            dict(sorted(rays.items())), dict(sorted(solves.items())))


#: The poses of ``test_graph_skip``, and one 24v24 pose, whose kept points
#: are the most numerous: too large to solve every coalition of, but its
#: ledger is cheap.
CASES = [(size, seed, region_name) for size, seed in (*POSES, (24, 6))
         for region_name in REGIONS]
IDS = [f"{size}v{size}-seed{seed}-{region_name}" for size, seed, region_name in CASES]


@pytest.mark.parametrize("size,seed,region_name", CASES, ids=IDS)
def test_build_makes_the_pinned_decisions(monkeypatch, size, seed, region_name):
    assert ledger(monkeypatch, size, seed, region_name) == LEDGERS[
        size, seed, region_name]


@pytest.mark.parametrize("size,seed,region_name", CASES, ids=IDS)
def test_each_kept_point_bit_is_the_potential_check_there(
        monkeypatch, size, seed, region_name):
    # The build evaluates the potentials at a kept point from scalar terms
    # made once per evader; each bit a coalition asks for must be what
    # _f_original gives there.  A member of the coalition that kept the
    # point holds there by the same check, and every kept point lies below
    # the tie band and in the ball.
    pursuers, evaders = pose(size, seed)
    current = []
    seen = {}  # (evader index, pursuer): kept points already checked
    placed = {}  # evader index: kept points already checked for place
    program = matching._program
    kept_point = matching._kept_point

    def recorded_program(members, evader, *args):
        group = program(members, evader, *args)
        current[:] = [evaders.index(evader), evader, group[1:]]
        return group

    def checked_kept_point(kept, inside, members):
        ej, evader, balls = current
        for p in range(placed.get(ej, 0), len(kept)):
            assert evader.position[2] + kept[p][2] < -GOAL_TOLERANCE, (ej, p)
            assert all(_ball_g(ball.key, kept[p]) >= 0.0 for ball in balls), (ej, p)
        placed[ej] = len(kept)
        for i in members:
            assert inside[i] >> len(kept) == 0, (members, ej)
            con = _race(pursuers[i], evader)
            for p in range(seen.get((ej, i), 0), len(kept)):
                bit = inside[i] >> p & 1
                assert bit == (_f_original(con, kept[p]) >= 0.0), (i, ej, p)
            seen[ej, i] = len(kept)
        return kept_point(kept, inside, members)

    monkeypatch.setattr(matching, "_program", recorded_program)
    monkeypatch.setattr(matching, "_kept_point", checked_kept_point)
    build_graph_with_results(pursuers, evaders, REGIONS[region_name])
    assert sum(seen.values()) > 0 and sum(placed.values()) > 0
    assert (region_name == "ball") == bool(current[2])


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
