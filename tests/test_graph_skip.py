"""The graph build's decisions without a solve.

``build_graph_with_results`` solves a coalition only when none of three
tests decides its kind: a single whose dropped sphere lies above the tie
band wins, and a coalition with a point of its closure below the tie band
loses.  That point is either one a subcoalition kept, at which every
further member's potential holds, or the nearest boundary along a ray from
the evader, checked on every potential.  These tests compare the build
against every coalition of up to three solved against each evader, on
seeded poses whose pursuers are barely faster than the evaders, so that
most singles lose, and on the degenerate corpus of ``test_degenerate``.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter

import pytest

from reachavoid import (
    Ball,
    EvaderSpec,
    GameKind,
    PursuerSpec,
    classify_result,
    matching,
    potential,
    solve_interception,
)
from reachavoid.geometry import _race
from reachavoid.interception import GOAL_TOLERANCE, UNBOUNDED, _Constraint
from reachavoid.matching import _wins_alone, all_coalitions, build_graph_with_results

from test_degenerate import REGIMES, corpus
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


def solve_all(pursuers, evaders, region):
    """Per evader, every coalition of up to three solved, nothing decided,
    with its kind."""
    solved = []
    for evader in evaders:
        results = {}
        for members in all_coalitions(len(pursuers)):
            result = solve_interception(members, evader, pursuers, region)
            results[members] = (result,
                                classify_result(result, evader, pursuers, region))
        solved.append(results)
    return solved


@functools.lru_cache(maxsize=None)
def every_solve(size: int, seed: int, region_name: str):
    return solve_all(*pose(size, seed), REGIONS[region_name])


def proper_subsets(members):
    return [sub for size in range(1, len(members))
            for sub in itertools.combinations(members, size)]


def undecided(members, loses) -> bool:
    """Whether every proper subcoalition loses, so that the build must
    either solve ``members`` or decide it without a solve."""
    return all(loses[sub] for sub in proper_subsets(members))


def decisions(graph, results, solved):
    """``(members, evader, decided kind, solved kind)`` of every coalition
    the build decided without a solve.  An edge decided without a solve is
    a pursuit win; any other decided coalition is an evader win."""
    edges = {(graph.coalitions[ci], ej) for ci, ej in graph.edges}
    found = []
    for ej, by_members in enumerate(solved):
        loses = {c: kind is GameKind.EVADER_WINS
                 for c, (_, kind) in by_members.items()}
        for members, (_, kind) in by_members.items():
            if (members, ej) in results or not undecided(members, loses):
                continue
            decided = (GameKind.PURSUIT_WINS if (members, ej) in edges
                       else GameKind.EVADER_WINS)
            found.append((members, ej, decided, kind))
    return found


def mismatched(found):
    return [entry for entry in found if entry[2] is not entry[3]]


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
def test_decided_coalitions_have_the_kind_of_a_fresh_solve(size, seed,
                                                           region_name):
    graph, results = build(size, seed, region_name)
    found = decisions(graph, results, every_solve(size, seed, region_name))
    assert found and not mismatched(found)


@pytest.mark.parametrize("regime", REGIMES)
def test_decided_coalitions_of_the_degenerate_corpus_have_their_solved_kind(
        regime):
    sizes = Counter()
    for _, evader, pursuers, region in corpus(regime):
        graph, results = build_graph_with_results(pursuers, [evader], region)
        found = decisions(graph, results, solve_all(pursuers, [evader], region))
        assert not mismatched(found), (pursuers, evader, region)
        sizes.update(len(members) for members, *_ in found)
    # Every regime decides singles and pairs without a solve.
    assert sizes[1] > 0 and sizes[2] > 0, sizes


def record_kept_points(monkeypatch, evaders, events):
    """Wrap the build's kept-point decision so that each call appends
    ``("kept", coalition, evader index, point or None)`` to ``events``.

    The evader is the one whose singles ``_program`` last built: the build
    builds every losing single of an evader before it decides any larger
    coalition of that evader, and a pair or triple has losing singles."""
    current = []
    program = matching._program
    kept_point = matching._kept_point

    def recorded_program(members, evader, *args):
        current[:] = [evaders.index(evader)]
        return program(members, evader, *args)

    def recorded(kept, want):
        y = kept_point(kept, want)
        coalition = tuple(i for i in range(want.bit_length()) if want >> i & 1)
        events.append(("kept", coalition, current[0], y))
        return y

    monkeypatch.setattr(matching, "_program", recorded_program)
    monkeypatch.setattr(matching, "_kept_point", recorded)


@pytest.mark.parametrize("size,seed,region_name", CASES, ids=IDS)
def test_skipped_coalitions_lose_at_the_point_they_were_skipped_for(
        monkeypatch, size, seed, region_name):
    pursuers, evaders = pose(size, seed)
    region = REGIONS[region_name]
    owner = {_race(p, e): (i, ej) for ej, e in enumerate(evaders)
             for i, p in enumerate(pursuers)}
    # (coalition, evader index, point) of every point that the witness test
    # or a kept point gave
    found = []
    witness = matching._witness

    def recorded(group, ray):
        y = witness(group, ray)
        if y is not None:
            members = [owner[c.key] for c in group if c.member]
            found.append((tuple(i for i, _ in members), members[0][1], y))
        return y

    monkeypatch.setattr(matching, "_witness", recorded)
    kept = []
    record_kept_points(monkeypatch, evaders, kept)
    graph, results = build_graph_with_results(pursuers, evaders, region)
    decided = [(members, ej, y) for _, members, ej, y in kept if y is not None]
    found.extend(decided)
    solved = every_solve(size, seed, region_name)
    witnessed = {}
    for coalition, ej, y in found:
        evader = evaders[ej]
        x = tuple(a + b for a, b in zip(evader.position, y))
        if x[2] >= -GOAL_TOLERANCE:
            continue  # a closure point in or above the tie band decides nothing
        # The point lies in the coalition's closure, so its solve reaches
        # at least as low, and the coalition loses.
        for i in coalition:
            assert potential(pursuers[i], evader, x) >= -1e-12, (coalition, ej)
        if isinstance(region, Ball):
            assert region.g(x) >= -1e-12, (coalition, ej)
        result, kind = solved[ej][coalition]
        assert kind is GameKind.EVADER_WINS, (coalition, ej)
        assert result.value <= x[2] + 1e-12, (coalition, ej)
        assert (coalition, ej) not in results
        witnessed[(coalition, ej)] = x
    # Every losing coalition decided without a solve was witnessed, by a ray
    # or by a kept point.
    for ej, by_members in enumerate(solved):
        loses = {c: kind is GameKind.EVADER_WINS for c, (_, kind) in by_members.items()}
        for members in by_members:
            if (loses[members] and undecided(members, loses)
                    and (members, ej) not in results):
                assert (members, ej) in witnessed, (members, ej)
    assert witnessed and not mismatched(decisions(graph, results, solved))
    # Kept points decide pairs and triples, each from below the tie band.
    assert {len(members) for members, _, _ in decided} == {2, 3}
    for members, ej, y in decided:
        assert evaders[ej].position[2] + y[2] < -GOAL_TOLERANCE, (members, ej)


def test_skip_reaches_pairs_and_triples_and_leaves_only_multi_active_solves():
    skipped = Counter()
    for case in CASES:
        _, results = build(*case)
        for ej, solved in enumerate(every_solve(*case)):
            loses = {c: kind is GameKind.EVADER_WINS for c, (_, kind) in solved.items()}
            for members in solved:
                if len(members) == 1 or not undecided(members, loses):
                    continue
                result = results.get((members, ej))
                if result is None:
                    skipped[len(members)] += 1
                else:
                    assert set(result.active_set) == set(members), (case, members, ej)
    assert skipped[2] >= 1 and skipped[3] >= 1, skipped


@pytest.mark.parametrize("region_name", list(REGIONS))
def test_witness_work_is_lazy_and_done_once(monkeypatch, region_name):
    pursuers, evaders = pose(8, 3)
    region = REGIONS[region_name]
    owner = {_race(p, e): (i, ej) for ej, e in enumerate(evaders)
             for i, p in enumerate(pursuers)}
    events = []
    rays = Counter()
    witness = matching._witness
    solve = matching.solve_interception

    def recorded_witness(group, ray):
        members = [owner[c.key] for c in group if c.member]
        y = witness(group, ray)
        events.append(("witness", tuple(i for i, _ in members), members[0][1], y))
        rays[events[-1][1:3], ray] += 1
        return y

    def recorded_solve(members, evader, *args, **kwargs):
        events.append(("solve", tuple(members), evaders.index(evader), None))
        return solve(members, evader, *args, **kwargs)

    monkeypatch.setattr(matching, "_witness", recorded_witness)
    monkeypatch.setattr(matching, "solve_interception", recorded_solve)
    record_kept_points(monkeypatch, evaders, events)
    graph, results = build_graph_with_results(pursuers, evaders, region)
    solved = every_solve(8, 3, region_name)

    singles = Counter()
    tried = set()
    done = set()
    by_kept = 0
    for step, members, ej, y in events:
        key = (members, ej)
        # Nothing more is tried for a coalition once it is decided or solved;
        # one decided by a kept point reaches no witness and no solve.
        assert key not in done, key
        loses = {c: kind is GameKind.EVADER_WINS
                 for c, (_, kind) in solved[ej].items()}
        # Only coalitions whose every proper subcoalition loses are tried.
        assert undecided(members, loses), key
        if len(members) == 1:
            # A single has no kept-point test, since no mask is known yet.
            assert step != "kept", key
            if step == "witness":
                singles[key] += 1
        elif step == "kept":
            # A pair or triple tries the kept points once, before anything.
            assert key not in tried, key
        else:
            assert key in tried, key
        tried.add(key)
        if step == "kept" and y is not None:
            by_kept += 1
            done.add(key)
        if step == "solve" or (
                step == "witness" and y is not None
                and evaders[ej].position[2] + y[2] < -GOAL_TOLERANCE):
            done.add(key)
    assert by_kept
    # No coalition tries one ray twice: its witness would fail again.
    assert set(rays.values()) == {1}, [key for key, n in rays.items() if n > 1]
    # Each coalition is solved at most once and every solve is returned.
    solves = [(members, ej) for step, members, ej, _ in events if step == "solve"]
    assert len(solves) == len(set(solves)) == len(results)
    # A single tries one ray, unless its win bound decides it first.
    assert set(singles.values()) == {1}
    bound = [(members, ej) for members, ej in
             ((graph.coalitions[ci], ej) for ci, ej in graph.edges)
             if len(members) == 1 and (members, ej) not in singles]
    assert bound and all(key not in results for key in bound)


#: Three barely faster pursuers whose singles all lose; the point that
#: pursuer 0's single keeps lies inside pursuers 1's and 2's bodies too.
KEPT_EVADER = EvaderSpec((0.0, 0.0, 1.0), 1.0)
KEPT_PURSUERS = [PursuerSpec((1.0, 0.0, 1.0), 1.1, 0.1),
                 PursuerSpec((2.0, 1.0, 1.5), 1.1, 0.1),
                 PursuerSpec((2.0, -1.0, 1.5), 1.1, 0.1)]


@pytest.mark.parametrize("region_name", list(REGIONS))
def test_a_kept_point_inside_further_members_decides_without_a_ray(
        monkeypatch, region_name):
    region = REGIONS[region_name]
    tried = Counter()
    witness = matching._witness
    solve = matching.solve_interception

    def recorded_witness(group, ray):
        tried["witness", sum(c.member for c in group)] += 1
        return witness(group, ray)

    def recorded_solve(members, *args, **kwargs):
        tried["solve", len(members)] += 1
        return solve(members, *args, **kwargs)

    monkeypatch.setattr(matching, "_witness", recorded_witness)
    monkeypatch.setattr(matching, "solve_interception", recorded_solve)
    graph, results = build_graph_with_results(KEPT_PURSUERS, [KEPT_EVADER], region)
    # One ray a single; no ray and no solve for any pair or the triple.
    assert tried == Counter({("witness", 1): 3}), tried
    assert graph.edges == () and results == {}
    for members in all_coalitions(3):
        result = solve(members, KEPT_EVADER, KEPT_PURSUERS, region)
        kind = classify_result(result, KEPT_EVADER, KEPT_PURSUERS, region)
        assert kind is GameKind.EVADER_WINS, members


@pytest.mark.parametrize("region_name", list(REGIONS))
def test_no_kept_point_decides_another_evaders_coalition(region_name):
    pursuers, evaders = pose(8, 3)
    graph, results = build(8, 3, region_name)
    ids = list(range(len(evaders)))[::-1]
    reversed_graph, reversed_results = build_graph_with_results(
        pursuers, evaders[::-1], REGIONS[region_name], evader_ids=ids)
    assert reversed_graph.edges == graph.edges
    assert sorted(reversed_results) == sorted(results)


def test_witness_groups_share_one_ball_entry_per_evader(monkeypatch):
    pursuers, evaders = pose(8, 3)
    owner = {_race(p, e): (i, ej) for ej, e in enumerate(evaders)
             for i, p in enumerate(pursuers)}
    groups = []
    witness = matching._witness

    def recorded(group, ray):
        groups.append(list(group))
        return witness(group, ray)

    monkeypatch.setattr(matching, "_witness", recorded)
    build_graph_with_results(pursuers, evaders, BALL)
    balls = {}
    sizes = Counter()
    for group in groups:
        *members, ball = group
        assert all(c.member for c in members) and not ball.member
        owners = [owner[c.key] for c in members]
        ej = owners[0][1]
        coalition = [i for i, _ in owners]
        assert {e for _, e in owners} == {ej}
        assert coalition == sorted(set(coalition)), coalition
        centre = tuple(c - x for c, x in zip(BALL.center, evaders[ej].position))
        assert ball.key == (centre, BALL.radius)
        # Every group of one evader holds the same ball entry.
        assert balls.setdefault(ej, ball) is ball
        sizes[len(members)] += 1
    assert sizes[1] and sizes[2] and sizes[3], sizes


#: Single-pursuer scenes, each shifted vertically so that its lowest
#: altitude sits at a chosen height: zero and positive capture radii,
#: unbounded and in a ball (moved with the scene).
SCENES = [
    (EvaderSpec((0.0, 0.0, 2.0), 1.0), PursuerSpec((1.5, 0.3, 2.4), 1.3, 0.0),
     UNBOUNDED),
    (EvaderSpec((0.2, -0.1, 1.5), 1.0), PursuerSpec((1.5, 0.0, 1.5), 1.1, 0.1),
     UNBOUNDED),
    (EvaderSpec((0.0, 0.5, 1.0), 0.9), PursuerSpec((-1.0, 1.0, 2.0), 2.5, 0.4),
     UNBOUNDED),
    (EvaderSpec((0.0, 0.0, 1.0), 1.0), PursuerSpec((1.0, 0.5, 1.4), 1.2, 0.2),
     Ball((0.0, 0.0, 0.5), 3.0)),
]


def shifted(evader, pursuer, region, height: float):
    """The scene moved vertically so that its single's value is ``height``."""
    dz = height - solve_interception((0,), evader, [pursuer], region).value

    def up(point):
        return (point[0], point[1], point[2] + dz)

    if isinstance(region, Ball):
        region = Ball(up(region.center), region.radius)
    return (EvaderSpec(up(evader.position), evader.speed),
            PursuerSpec(up(pursuer.position), pursuer.speed,
                        pursuer.capture_radius), region)


@pytest.mark.parametrize("height", [-1.5e-7, -5e-8, 5e-8, 1.5e-7])
def test_only_a_single_beyond_the_tie_band_is_decided(height):
    decided = 0
    for scene in SCENES:
        evader, pursuer, region = shifted(*scene, height)
        result = solve_interception((0,), evader, [pursuer], region)
        assert result.value == pytest.approx(height, abs=1e-13)
        kind = classify_result(result, evader, [pursuer], region)
        graph, results = build_graph_with_results([pursuer], [evader], region)
        assert (graph.edges == ((0, 0),)) == (kind is not GameKind.EVADER_WINS)
        if abs(height) < GOAL_TOLERANCE:
            # In the tie band nothing is decided without a solve.
            assert results[((0,), 0)] == result
        elif ((0,), 0) not in results:
            decided += 1
            assert kind is (GameKind.PURSUIT_WINS if graph.edges
                            else GameKind.EVADER_WINS)
    if abs(height) > GOAL_TOLERANCE:
        assert decided >= 1


#: Two evaders; pursuers 0 and 1 win alone against both by the bound, and
#: the barely faster pursuers 2 and 3 above them lose alone to both.
LAZY_EVADERS = [EvaderSpec((0.0, 0.0, 3.0), 1.0), EvaderSpec((1.0, 0.5, 2.5), 1.0)]
LAZY_PURSUERS = [PursuerSpec((0.5, 0.0, 1.0), 2.5, 0.1),
                 PursuerSpec((-0.5, 1.0, 0.8), 3.0, 0.2),
                 PursuerSpec((0.0, 1.5, 4.0), 1.05, 0.1),
                 PursuerSpec((1.5, -1.0, 4.2), 1.1, 0.1)]


@pytest.mark.parametrize("region_name", list(REGIONS))
@pytest.mark.parametrize("losers", [0, 1, 2])
def test_constraints_are_built_for_losing_singles_only(monkeypatch, region_name,
                                                       losers):
    region = REGIONS[region_name]
    pursuers = LAZY_PURSUERS[:2 + losers]
    programs = []
    built = Counter()
    program = matching._program
    init = _Constraint.__init__

    def recorded_program(members, evader, *args):
        programs.append((members, LAZY_EVADERS.index(evader)))
        return program(members, evader, *args)

    def recorded_init(self, key, member):
        built["member" if member else "ball"] += 1
        init(self, key, member)

    monkeypatch.setattr(matching, "_program", recorded_program)
    monkeypatch.setattr(_Constraint, "__init__", recorded_init)
    graph, results = build_graph_with_results(pursuers, LAZY_EVADERS, region)
    # The fast pursuers' singles are edges of both evaders, decided by the
    # win bound; everything else loses without a solve.
    assert graph.edges == ((0, 0), (0, 1), (1, 0), (1, 1)) and results == {}
    # One _program call per losing single, and one ball entry per evader.
    assert programs == [((i,), ej) for ej in range(2) for i in range(2, 2 + losers)]
    assert built == Counter(member=2 * losers,
                            ball=2 * (losers > 0) * (region is BALL)), built


def single_decisions(pursuers, evaders, region, alone: bool = False):
    """The build's single edges decided without a solve, and the singles
    that ``_wins_alone`` of the single's shaped constraint decides.  With
    ``alone`` each pursuer's graph is built without the others, so that no
    pair or triple is solved."""
    built = set()
    for i in range(len(pursuers)) if alone else (None,):
        players = pursuers if i is None else [pursuers[i]]
        graph, results = build_graph_with_results(players, evaders, region)
        built |= {((i,) if alone else graph.coalitions[ci], ej)
                  for ci, ej in graph.edges
                  if len(graph.coalitions[ci]) == 1
                  and (graph.coalitions[ci], ej) not in results}
    shaped = set()
    for ej, evader in enumerate(evaders):
        for i in range(len(pursuers)):
            member = matching._program((i,), evader, pursuers, region)[0]
            member.shape()
            if _wins_alone(member.low_z, member.low_err, evader.position[2]):
                shaped.add(((i,), ej))
    return built, shaped


def with_speeds(pursuers, speed):
    return [PursuerSpec(p.position, speed, p.capture_radius) for p in pursuers]


def single_decision_poses():
    """(name, pursuers, evaders, region, alone) of the poses whose single
    decisions are compared."""
    pursuers, evaders = pose(8, 3)
    for region_name, region in REGIONS.items():
        yield f"8v8-seed3-{region_name}", pursuers, evaders, region, False
    # Evaders of speed 1 against pursuers of speed 1 + eps, each pursuer
    # alone: at 1e-9 the solve of pair (0, 1) against evader 2 does not
    # certify, and only the singles are compared here.
    unit = [EvaderSpec(e.position, 1.0) for e in evaders]
    for eps in (1e-9, 1e-6):
        for region_name, region in REGIONS.items():
            yield (f"alpha-1={eps:g}-{region_name}", with_speeds(pursuers, 1.0 + eps),
                   unit, region, True)
    # Each capture radius within 1e-9 of the pursuer's distance to the
    # evader, for one evader at a time.
    for ej, evader in enumerate(evaders[:3]):
        near = [PursuerSpec(p.position, p.speed,
                            math.dist(p.position, evader.position) - 1e-9)
                for p in pursuers]
        for region_name, region in REGIONS.items():
            yield (f"radius-near-|q|-evader{ej}-{region_name}", near, [evader],
                   region, False)


POSES_OF_SINGLES = list(single_decision_poses())


@pytest.mark.parametrize("name,pursuers,evaders,region,alone", POSES_OF_SINGLES,
                         ids=[entry[0] for entry in POSES_OF_SINGLES])
def test_single_win_bound_is_decided_as_by_its_shaped_constraint(
        name, pursuers, evaders, region, alone):
    built, shaped = single_decisions(pursuers, evaders, region, alone)
    assert built == shaped


def test_single_win_bound_matches_its_shaped_constraint_at_the_threshold():
    # Each scene's players moved up together to the float steps around the
    # shift at which its single's win bound flips.
    flips = 0
    for evader, pursuer, _ in SCENES:

        def moved(dz):
            def up(point):
                return (point[0], point[1], point[2] + dz)
            return ([PursuerSpec(up(pursuer.position), pursuer.speed,
                                 pursuer.capture_radius)],
                    [EvaderSpec(up(evader.position), evader.speed)])

        def wins(dz):
            pursuers, evaders = moved(dz)
            member = matching._program((0,), evaders[0], pursuers, UNBOUNDED)[0]
            member.shape()
            return _wins_alone(member.low_z, member.low_err,
                               evaders[0].position[2])

        lo, hi = -100.0, 100.0  # loses, wins
        assert not wins(lo) and wins(hi)
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if not wins(mid) else (lo, mid)
        dz = lo
        for _ in range(8):
            dz = math.nextafter(dz, -math.inf)
        decided = set()
        for _ in range(17):
            built, shaped = single_decisions(*moved(dz), UNBOUNDED)
            assert built == shaped, dz
            decided.add(bool(shaped))
            dz = math.nextafter(dz, math.inf)
        flips += decided == {True, False}
    assert flips == len(SCENES)
