import itertools
import json
import math
import random

import numpy as np
import pytest

from reachavoid import (
    AssumptionViolation,
    Ball,
    CapturedConfigurationError,
    EvaderSpec,
    GameGraph,
    GameKind,
    PursuerSpec,
    SizeGuardExceeded,
    SolverFailure,
    ThreeDMInstance,
    build_graph,
    classify_kind,
    coalition_count,
    edges_conflict,
    exact_mbmc,
    is_conflict_free,
    max_bipartite_matching,
    reduce_3dm,
    sequential_matching,
    solve_interception,
)
from reachavoid import matching
from reachavoid.cli import graph_from_json, graph_to_json
from reachavoid.matching import EXACT_EDGE_GUARD, all_coalitions

import oracles


def fig3_graph() -> GameGraph:
    """Three pursuers, seven evaders, nine minimal-coalition edges."""
    coalitions = all_coalitions(3)
    index = {c: i for i, c in enumerate(coalitions)}
    edges = [
        (index[(0,)], 0), (index[(0,)], 1),
        (index[(1,)], 1),
        (index[(2,)], 1), (index[(2,)], 2),
        (index[(0, 1)], 3), (index[(0, 2)], 3),
        (index[(1, 2)], 4),
        (index[(0, 1, 2)], 6),
    ]
    return GameGraph(coalitions=coalitions, evaders=tuple(range(7)), edges=tuple(edges))


def random_graph(rng: random.Random, n_p: int, n_e: int,
                 max_size: int = 3) -> GameGraph:
    """Random abstract matching-with-conflicts instance."""
    coalitions = tuple(
        c for c in all_coalitions(n_p) if len(c) <= max_size
    )
    edges = set()
    for ej in range(n_e):
        for _ in range(rng.randint(0, 4)):
            edges.add((rng.randrange(len(coalitions)), ej))
    return GameGraph(
        coalitions=coalitions, evaders=tuple(range(n_e)), edges=tuple(edges)
    )


def test_coalition_count():
    assert coalition_count(3) == 7
    assert coalition_count(1) == 1
    assert coalition_count(8) == 92
    enumerated = sum(
        1 for size in (1, 2, 3) for _ in itertools.combinations(range(8), size)
    )
    assert enumerated == 92
    assert len(all_coalitions(8)) == 92
    for n in (0, -2):
        for count in (coalition_count, all_coalitions):
            with pytest.raises(ValueError, match="must be >= 1"):
                count(n)
    # Numpy integers count as their value.
    assert coalition_count(np.int64(3)) == 7
    assert all_coalitions(np.int32(3)) is all_coalitions(3)


def test_graph_validation():
    with pytest.raises(ValueError):
        GameGraph(coalitions=((0,),), evaders=(0,), edges=((1, 0),))
    with pytest.raises(ValueError):
        GameGraph(coalitions=((0,),), evaders=(0,), edges=((0, 5),))
    with pytest.raises(ValueError, match="got 0.5$"):
        GameGraph(coalitions=((0.5, 1.2),), evaders=(0,), edges=((0, 0),))


def test_graph_refuses_a_repeated_coalition():
    # Edges of two indices of one coalition do not conflict, so a matcher
    # would give both evaders the same pursuer.
    with pytest.raises(ValueError, match=r"coalition \(0,\) is listed more than once"):
        GameGraph(coalitions=((0,), (1,), (0,)), evaders=(0, 1),
                  edges=((0, 0), (2, 1)))


def test_edges_conflict():
    assert edges_conflict((0, 1), (1, 2))
    assert not edges_conflict((0, 1), (0, 1))
    assert not edges_conflict((0, 1), (2, 3))


def test_max_bipartite_matching_basics():
    assert max_bipartite_matching([], [], []) == ()
    complete = [(left, right) for left in "abc" for right in range(3)]
    assert len(max_bipartite_matching("abc", range(3), complete)) == 3
    with pytest.raises(ValueError):
        max_bipartite_matching(["a"], [0], [("b", 0)])


def test_max_bipartite_matching_fig3_singles():
    edges = [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)]
    pairs = max_bipartite_matching([0, 1, 2], [0, 1, 2], edges)
    assert len(pairs) == 3
    # Exhaustive: no 4-matching exists with 3 left vertices.
    assert len({left for left, _ in pairs}) == 3
    assert len({right for _, right in pairs}) == 3


def test_exact_mbmc_fig3():
    graph = fig3_graph()
    best = exact_mbmc(graph)
    assert len(best) == 3
    assert is_conflict_free(graph, best)
    assert oracles.exhaustive_mbmc_size(graph) == 3


def test_exact_mbmc_single_edge_and_guard():
    graph = GameGraph(coalitions=((0,),), evaders=(0,), edges=(((0, 0)),))
    assert len(exact_mbmc(graph)) == 1
    big = random_graph(random.Random(0), 6, 10)
    while len(big.edges) <= 5:
        big = random_graph(random.Random(1), 6, 10)
    with pytest.raises(SizeGuardExceeded):
        exact_mbmc(big, max_edges=5)


def test_exact_mbmc_matches_exhaustive_oracle():
    rng = random.Random(3)
    for _ in range(40):
        graph = random_graph(rng, rng.randint(2, 5), rng.randint(1, 5))
        if len(graph.edges) > 14:
            continue
        best = exact_mbmc(graph)
        assert is_conflict_free(graph, best)
        assert len(best) == oracles.exhaustive_mbmc_size(graph)


def test_is_conflict_free_rejects_invalid_matchings():
    graph = fig3_graph()
    index = {c: i for i, c in enumerate(graph.coalitions)}
    invalid = {
        "non-edge": [(index[(1,)], 0)],
        "repeated evader": [(index[(0,)], 1), (index[(1,)], 1)],
        "repeated coalition": [(index[(0,)], 0), (index[(0,)], 1)],
        "shared pursuer": [(index[(0,)], 0), (index[(0, 1)], 3)],
    }
    for name, matching in invalid.items():
        assert not is_conflict_free(graph, matching), name


def test_graph_refuses_a_repeated_evader_id():
    # Edges to one id from two evaders share a vertex, so a matcher would
    # match at most one of them.
    with pytest.raises(ValueError, match="evader id 0 is listed more than once"):
        GameGraph(coalitions=((0,), (1,)), evaders=(0, 0),
                  edges=((0, 0), (1, 0)))


def test_build_graph_refuses_a_repeated_evader_id():
    # Each pursuer alone wins against each evader: four edges, two matched.
    pursuers = [PursuerSpec((0.0, 0.0, 1.0), 2.0), PursuerSpec((1.0, 0.0, 1.0), 2.0)]
    evaders = [EvaderSpec((0.0, 0.0, 3.0), 1.0), EvaderSpec((1.0, 0.0, 3.0), 1.0)]
    graph = build_graph(pursuers, evaders, evader_ids=(5, 6))
    assert len(graph.edges) == 4 and len(sequential_matching(graph)) == 2
    with pytest.raises(ValueError, match="evader id 5 is listed more than once"):
        build_graph(pursuers, evaders, evader_ids=(5, 5))


def test_build_graph_rejects_misaligned_evader_ids():
    pursuers = [PursuerSpec((0.0, 0.0, 1.0), 2.0)]
    evaders = [EvaderSpec((0.0, 0.0, 3.0), 1.0), EvaderSpec((1.0, 0.0, 3.0), 1.0)]
    with pytest.raises(ValueError, match="evader_ids"):
        build_graph(pursuers, evaders, evader_ids=(0,))


# Each constructor that takes ids refuses floats and bools by value, as
# validate_coalition does, rather than truncating 0.7 to 0 or True to 1.
BAD_IDS = {
    "graph evader": (lambda: GameGraph(coalitions=((0,),), evaders=(0.7,),
                                       edges=((0, 0),)), 0.7),
    "graph edge coalition": (lambda: GameGraph(coalitions=((0,),), evaders=(0,),
                                               edges=((False, 0),)), False),
    "graph edge evader": (lambda: GameGraph(coalitions=((0,),), evaders=(0,),
                                            edges=((0, 0.2),)), 0.2),
    "instance size": (lambda: ThreeDMInstance(m=2.9, triples=()), 2.9),
    "instance triple": (lambda: ThreeDMInstance(m=2, triples=((0, 1.5, 1),)), 1.5),
    "instance bool": (lambda: ThreeDMInstance(m=2, triples=((0, 1, True),)), True),
    "build float id": (lambda: build_graph(
        [PursuerSpec((0.0, 0.0, 1.0), 2.0)], [EvaderSpec((0.0, 0.0, 3.0), 1.0)],
        evader_ids=(2.7,)), 2.7),
    "build bool id": (lambda: build_graph(
        [PursuerSpec((0.0, 0.0, 1.0), 2.0)], [EvaderSpec((0.0, 0.0, 3.0), 1.0)],
        evader_ids=(True,)), True),
    "coalition count float": (lambda: coalition_count(2.9), 2.9),
    "coalition count bool": (lambda: coalition_count(True), True),
    "all coalitions float": (lambda: all_coalitions(2.7), 2.7),
    "all coalitions bool": (lambda: all_coalitions(False), False),
}


@pytest.mark.parametrize("name", BAD_IDS)
def test_ids_are_refused_by_value_not_truncated(name):
    make, bad = BAD_IDS[name]
    with pytest.raises(ValueError, match=f"got {bad!r}$"):
        make()


# Faulty inputs to the graph build, each with the exception type and
# message of the first single solve that rejects it (evaders in turn, each
# against pursuers 0, 1, ...): the build raises exactly that, though it
# decides most singles without a solve.  Pursuer 0 wins alone against both
# evaders, so its own singles are decided by the win bound.  Within one
# evader every input error comes before any solve.
_FAST = PursuerSpec((0.0, 0.0, 1.0), 2.0)
_HOME = EvaderSpec((0.0, 0.0, 3.0), 1.0)
_BALL = Ball((0.0, 0.0, 1.0), 4.0)
_FAULTS = {
    "pursuer not faster": (
        [_FAST, PursuerSpec((1.0, 0.0, 1.0), 0.9)], [_HOME], None,
        AssumptionViolation,
        "pursuer 1 is not faster than the evader (alpha=0.9)"),
    "evader inside a capture radius": (
        [_FAST, PursuerSpec((1.0, 0.0, 3.0), 1.5, 0.5)],
        [_HOME, EvaderSpec((1.2, 0.0, 3.0), 1.0)], None,
        CapturedConfigurationError,
        "evader is already within capture radius of pursuer 1"),
    "pursuer outside the ball": (
        [_FAST, PursuerSpec((6.0, 0.0, 1.0), 2.0)], [_HOME], _BALL,
        ValueError, "pursuer 1 lies outside the ball play region"),
    "evader outside the ball": (
        [_FAST, PursuerSpec((1.0, 0.0, 1.0), 2.0)],
        [_HOME, EvaderSpec((0.0, 0.0, 6.0), 1.0)], _BALL,
        ValueError, "evader lies outside the ball play region"),
    "slow pursuer 1 and an evader outside the ball": (
        [_FAST, PursuerSpec((1.0, 0.0, 1.0), 0.9)],
        [EvaderSpec((0.0, 0.0, 6.0), 1.0)], _BALL,
        ValueError, "evader lies outside the ball play region"),
    "pursuer 0 outside the ball and slow pursuer 1": (
        [PursuerSpec((6.0, 0.0, 1.0), 2.0), PursuerSpec((1.0, 0.0, 1.0), 0.9)],
        [_HOME], _BALL,
        ValueError, "pursuer 0 lies outside the ball play region"),
}


@pytest.mark.parametrize("fault", list(_FAULTS))
def test_build_graph_rejects_invalid_inputs_as_their_solve_does(fault):
    pursuers, evaders, region, error, message = _FAULTS[fault]
    args = (pursuers, evaders) if region is None else (pursuers, evaders, region)
    with pytest.raises(error) as raised:
        build_graph(*args)
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_an_evaders_input_errors_come_before_its_solves(monkeypatch):
    # Pursuer 0 loses alone, so its single would be solved; pursuer 1 is
    # not faster than the evader.
    pursuers = [PursuerSpec((0.0, 0.0, 3.0), 1.05, 0.1),
                PursuerSpec((2.0, 0.0, 1.0), 1.0)]
    evaders = [EvaderSpec((0.0, 0.0, 1.0), 1.0)]

    def failed(*args):
        raise SolverFailure("forced")

    monkeypatch.setattr(matching, "_witness", lambda group, ray: None)
    monkeypatch.setattr(matching, "solve_interception", failed)
    with pytest.raises(AssumptionViolation, match="pursuer 1 is not faster"):
        build_graph(pursuers, evaders)


def test_solve_checks_every_member_before_the_ball():
    # The build meets pursuer 0 outside the ball first (see _FAULTS), but
    # the pair's solve checks both members' speeds before any position.
    pursuers, evaders, region, _, _ = _FAULTS[
        "pursuer 0 outside the ball and slow pursuer 1"]
    with pytest.raises(AssumptionViolation) as raised:
        solve_interception((0, 1), evaders[0], pursuers, region)
    assert str(raised.value) == ("pursuer 1 is not faster than the evader "
                                 "(alpha=0.9)")


def test_sequential_matching_fig3():
    graph = fig3_graph()
    pairs = sequential_matching(graph)
    assert len(pairs) == 3
    assert is_conflict_free(graph, pairs)
    matched = {(graph.coalitions[ci], ej) for ci, ej in pairs}
    assert matched == {((0,), 0), ((1,), 1), ((2,), 2)}


def test_sequential_matching_triples_only():
    coalitions = all_coalitions(3)
    index = {c: i for i, c in enumerate(coalitions)}
    graph = GameGraph(
        coalitions=coalitions, evaders=(0,), edges=((index[(0, 1, 2)], 0),)
    )
    assert len(sequential_matching(graph)) == 1


def test_sequential_matching_conflict_free_and_deterministic():
    rng = random.Random(7)
    for _ in range(50):
        graph = random_graph(rng, rng.randint(2, 6), rng.randint(1, 6))
        pairs = sequential_matching(graph)
        assert is_conflict_free(graph, pairs)
        assert pairs == sequential_matching(graph)


def test_sequential_matching_pair_stage_above_guard_is_maximal():
    # Twelve pursuers form 66 pair coalitions; with two evaders each and no
    # single edges, the pair stage has more edges than the exact search
    # accepts; its local packing still leaves no edge free.
    rng = random.Random(11)
    coalitions = tuple(itertools.combinations(range(12), 2))
    edges = [(ci, ej) for ci in range(len(coalitions))
             for ej in rng.sample(range(8), 2)]
    graph = GameGraph(coalitions=coalitions, evaders=tuple(range(8)),
                      edges=tuple(edges))
    assert len(graph.edges) > EXACT_EDGE_GUARD
    pairs = sequential_matching(graph)
    assert pairs
    assert is_conflict_free(graph, pairs)
    used_pursuers = {i for ci, _ in pairs for i in graph.coalitions[ci]}
    used_evaders = {ej for _, ej in pairs}
    for ci, ej in graph.edges:
        assert ej in used_evaders or set(graph.coalitions[ci]) & used_pursuers
    assert sequential_matching(graph) == pairs


def test_sequential_matching_trades_the_first_triple_above_guard():
    # The first triple in edge order shares a part with each of the four
    # triples of the optimum, and padding triples holding pursuer 0 push
    # the stage past the guard.  A greedy stage keeps the first triple
    # alone; a trade of it for two of the optimum's frees the other two.
    optimum = [((0, 3, 4), 1), ((1, 5, 6), 2), ((2, 7, 8), 3), ((9, 10, 11), 0)]
    padding = [((0, j, k), ej) for j, k in itertools.combinations(range(1, 12), 2)
               for ej in (1, 2) if (j, k) not in ((1, 2), (3, 4))]
    named = [((0, 1, 2), 0)] + optimum + padding
    coalitions = tuple(sorted({members for members, _ in named}))
    index = {c: i for i, c in enumerate(coalitions)}
    graph = GameGraph(coalitions=coalitions, evaders=tuple(range(4)),
                      edges=tuple((index[c], ej) for c, ej in named))
    assert len(graph.edges) > EXACT_EDGE_GUARD
    assert graph.edges[0] == (index[(0, 1, 2)], 0)
    pairs = sequential_matching(graph)
    assert is_conflict_free(graph, pairs)
    assert sorted((graph.coalitions[ci], ej) for ci, ej in pairs) == sorted(optimum)
    assert len(exact_mbmc(graph, max_edges=len(graph.edges))) == 4


@pytest.mark.parametrize("size, factor", [(2, 2), (3, 3)])
def test_sequential_matching_bound_on_planted_instances_above_guard(size, factor):
    # Each evader gets one planted coalition of ``size`` random pursuers,
    # disjoint from the others', so the optimum matches every evader and
    # uses no triple when the plants are pairs.  Every other edge takes
    # its members from distinct plants, so it blocks up to size + 1 of
    # them, and all of them meet in one stage above the guard.
    rng = random.Random(size)
    for _ in range(40):
        n_e = rng.randint(6, 12)
        labels = rng.sample(range(size * n_e), size * n_e)
        plants = [tuple(sorted(labels[size * ej:size * ej + size]))
                  for ej in range(n_e)]
        named = {(members, ej) for ej, members in enumerate(plants)}
        while len(named) <= EXACT_EDGE_GUARD + 20:
            members = tuple(sorted(rng.choice(plants[ej])
                                   for ej in rng.sample(range(n_e), size)))
            named.add((members, rng.randrange(n_e)))
        coalitions = tuple(sorted({members for members, _ in named}))
        index = {c: i for i, c in enumerate(coalitions)}
        graph = GameGraph(coalitions=coalitions, evaders=tuple(range(n_e)),
                          edges=tuple((index[c], ej) for c, ej in named))
        pairs = sequential_matching(graph)
        assert is_conflict_free(graph, pairs)
        assert factor * len(pairs) >= n_e, (n_e, pairs)


def test_approximation_bounds_random_instances():
    rng = random.Random(11)
    for k in range(200):
        max_size = (1, 2, 3)[k % 3]
        graph = random_graph(rng, rng.randint(2, 6), rng.randint(1, 6), max_size)
        if len(graph.edges) > 40:
            continue
        opt = exact_mbmc(graph)
        sma = sequential_matching(graph)
        assert 3 * len(sma) >= len(opt)
        sizes = {len(graph.coalitions[ci]) for ci, _ in opt}
        if 3 not in sizes:
            assert 2 * len(sma) >= len(opt)
        if sizes <= {1}:
            assert len(sma) == len(opt)


def test_stage_one_bound():
    # The exact optimum restricted to singles never beats the first-stage
    # maximum matching on singles.
    rng = random.Random(13)
    for _ in range(60):
        graph = random_graph(rng, rng.randint(2, 5), rng.randint(1, 5))
        if len(graph.edges) > 30:
            continue
        opt = exact_mbmc(graph)
        opt_singles = [e for e in opt if len(graph.coalitions[e[0]]) == 1]
        single_edges = [
            e for e in graph.edges if len(graph.coalitions[e[0]]) == 1
        ]
        stage1 = max_bipartite_matching(
            sorted({e[0] for e in single_edges}),
            sorted({e[1] for e in single_edges}),
            single_edges,
        )
        assert len(opt_singles) <= len(stage1)


def test_build_graph_single_winning_pair():
    pursuer = PursuerSpec(position=(0, 0, 1), speed=2.0)
    evader = EvaderSpec(position=(0, 0, 3), speed=1.0)
    graph = build_graph([pursuer], [evader])
    assert [(graph.coalitions[ci], ej) for ci, ej in graph.edges] == [((0,), 0)]


def test_build_graph_losing_pair_empty():
    pursuer = PursuerSpec(position=(0, 0, 3), speed=2.0)
    evader = EvaderSpec(position=(0, 0, 1), speed=1.0)
    graph = build_graph([pursuer], [evader])
    assert graph.edges == ()


def test_build_graph_flanking_pair_is_minimal():
    evader = EvaderSpec(position=(0, 0, 1.0), speed=1.0)
    pursuers = [
        PursuerSpec(position=(1.1, 0, 0.9), speed=1.5),
        PursuerSpec(position=(-1.1, 0, 0.9), speed=1.5),
    ]
    for i in (0, 1):
        assert classify_kind((i,), evader, pursuers) is GameKind.EVADER_WINS
    assert classify_kind((0, 1), evader, pursuers) is GameKind.PURSUIT_WINS
    graph = build_graph(pursuers, [evader])
    assert [(graph.coalitions[ci], ej) for ci, ej in graph.edges] == [((0, 1), 0)]


def test_build_graph_minimality_invariant():
    rng = random.Random(17)
    pursuers = [oracles.random_pose(rng, 1)[0][0] for _ in range(4)]
    evaders = [oracles.random_pose(rng, 1)[1] for _ in range(3)]
    graph = build_graph(pursuers, evaders)
    assert len(graph.coalitions) == coalition_count(4)
    for ci, ej in graph.edges:
        members = graph.coalitions[ci]
        evader = evaders[ej]
        assert classify_kind(members, evader, pursuers) is not GameKind.EVADER_WINS
        for size in range(1, len(members)):
            for sub in itertools.combinations(members, size):
                assert classify_kind(sub, evader, pursuers) is GameKind.EVADER_WINS


def test_build_graph_edges_are_exactly_the_minimal_winners():
    # A ring of three slow pursuers holds the first evader only together;
    # the other players are random, and for some evader two losing pairs of
    # a triple share a member while its third pair wins.  Per evader, the edges are every
    # coalition that does not lose while all its proper subsets do.
    rng = random.Random(24)
    pursuers = [PursuerSpec((1.2 * math.cos(a), 1.2 * math.sin(a), 0.2), 1.2, 0.1)
                for a in (0.0, 2.1, 4.2)]
    pursuers += [
        PursuerSpec(position=(rng.uniform(-2, 2), rng.uniform(-2, 2),
                              rng.uniform(0.2, 1.5)),
                    speed=rng.uniform(1.1, 1.6),
                    capture_radius=rng.uniform(0.05, 0.2))
        for _ in range(3)
    ]
    evaders = [EvaderSpec((0.0, 0.0, 1.0), 1.0)]
    evaders += [
        EvaderSpec(position=(rng.uniform(-1, 1), rng.uniform(-1, 1),
                             rng.uniform(1.5, 2.5)), speed=1.0)
        for _ in range(3)
    ]
    graph = build_graph(pursuers, evaders)
    expected = []
    for ej, evader in enumerate(evaders):
        loses = {c: classify_kind(c, evader, pursuers) is GameKind.EVADER_WINS
                 for c in all_coalitions(len(pursuers))}
        for ci, members in enumerate(all_coalitions(len(pursuers))):
            subsets = [sub for size in range(1, len(members))
                       for sub in itertools.combinations(members, size)]
            if not loses[members] and all(loses[sub] for sub in subsets):
                expected.append((ci, ej))
    assert sorted(graph.edges) == sorted(expected)
    assert {len(graph.coalitions[ci]) for ci, _ in graph.edges} == {1, 2, 3}


def test_built_graph_equals_the_validated_graph_of_its_fields():
    # The build assembles its graph without re-validating it; the result
    # must be the graph the validating constructor makes of the same fields.
    rng = random.Random(5)
    pursuers = [oracles.random_pose(rng, 1)[0][0] for _ in range(5)]
    evaders = [oracles.random_pose(rng, 1)[1] for _ in range(4)]
    for evader_ids in (None, (7, 3, 11, 2)):
        graph = build_graph(pursuers, evaders, evader_ids=evader_ids)
        assert graph.edges
        assert graph == GameGraph(coalitions=graph.coalitions,
                                  evaders=graph.evaders, edges=graph.edges)
        assert graph.coalitions is all_coalitions(5)


def test_three_dm_instance_validation():
    with pytest.raises(ValueError):
        ThreeDMInstance(m=0, triples=())
    with pytest.raises(ValueError):
        ThreeDMInstance(m=2, triples=((0, 0, 2),))


def test_reduce_3dm_tiny_instances():
    one = ThreeDMInstance(m=1, triples=((0, 0, 0),))
    graph = reduce_3dm(one)
    assert len(graph.coalitions) == 1
    assert graph.coalitions[0] == (0, 1)
    assert len(graph.edges) == 1
    assert len(exact_mbmc(graph)) == 1

    shared = ThreeDMInstance(m=2, triples=((0, 0, 0), (0, 1, 1)))
    assert not oracles.brute_force_3dm(shared)
    assert len(exact_mbmc(reduce_3dm(shared))) == 1

    disjoint = ThreeDMInstance(m=2, triples=((0, 0, 0), (1, 1, 1)))
    assert oracles.brute_force_3dm(disjoint)
    assert len(exact_mbmc(reduce_3dm(disjoint))) == 2


def test_reduce_3dm_soundness_random():
    rng = random.Random(19)
    for _ in range(30):
        m = rng.randint(1, 4)
        n_triples = rng.randint(1, 2 * m + 2)
        triples = {
            (rng.randrange(m), rng.randrange(m), rng.randrange(m))
            for _ in range(n_triples)
        }
        instance = ThreeDMInstance(m=m, triples=tuple(triples))
        graph = reduce_3dm(instance)
        complete = len(exact_mbmc(graph)) == m
        assert complete == oracles.brute_force_3dm(instance)


def test_graph_json_round_trip():
    graph = fig3_graph()
    text = graph_to_json(graph)
    assert graph_from_json(text) == graph
    with pytest.raises(ValueError):
        graph_from_json(json.dumps({"coalitions": [[0]]}))


@pytest.mark.parametrize("doc, message", [
    ({"coalitions": "0", "evaders": [0], "edges": []},
     "coalitions: expected a list, got '0'"),
    ({"coalitions": [["0"]], "evaders": [0], "edges": []},
     "coalitions[0][0]: expected a number"),
    ({"coalitions": [[0]], "evaders": "0", "edges": []},
     "evaders: expected a list, got '0'"),
    ({"coalitions": [[0]], "evaders": [0], "edges": [[0, "0"]]},
     "edges[0][1]: expected a number"),
    ({"coalitions": [[0]], "evaders": [0], "edges": [[0]]},
     "edges[0]: expected 2 entries, got 1"),
    ([1], "top level: expected an object"),
])
def test_graph_from_json_rejects_strings_for_integer_lists(doc, message):
    with pytest.raises(ValueError) as raised:
        graph_from_json(json.dumps(doc))
    assert str(raised.value) == message
