"""A pair or triple tries its kernel with every member active first.

Evasion spaces satisfy ``ES(S + k) = ES(S) & body_k``, so a member inactive
at a coalition's lowest point leaves it with the value of the coalition
without that member.  The pairs and triples the graph build solves almost
always have every member active, and a solve of two or three members tries
that one set before the single path, the other sets and the polish.  A
certified KKT point is the program's unique minimizer, so the order may
change the cost only: every result must be the one the single path, the
ordered tries and the polish give in that order, bit for bit.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from reachavoid import (
    Ball,
    EvaderSpec,
    PursuerSpec,
    SolverFailure,
    solve_interception,
)
from reachavoid import interception
from reachavoid.interception import UNBOUNDED

import oracles
import test_degenerate

# Holds every pursuer and evader that oracles.random_pose draws.
BALL = Ball((0.0, 0.0, 1.0), 5.0)


@pytest.fixture
def calls(monkeypatch):
    """Counts of the single, pair and triple kernels."""
    counts = Counter()

    def counted(name):
        original = getattr(interception, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(interception, name, wrapper)

    for name in ("_solve_single", "_pair_points", "_triple_points"):
        counted(name)
    return counts


def _every_member_binds(size: int, region):
    """The first seeded ``oracles.random_pose`` of ``size`` pursuers whose
    solve has every member active and the ball, if any, inactive."""
    rng = random.Random(f"every-member-{size}")
    members = tuple(range(size))
    while True:
        pursuers, evader = oracles.random_pose(rng, size)
        result = solve_interception(members, evader, pursuers, region)
        if result.active_set == members and not result.region_active:
            return members, evader, pursuers


@pytest.mark.parametrize("region", [UNBOUNDED, BALL], ids=["unbounded", "ball"])
def test_binding_pair_and_triple_take_their_own_kernel_first(calls, region):
    members, evader, pursuers = _every_member_binds(2, region)
    calls.clear()
    solve_interception(members, evader, pursuers, region)
    assert calls == Counter(_pair_points=1), calls

    members, evader, pursuers = _every_member_binds(3, region)
    calls.clear()
    solve_interception(members, evader, pursuers, region)
    assert calls == Counter(_triple_points=1), calls


def _in_order(members, evader, pursuers, region):
    """The result of the single path, the ordered tries and the polish, in
    that order, on a fresh group; None when none certifies."""
    group = interception._program(members, evader, pursuers, region)
    found = (interception._lone(group) or interception._direct(group)
             or interception._polished(group))
    if found is None:
        return None
    return interception._result(members, evader.position, group, *found)


def _pairs_and_triples():
    """Seeded ``oracles.random_pose`` draws of two and three pursuers and
    ``oracles.ring_pose`` draws, whose triples mostly bind all three,
    unbounded and in a ball, then the pairs and triples of 150 draws of each
    regime of the degenerate corpus at seed 8."""
    rng = random.Random("pairs-and-triples")
    for k in range(300):
        if k % 3 == 2:
            pursuers, evader = oracles.ring_pose(rng)
        else:
            pursuers, evader = oracles.random_pose(rng, 2 + k % 3)
        region = BALL if k % 2 else UNBOUNDED
        yield tuple(range(len(pursuers))), evader, pursuers, region
    for regime in test_degenerate.REGIMES:
        for case in test_degenerate.corpus(regime, seed=8, size=150):
            if len(case[0]) > 1:
                yield case


def test_order_changes_only_the_cost():
    paths = Counter()
    for members, evader, pursuers, region in _pairs_and_triples():
        expected = _in_order(members, evader, pursuers, region)
        if expected is None:
            with pytest.raises(SolverFailure):
                solve_interception(members, evader, pursuers, region)
            paths["failed"] += 1
            continue
        result = solve_interception(members, evader, pursuers, region)
        # repr also tells 0.0 from -0.0.
        assert repr(result) == repr(expected), (members, evader, pursuers, region)
        if result.active_set == members and not result.region_active:
            path = "every member"
        elif len(result.active_set) + result.region_active == 1:
            path = "one active"
        else:
            path = "another set"
        paths[path, len(members)] += 1
    for path in ("every member", "one active", "another set"):
        for size in (2, 3):
            assert paths[path, size] >= 20, paths


def test_redundant_member_returns_its_partners_single_point(calls):
    # Pursuer 1 sits high above the evader and is barely faster, so its
    # body holds the lowest point of pursuer 0's.
    evader = EvaderSpec((0.0, 0.0, 2.0), 1.0)
    pursuers = [PursuerSpec((0.5, 0.0, 1.5), 2.0, 0.1),
                PursuerSpec((0.3, 0.4, 5.0), 1.2, 0.1)]
    single = solve_interception((0,), evader, pursuers)
    calls.clear()
    pair = solve_interception((0, 1), evader, pursuers)
    # The pair's kernel does not certify, and _lone does.
    assert calls == Counter(_pair_points=1, _solve_single=2), calls
    assert pair.active_set == (0,)
    assert repr(pair.point) == repr(single.point)
    assert repr(pair.multipliers) == repr((single.multipliers[0], 0.0))
    assert repr(pair) == repr(_in_order((0, 1), evader, pursuers, UNBOUNDED))
