"""Coalition-to-evader assignment as constrained bipartite matching.

One side of the graph holds every pursuit coalition of up to three
pursuers, the other side the evaders; an edge means the coalition wins
against that evader while every proper subcoalition loses.  Two edges
conflict when their coalitions share a pursuer, so a valid assignment is a
matching that additionally uses each pursuer at most once.  Finding the
largest such matching is NP-hard (pair-only instances encode 3-dimensional
matching), hence both an exact branch-and-bound search and the three-stage
sequential approximation are provided.

The graph build needs only each coalition's kind, the sign of its lowest
altitude.  It goes by increasing coalition size and decides a coalition
without a solve wherever one of three sound tests, tried in this order,
settles it:

- the win bound: a member's body lies inside its dropped sphere, so a
  single whose sphere clears the tie band wins.  It is read off the race
  tuple ``(q, alpha, r)``: only a losing single gets a constraint;
- the kept point: an evasion space only shrinks as pursuers join
  (``ES(S + k) = ES(S) & body_k``), so a point that a losing coalition
  keeps below the tie band shows that a larger coalition loses when every
  further member's potential holds there.  Each kept point carries the
  bitmask of the losing singles whose potentials hold at it, so the test
  is a few integer operations;
- the ray witness: every body is convex and holds the evader, so the
  nearest of a coalition's boundaries along any ray from the evader is a
  point of its closure, and one below the tie band shows that the
  coalition loses.  A pair or triple tries the rays toward the points its
  losing subcoalitions kept.

Only coalitions that no test decides, among them every one near the tie
band, are solved.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import deque
from dataclasses import dataclass

from . import _linalg as la
from ._linalg import Vec
from .geometry import EvaderSpec, PursuerSpec, _f_original, _race
from .interception import (
    GOAL_TOLERANCE,
    Ball,
    GameKind,
    InterceptionResult,
    Region,
    UNBOUNDED,
    _ball_g,
    _Constraint,
    _member_terms,
    _outside,
    _program,
    _sphere_low_z,
    classify_result,
    solve_interception,
    validate_coalition,
)

Coalition = tuple[int, ...]
#: An assignment: sorted ``(coalition_index, evader_id)`` pairs.
Matching = tuple[tuple[int, int], ...]

#: Instances with more edges than this are refused by the exact search.
EXACT_EDGE_GUARD = 64

_DOWN: Vec = (0.0, 0.0, -1.0)


class SizeGuardExceeded(RuntimeError):
    """The exact matcher refused an instance above its size guard."""


@dataclass(frozen=True)
class GameGraph:
    """Bipartite coalition-evader graph with an implicit conflict relation.

    ``edges`` reference coalitions by index into ``coalitions``; two edges
    conflict exactly when their coalitions differ but share a pursuer.
    """

    coalitions: tuple[Coalition, ...]
    evaders: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        coalitions = tuple(validate_coalition(c) for c in self.coalitions)
        evaders = tuple(int(e) for e in self.evaders)
        evader_set = set(evaders)
        edges = []
        for ci, ej in self.edges:
            ci = int(ci)
            ej = int(ej)
            if not 0 <= ci < len(coalitions):
                raise ValueError(f"edge references unknown coalition index {ci}")
            if ej not in evader_set:
                raise ValueError(f"edge references unknown evader id {ej}")
            edges.append((ci, ej))
        object.__setattr__(self, "coalitions", coalitions)
        object.__setattr__(self, "evaders", evaders)
        object.__setattr__(self, "edges", tuple(sorted(set(edges))))

    @classmethod
    def _trusted(cls, coalitions: tuple[Coalition, ...], evaders: tuple[int, ...],
                 edges: tuple[tuple[int, int], ...]) -> GameGraph:
        """A graph from fields already in the form ``__post_init__`` gives
        them (int tuples, sorted distinct edges), skipping its checks."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "coalitions", coalitions)
        object.__setattr__(graph, "evaders", evaders)
        object.__setattr__(graph, "edges", edges)
        return graph

    def edge_key(self, edge: tuple[int, int]) -> tuple[Coalition, int]:
        """Deterministic (members, evader) sort key for an edge."""
        return (self.coalitions[edge[0]], edge[1])


def edges_conflict(s: Coalition, p: Coalition) -> bool:
    """Whether two coalitions cannot be assigned simultaneously."""
    return s != p and bool(set(s) & set(p))


def is_conflict_free(graph: GameGraph, matching) -> bool:
    """Validate a matching: edges of the graph, distinct evaders, no shared
    pursuer (so no coalition twice)."""
    edge_set = set(graph.edges)
    used_evaders: set[int] = set()
    used_pursuers: set[int] = set()
    for ci, ej in matching:
        if (ci, ej) not in edge_set:
            return False
        if ej in used_evaders:
            return False
        members = set(graph.coalitions[ci])
        if members & used_pursuers:
            return False
        used_evaders.add(ej)
        used_pursuers |= members
    return True


def coalition_count(num_pursuers: int) -> int:
    """Number of coalitions of size one to three among ``num_pursuers``."""
    n = int(num_pursuers)
    if n < 1:
        raise ValueError(f"num_pursuers must be >= 1, got {n}")
    return n + n * (n - 1) // 2 + n * (n - 1) * (n - 2) // 6


def all_coalitions(num_pursuers: int) -> tuple[Coalition, ...]:
    """Every coalition of size one to three, sorted by size then members."""
    return _coalition_index(int(num_pursuers))[0]


@functools.lru_cache(maxsize=32)
def _coalition_index(n: int) -> tuple[tuple[Coalition, ...], dict[Coalition, int]]:
    """:func:`all_coalitions` of ``n`` and each coalition's index in it,
    made once per ``n``; callers must not mutate the dict."""
    singles = [(i,) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    triples = [
        (i, j, k)
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    ]
    coalitions = tuple(singles + pairs + triples)
    return coalitions, {c: i for i, c in enumerate(coalitions)}


def _wins_alone(low_z: float, low_err: float, z_e: float) -> bool:
    """Whether a member's dropped sphere, whose lowest point lies ``low_z``
    from an evader at altitude ``z_e`` with rounding bound ``low_err``,
    lies above ``GOAL_TOLERANCE`` by more than its rounding: then so does
    its body, and the member wins alone."""
    return z_e + low_z > GOAL_TOLERANCE + 1e-12 * abs(z_e) + low_err


def _witness(group: list[_Constraint], d: Vec) -> Vec | None:
    """A point of the closure of ``group``'s shaped constraints on the unit
    ray ``d`` from the evader, or None.

    The point is the nearest of their boundaries along the ray, pulled in by
    1e-9 of its distance.  Each boundary meets the ray where
    ``k rho^2 - 2 b rho + m = 0`` with ``b = l + d . q``, at the positive
    root, taken in the form without cancellation.  That root is exact only
    to rounding, so the point is kept only when every potential holds at it.
    """
    d0, d1, d2 = d
    rho = math.inf
    for c in group:
        q, k, l, m = c.form[:4]  # noqa: E741 - named as in _Form
        b = l + d0 * q[0] + d1 * q[1] + d2 * q[2]
        s2 = b * b - k * m
        if not s2 >= 0.0:
            return None
        s = math.sqrt(s2)
        if c.member:  # k < 0 < m, root (b - s) / k
            reach = (b - s) / k if b <= 0.0 else m / (b + s)
        else:  # the ball: k = 1, m <= 0, root b + s
            reach = b + s if b >= 0.0 else m / (b - s)
        if reach < rho:
            rho = reach
    rho *= 1.0 - 1e-9
    y = (rho * d0, rho * d1, rho * d2)
    for c in group:
        # Inline rather than c.value(y): the method call costs as much as
        # the arithmetic, on the build's hottest loop.
        if not (_f_original(c.key, y) if c.member else _ball_g(c.key, y)) >= 0.0:
            return None
    return y


def _kept_point(kept: list[tuple[int, Vec]], want: int) -> Vec | None:
    """The first of ``kept``'s points whose mask holds every bit of
    ``want``, or None.

    Each mask holds the bits of the pursuers whose potentials hold at its
    point, which lies in the ball and below the tie band.  An evasion space
    only shrinks as pursuers join (``ES(S + k) = ES(S) & body_k``), so such a
    point lies in the closure of the coalition ``want`` names, which loses.
    """
    for mask, y in kept:
        if mask & want == want:
            return y
    return None


def build_graph(pursuers: list[PursuerSpec], evaders: list[EvaderSpec],
                region: Region = UNBOUNDED, *, evader_ids=None) -> GameGraph:
    """Build the coalition-evader graph from player geometry.

    An edge joins a coalition to an evader when the coalition does not lose
    (win or tie) while every proper subcoalition loses outright, so edges
    carry exactly the minimal winning coalitions.  Coalitions are examined
    by increasing size: a pair or triple is examined only when all its
    proper subcoalitions lose.  A coalition is solved only when none of
    three tests, tried in order, decides its kind:

    - **win bound**: a single whose dropped sphere (its body with the
      capture-radius term left out, which holds the body) lies above
      ``GOAL_TOLERANCE`` by more than its rounding wins, and its edge is
      recorded unsolved.  The bound comes from the race tuple
      ``(q, alpha, r)``; only a losing single gets a constraint, and the
      evader's ball entry is made with the first one;
    - **kept point**: each losing coalition keeps a point of its closure
      below ``-GOAL_TOLERANCE`` at which every member's potential and the
      ball's hold.  Once every losing single of the evader is known, each
      such point gets the bitmask of the losing singles whose potentials
      hold there, and a pair or triple whose members' bits all lie in one
      point's mask loses, by :func:`_kept_point`;
    - **ray witness**: every body is convex and holds the evader, so along
      a unit ray from the evader the nearest of the coalition's boundaries
      (the ball's sphere included), pulled in by 1e-9 of its distance, is a
      point of the closure once every potential is checked there.  Below
      ``-GOAL_TOLERANCE`` it shows that the coalition loses, and it becomes
      the coalition's kept point.  A single tries the ray to its
      Apollonius sphere's lowest point; a pair or triple tries the rays to
      its members' and sub-pairs' points, then straight down.

    A solved loser's lowest point is a ray target for its supersets, and
    it gets a mask too when its members' potentials and the ball's hold
    there by the same float check.  No test decides a coalition whose
    lowest altitude lies in the tie band ``|z| <= GOAL_TOLERANCE``, so its
    kind comes from its solve.  The solves go through this module's
    ``solve_interception`` and ``classify_result`` only.  A rejected input
    raises what the first single solve to meet it would.
    """
    graph, _ = build_graph_with_results(
        pursuers, evaders, region, evader_ids=evader_ids
    )
    return graph


def build_graph_with_results(pursuers, evaders, region: Region = UNBOUNDED, *,
                             evader_ids=None):
    """As :func:`build_graph`, plus the result of every coalition it solved.

    The second return value maps ``(coalition, evader_id)`` to the
    :class:`~reachavoid.interception.InterceptionResult` of each coalition
    the build solved, and holds no other.
    """
    coalitions, index_of = _coalition_index(len(pursuers))
    if evader_ids is None:
        evader_ids = tuple(range(len(evaders)))
    else:
        evader_ids = tuple(int(i) for i in evader_ids)
        if len(evader_ids) != len(evaders):
            raise ValueError("evader_ids must align with evaders")

    results: dict[tuple[Coalition, int], InterceptionResult] = {}
    edges: list[tuple[int, int]] = []
    ball = region if isinstance(region, Ball) else None
    # The ball checks of each single's solve, made once a player.
    pursuers_out = [ball is not None and _outside(ball, p.position)
                    for p in pursuers]
    for evader, ej in zip(evaders, evader_ids):
        z_e = evader.position[2]
        evader_out = ball is not None and _outside(ball, evader.position)
        # Each losing coalition's point in the evader's frame, by its
        # members: the target of its supersets' rays.
        points: dict[Coalition, Vec] = {}
        # The kept points: those below the tie band at which every potential
        # of their coalition, the ball's included, holds.  Each is queued with
        # its members until every losing single is known (the first pair's
        # test), then kept with its mask.
        queued: list[tuple[Coalition, Vec]] = []
        kept: list[tuple[int, Vec]] = []
        # Each losing single's shaped constraint, and the ball's, which every
        # group of this evader shares.
        shaped: dict[int, _Constraint] = {}
        ball_entry: list[_Constraint] = []

        def loses(members: Coalition, rays) -> bool:
            """Decide ``members`` by a kept point, else by a witness on one of
            ``rays``, else solve it; keep its point when it loses, else
            record its edge."""
            if len(members) > 1:
                for coalition, y in queued:
                    mask = 0
                    for m in losing_singles:
                        if m in coalition or _f_original(shaped[m].key, y) >= 0.0:
                            mask |= 1 << m
                    kept.append((mask, y))
                queued.clear()
                want = 0
                for i in members:
                    want |= 1 << i
                y = _kept_point(kept, want)
                if y is not None:
                    points[members] = y
                    return True
            group = [shaped[i] for i in members] + ball_entry
            for ray in rays:
                y = _witness(group, ray)
                if y is not None and z_e + y[2] < -GOAL_TOLERANCE:
                    points[members] = y
                    queued.append((members, y))
                    return True
            result = solve_interception(members, evader, pursuers, region)
            results[(members, ej)] = result
            kind = classify_result(result, evader, pursuers, region)
            if kind is GameKind.EVADER_WINS:
                y = points[members] = la.sub(result.point, evader.position)
                if z_e + y[2] < -GOAL_TOLERANCE and all(
                        c.value(y) >= 0.0 for c in group):
                    queued.append((members, y))
                return True
            edges.append((index_of[members], ej))
            return False

        def toward(*keys: Coalition):
            """Unit rays to the points of ``keys``, then straight down, each
            ray once: a pair decided by a kept point may keep its member's
            point, and a ray's witness fails the same way every time."""
            tried = set()
            for key in keys:
                y = points[key]
                length = la.norm(y)
                if length > 0.0:
                    ray = la.scale(y, 1.0 / length)
                    if ray not in tried:
                        tried.add(ray)
                        yield ray
            if _DOWN not in tried:
                yield _DOWN

        losing_singles = []
        for i, pursuer in enumerate(pursuers):
            q, alpha, r = con = _race(pursuer, evader)
            d, k, m = _member_terms(con)
            if alpha <= 1.0 or d <= r or pursuers_out[i] or evader_out:
                # The single's solve rejects an input: raise its error.
                _program((i,), evader, pursuers, region)
            if _wins_alone(*_sphere_low_z(q, k, m), z_e):
                edges.append((index_of[(i,)], ej))
                continue
            # A losing single's constraint, with the evader's ball entry
            # made by the first of them.
            member, *ball_con = _program((i,), evader, pursuers,
                                         UNBOUNDED if ball_entry else region)
            if ball_con:
                ball_entry.append(ball_con[0])
                ball_con[0].shape()
            shaped[i] = member
            member.shape()
            # The ray to the lowest point of the member's Apollonius sphere,
            # -(q + alpha |q| e_z), which is its body when r = 0.
            low = (q[0], q[1], q[2] + alpha * d)
            if loses((i,), (la.scale(low, -1.0 / la.norm(low)),)):
                losing_singles.append(i)
        # Increasing indices, so combinations come in all_coalitions order.
        for i, j in itertools.combinations(losing_singles, 2):
            loses((i, j), toward((i,), (j,)))
        for members in itertools.combinations(losing_singles, 3):
            pairs = list(itertools.combinations(members, 2))
            if all(pair in points for pair in pairs):
                i, j, k = members
                loses(members, toward((i,), (j,), (k,), *pairs))
    graph = GameGraph._trusted(coalitions, evader_ids, tuple(sorted(set(edges))))
    return graph, results


def max_bipartite_matching(left_ids, right_ids, edges) -> tuple[tuple, ...]:
    """Maximum-cardinality matching of a plain bipartite graph.

    Hopcroft-Karp: repeated breadth-first layering followed by layered
    augmenting depth-first searches.  Vertices may be any hashable ids;
    adjacency is visited in sorted order so results are deterministic.

    Returns sorted ``(left, right)`` pairs.
    """
    left_ids = sorted(set(left_ids))
    right_set = set(right_ids)
    adjacency: dict = {left: [] for left in left_ids}
    for left, right in edges:
        if left not in adjacency or right not in right_set:
            raise ValueError(f"edge ({left!r}, {right!r}) references unknown vertex")
        adjacency[left].append(right)
    for left in left_ids:
        adjacency[left] = sorted(set(adjacency[left]))

    match_left: dict = {}
    match_right: dict = {}
    INF = float("inf")

    def bfs() -> bool:
        distance = {}
        queue = deque()
        for left in left_ids:
            if left not in match_left:
                distance[left] = 0
                queue.append(left)
        found = INF
        while queue:
            left = queue.popleft()
            if distance[left] >= found:
                continue
            for right in adjacency[left]:
                other = match_right.get(right)
                if other is None:
                    found = min(found, distance[left] + 1)
                elif other not in distance:
                    distance[other] = distance[left] + 1
                    queue.append(other)
        bfs.distance = distance
        return found is not INF

    def dfs(left) -> bool:
        for right in adjacency[left]:
            other = match_right.get(right)
            if other is None or (
                bfs.distance.get(other) == bfs.distance[left] + 1 and dfs(other)
            ):
                match_left[left] = right
                match_right[right] = left
                return True
        bfs.distance[left] = INF
        return False

    while bfs():
        for left in left_ids:
            if left not in match_left:
                dfs(left)
    return tuple(sorted(match_left.items()))


def _greedy_conflict_free(graph: GameGraph, edges) -> list[tuple[int, int]]:
    chosen: list[tuple[int, int]] = []
    used_pursuers: set[int] = set()
    used_evaders: set[int] = set()
    for edge in sorted(edges, key=graph.edge_key):
        members = set(graph.coalitions[edge[0]])
        if edge[1] in used_evaders or members & used_pursuers:
            continue
        chosen.append(edge)
        used_pursuers |= members
        used_evaders.add(edge[1])
    return chosen


def _exact_conflict_free(graph: GameGraph, edges) -> list[tuple[int, int]]:
    """Exact maximum conflict-free matching by depth-first branch and bound.

    Edges are explored grouped by evader, rarest evader first; the bound is
    the count of distinct unassigned evaders still reachable.
    """
    edges = list(edges)
    if not edges:
        return []
    by_evader: dict[int, list[tuple[int, int]]] = {}
    for edge in edges:
        by_evader.setdefault(edge[1], []).append(edge)
    evader_order = sorted(by_evader, key=lambda e: (len(by_evader[e]), e))
    for e in evader_order:
        by_evader[e].sort(key=graph.edge_key)

    best: list[tuple[int, int]] = []
    chosen: list[tuple[int, int]] = []
    used_pursuers: set[int] = set()

    def walk(pos: int) -> None:
        nonlocal best
        if len(chosen) + (len(evader_order) - pos) <= len(best):
            return
        if pos == len(evader_order):
            if len(chosen) > len(best):
                best = list(chosen)
            return
        evader = evader_order[pos]
        for edge in by_evader[evader]:
            members = set(graph.coalitions[edge[0]])
            if members & used_pursuers:
                continue
            chosen.append(edge)
            used_pursuers.update(members)
            walk(pos + 1)
            used_pursuers.difference_update(members)
            chosen.pop()
        walk(pos + 1)  # leave this evader unassigned

    walk(0)
    return best


def exact_mbmc(graph: GameGraph, *, max_edges: int = EXACT_EDGE_GUARD) -> Matching:
    """Optimal conflict-free matching, for instances within the size guard.

    Raises :class:`SizeGuardExceeded` beyond ``max_edges`` edges; callers
    needing an answer anyway should fall back to
    :func:`sequential_matching`.
    """
    if len(graph.edges) > max_edges:
        raise SizeGuardExceeded(
            f"exact matching refused: {len(graph.edges)} edges exceed the "
            f"guard of {max_edges}"
        )
    return tuple(sorted(_exact_conflict_free(graph, graph.edges)))


def sequential_matching(graph: GameGraph) -> Matching:
    """Three-stage approximate conflict-free matching.

    Stage one matches single-pursuer coalitions by maximum bipartite
    matching; stage two matches pair coalitions drawn only from the still
    unmatched pursuers and evaders; stage three does the same for triples.
    Each stage output is conflict-free, so the union is too.  The result is
    within a factor three of optimal.

    Stage two and three subproblems must themselves avoid sharing pursuers
    between pair/triple coalitions, which plain bipartite matching cannot
    express; they are solved exactly by the branch-and-bound search (these
    stage subgraphs are small), with a greedy maximal fallback above the
    size guard.
    """
    singles = [e for e in graph.edges if len(graph.coalitions[e[0]]) == 1]
    stage1 = max_bipartite_matching(
        sorted({e[0] for e in singles}),
        sorted({e[1] for e in singles}),
        singles,
    )
    matched: list[tuple[int, int]] = list(stage1)
    used_pursuers = {
        i for ci, _ in matched for i in graph.coalitions[ci]
    }
    used_evaders = {ej for _, ej in matched}

    for size in (2, 3):
        stage_edges = [
            e for e in graph.edges
            if len(graph.coalitions[e[0]]) == size
            and e[1] not in used_evaders
            and not set(graph.coalitions[e[0]]) & used_pursuers
        ]
        if len(stage_edges) <= EXACT_EDGE_GUARD:
            stage = _exact_conflict_free(graph, stage_edges)
        else:
            stage = _greedy_conflict_free(graph, stage_edges)
        matched.extend(stage)
        for ci, ej in stage:
            used_pursuers |= set(graph.coalitions[ci])
            used_evaders.add(ej)
    return tuple(sorted(matched))


# --------------------------------------------------------------------------
# hard-instance generation from 3-dimensional matching


@dataclass(frozen=True)
class ThreeDMInstance:
    """A 3-dimensional matching instance over three m-element index sets."""

    m: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        m = int(self.m)
        if m < 1:
            raise ValueError(f"instance size must be >= 1, got {m}")
        triples = tuple(
            (int(i), int(j), int(k)) for i, j, k in self.triples
        )
        for triple in triples:
            if any(not 0 <= v < m for v in triple):
                raise ValueError(f"triple {triple} out of range for m={m}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "triples", tuple(sorted(set(triples))))


def reduce_3dm(instance: ThreeDMInstance) -> GameGraph:
    """Encode a 3-dimensional matching instance as a matching-with-conflicts
    instance.

    Elements of the first two index sets become pursuers (the second set
    offset by ``m``); each triple ``(i, j, k)`` becomes an edge from the
    pair coalition ``{i, m+j}`` to evader ``k``.  The shared-pursuer
    conflict rule then forbids exactly the pairs of triples that agree in
    either of the first two coordinates, so the instance has a complete
    conflict-free matching exactly when the original has a perfect
    3-dimensional matching.
    """
    m = instance.m
    pair_coalitions = sorted({(i, m + j) for i, j, _ in instance.triples})
    index_of = {c: idx for idx, c in enumerate(pair_coalitions)}
    edges = sorted(
        (index_of[(i, m + j)], k) for i, j, k in instance.triples
    )
    return GameGraph(
        coalitions=tuple(pair_coalitions),
        evaders=tuple(range(m)),
        edges=tuple(edges),
    )


# --------------------------------------------------------------------------
# plain-document graph exchange, so matching runs without the geometry stack


def graph_to_json(graph: GameGraph) -> str:
    doc = {
        "coalitions": graph.coalitions,
        "evaders": graph.evaders,
        "edges": graph.edges,
    }
    return json.dumps(doc, sort_keys=True)


def _whole(value) -> bool:
    """Whether ``int`` keeps a JSON value whole: false for a boolean or a
    number with a fractional part, which it would silently truncate."""
    return not (isinstance(value, bool)
                or isinstance(value, float) and not value.is_integer())


def _json_list(value, field: str) -> list:
    """``value`` when it is a JSON list; anything else, a string included,
    is a ValueError naming ``field``."""
    if not isinstance(value, list):
        raise ValueError(f"{field}: expected a list, got {value!r}")
    return value


def _json_integers(value, field: str) -> tuple[int | float, ...]:
    """A JSON list of whole numbers as a tuple; a ValueError naming
    ``field`` otherwise."""
    for item in _json_list(value, field):
        if not isinstance(item, (int, float)) or not _whole(item):
            raise ValueError(f"{field}: expected integers, got {item!r}")
    return tuple(value)


def graph_from_json(text: str) -> GameGraph:
    doc = json.loads(text)
    try:
        coalitions = tuple(_json_integers(c, f"coalitions[{i}]") for i, c in
                           enumerate(_json_list(doc["coalitions"], "coalitions")))
        evaders = _json_integers(doc["evaders"], "evaders")
        edges = tuple(_json_integers(e, f"edges[{i}]") for i, e in
                      enumerate(_json_list(doc["edges"], "edges")))
        return GameGraph(coalitions=coalitions, evaders=evaders, edges=edges)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph document: {exc}") from exc
