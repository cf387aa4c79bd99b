"""Coalition-to-evader assignment as constrained bipartite matching.

One side of the graph holds every pursuit coalition of up to three
pursuers, the other side the evaders; an edge means the coalition wins
against that evader while every proper subcoalition loses.  Two edges
conflict when their coalitions share a pursuer, so a valid assignment is a
matching that additionally uses each pursuer at most once.  Finding the
largest such matching is NP-hard (pair-only instances encode 3-dimensional
matching), hence an exact branch-and-bound search, for small instances, and
a polynomial three-stage approximation within a factor three of optimal.

The graph build needs only each coalition's kind, the sign of its lowest
altitude.  It goes by increasing coalition size, examines a pair or triple
only when all its proper subcoalitions lose, and decides a coalition
without a solve wherever one of three sound tests, tried in this order,
settles it:

- the win bound: a member's body lies inside its dropped sphere, so a
  single whose sphere clears the tie band by more than its rounding wins.
  It is computed from the form of each single's ``_program`` constraint,
  made before any decision;
- the kept point: a coalition whose evasion space reaches below the tie
  band loses, and an evasion space only shrinks as pursuers join
  (``ES(S + k) = ES(S) & body_k``).  So a point below the tie band at
  which the ball's and every member's potential hold shows that the
  coalition loses, and so does every larger one whose further members'
  potentials hold there.  The build's one test of a candidate point,
  ``keep``, checks exactly that and keeps the point: each undecided single
  keeps the bitmask of the kept points at which its potential holds, and a
  pair or triple whose members' bitmasks share a bit loses at the first
  such point, with no ray and no solve;
- the ray witness: every body is convex and holds the evader, so the
  nearest of a coalition's boundaries along a ray from the evader, the
  ball's sphere included and pulled in by 1e-9, is a candidate point of
  its closure for ``keep``.  A single tries the ray to its Apollonius
  sphere's lowest point.  A pair first tries the ray toward the lowest
  common point of its members' dropped spheres: each sphere holds its
  member's body, so that point estimates where the pair's evasion space
  dips lowest.  Then a pair or triple tries the rays toward its members'
  and sub-pairs' points, then straight down.

A coalition that no test decides is solved, among them every one near the
tie band; a solved loser's lowest point is its supersets' ray target, and
a candidate for ``keep``.  Each losing single ``i`` keeps the bitmask of
the ``j > i`` whose pair ``(i, j)`` loses, so a triple is admitted by its
three pair bits.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass

from . import _linalg as la
from ._linalg import Vec
from .geometry import EvaderSpec, PursuerSpec
from .interception import (
    GOAL_TOLERANCE,
    GameKind,
    InterceptionResult,
    Region,
    UNBOUNDED,
    _circle_low_point,
    _Constraint,
    _Form,
    _index,
    _program,
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
        seen = set()
        for members in coalitions:
            # Edges of two indices of one coalition would not conflict.
            if members in seen:
                raise ValueError(f"coalition {members} is listed more than once")
            seen.add(members)
        evaders = tuple(map(_index, self.evaders))
        evader_set = set(evaders)
        edges = []
        for ci, ej in self.edges:
            ci = _index(ci)
            ej = _index(ej)
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


def _pursuer_count(num_pursuers: int) -> int:
    """``num_pursuers`` as an int; raises unless it is an integer >= 1."""
    n = _index(num_pursuers)
    if n < 1:
        raise ValueError(f"num_pursuers must be >= 1, got {n}")
    return n


def coalition_count(num_pursuers: int) -> int:
    """Number of coalitions of size one to three among ``num_pursuers``."""
    n = _pursuer_count(num_pursuers)
    return n + n * (n - 1) // 2 + n * (n - 1) * (n - 2) // 6


def all_coalitions(num_pursuers: int) -> tuple[Coalition, ...]:
    """Every coalition of size one to three, sorted by size then members."""
    return _coalition_index(_pursuer_count(num_pursuers))[0]


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


def _dropped_sphere(q: Vec, k: float, m: float) -> tuple[Vec, float]:
    """Centre and squared radius of ``k ||y||^2 - 2 y . q + m = 0``, the
    sphere a boundary form becomes with ``l`` dropped; it holds the member's
    body, and it is the boundary itself for zero capture radii and for the
    ball."""
    s = 1.0 / k
    c0 = q[0] * s
    c1 = q[1] * s
    c2 = q[2] * s
    return (c0, c1, c2), c0 * c0 + c1 * c1 + c2 * c2 - m / k


def _sphere_low_point(fa: _Form, fb: _Form) -> Vec | None:
    """The lowest common point of the two forms' dropped spheres, or None
    when they do not meet in a circle or it is horizontal; it aims a pair's
    first witness ray."""
    (a0, a1, a2), ra2 = _dropped_sphere(fa.q, fa.k, fa.m)
    (b0, b1, b2), rb2 = _dropped_sphere(fb.q, fb.k, fb.m)
    n0 = b0 - a0
    n1 = b1 - a1
    n2 = b2 - a2
    d = math.sqrt(n0 * n0 + n1 * n1 + n2 * n2)
    if d == 0.0:
        return None
    s = 1.0 / d
    n0 *= s
    n1 *= s
    n2 *= s
    t = (d * d + ra2 - rb2) / (2.0 * d)
    radius2 = ra2 - t * t
    if radius2 <= 0.0:
        return None
    return _circle_low_point((a0 + n0 * t, a1 + n1 * t, a2 + n2 * t),
                             (n0, n1, n2), radius2)


def _wins_alone(form: _Form, z_e: float) -> bool:
    """Whether the dropped sphere of a member's boundary ``form`` lies above
    ``GOAL_TOLERANCE`` by more than its rounding, against an evader at
    altitude ``z_e``: then so does its body, and the member wins alone."""
    (c0, c1, c2), radius2 = _dropped_sphere(form.q, form.k, form.m)
    radius = math.sqrt(radius2)
    low_err = 1e-12 * (math.sqrt(c0 * c0 + c1 * c1 + c2 * c2) + radius)
    return z_e + (c2 - radius) > GOAL_TOLERANCE + 1e-12 * abs(z_e) + low_err


def _witness(group: list[_Constraint], d: Vec) -> Vec | None:
    """The nearest of ``group``'s shaped boundaries along the unit ray ``d``
    from the evader, pulled in by 1e-9 of its distance, or None.

    Each boundary meets the ray where ``k rho^2 - 2 b rho + m = 0`` with
    ``b = l + d . q``, at the positive root, taken in the form without
    cancellation.  That root is exact only to rounding, so the point is
    only a candidate: the build's ``keep`` decides whether it lies in the
    closure.  No potential is evaluated here.
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
    return (rho * d0, rho * d1, rho * d2)


def _kept_point(kept: list[Vec], inside: list[int],
                members: Coalition) -> Vec | None:
    """The first of ``kept``'s points at which every potential of
    ``members`` holds, or None.

    ``inside[i]`` holds the bits of the kept points, by their index in
    ``kept``, at which pursuer ``i``'s potential holds; every kept point
    lies in the ball and below the tie band.  An evasion space only shrinks
    as pursuers join (``ES(S + k) = ES(S) & body_k``), so a point whose bit
    every member holds lies in the closure of ``members``, which loses.
    """
    common = -1
    for i in members:
        common &= inside[i]
    return kept[(common & -common).bit_length() - 1] if common else None


def build_graph(pursuers: list[PursuerSpec], evaders: list[EvaderSpec],
                region: Region = UNBOUNDED, *, evader_ids=None) -> GameGraph:
    """Build the coalition-evader graph from player geometry.

    An edge joins a coalition to an evader when the coalition does not lose
    (win or tie) while every proper subcoalition loses outright, so edges
    carry exactly the minimal winning coalitions.  A coalition is solved
    only when none of the module's three tests decides its kind, so every
    coalition whose lowest altitude lies in the tie band
    ``|z| <= GOAL_TOLERANCE`` is solved, through this module's
    ``solve_interception`` and ``classify_result`` only.  Each evader's
    singles get their ``_program`` constraints first, in pursuer order, so
    a rejected input raises what the first single solve to meet it would,
    before any of its evader's decisions.
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
        evader_ids = tuple(map(_index, evader_ids))
        if len(evader_ids) != len(evaders):
            raise ValueError("evader_ids must align with evaders")

    results: dict[tuple[Coalition, int], InterceptionResult] = {}
    edges: list[tuple[int, int]] = []
    for evader, ej in zip(evaders, evader_ids):
        z_e = evader.position[2]
        # Each single the win bound leaves undecided, shaped, and the ball
        # entry all of this evader's groups share.  _program raises what the
        # single's solve would, before any of this evader's solves.
        shaped: dict[int, _Constraint] = {}
        ball_entry: list[_Constraint] = []
        # Each shaped single's potential as the scalar terms keep evaluates
        # it from: i, q, the form's k = -(alpha - 1)(alpha + 1), |q|^2,
        # alpha and r.
        terms = []
        for i in range(len(pursuers)):
            member, *ball = _program((i,), evader, pursuers, region)
            form = member.shape()
            if _wins_alone(form, z_e):
                edges.append((index_of[(i,)], ej))
                continue
            if ball and not ball_entry:
                ball[0].shape()
                ball_entry = ball
            shaped[i] = member
            (q0, q1, q2), alpha, r = member.key
            terms.append((i, q0, q1, q2, form.k, q0 * q0 + q1 * q1 + q2 * q2,
                          alpha, r))
        # Each losing coalition's point in the evader's frame, by its
        # members: the target of its supersets' rays.
        points: dict[Coalition, Vec] = {}
        # The kept points.  inside[i] holds the bits, by index in kept, of
        # those at which shaped single i's potential holds.  A pair's or
        # triple's members all lose alone, so only their bits are asked for.
        kept: list[Vec] = []
        inside = [0] * len(pursuers)

        def keep(members: Coalition, y: Vec) -> bool:
            """Whether ``y`` lies below the tie band, in the ball and where
            every potential of ``members`` holds; if so, keep it and set its
            bit for every shaped single whose potential holds there."""
            y0, y1, y2 = y
            if not z_e + y2 < -GOAL_TOLERANCE:
                return False
            for ball in ball_entry:
                if not ball.value(y) >= 0.0:
                    return False
            yy = y0 * y0 + y1 * y1 + y2 * y2
            y_norm = math.sqrt(yy)
            held = []
            for i, q0, q1, q2, k, qq, alpha, r in terms:
                # _f_original's arithmetic in its order, on terms made once.
                d0 = y0 - q0
                d1 = y1 - q1
                d2 = y2 - q2
                if (k * yy - 2.0 * (y0 * q0 + y1 * q1 + y2 * q2) + qq) / (
                        math.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
                        + alpha * y_norm) - r >= 0.0:
                    held.append(i)
                elif i in members:
                    return False
            bit = 1 << len(kept)
            kept.append(y)
            for i in held:
                inside[i] |= bit
            return True

        def loses(members: Coalition, rays) -> bool:
            """Decide ``members`` by the first of ``rays`` whose point
            ``keep`` keeps, else solve it; record its point when it loses,
            else its edge."""
            group = [shaped[i] for i in members] + ball_entry
            for ray in rays:
                y = _witness(group, ray)
                if y is not None and keep(members, y):
                    break
            else:
                result = solve_interception(members, evader, pursuers, region)
                results[(members, ej)] = result
                kind = classify_result(result, evader, pursuers, region)
                if kind is not GameKind.EVADER_WINS:
                    edges.append((index_of[members], ej))
                    return False
                y = la.sub(result.point, evader.position)
                keep(members, y)
            points[members] = y
            return True

        def toward(*targets: Vec | None):
            """Unit rays to the points ``targets`` that are not None, in
            order, then straight down, each ray once: a pair's sphere point
            may lie on a member's ray, a pair decided by a kept point may
            keep its member's point, and a ray's witness fails the same way
            every time."""
            tried = set()
            for y in targets:
                if y is None:
                    continue
                y0, y1, y2 = y
                length = math.sqrt(y0 * y0 + y1 * y1 + y2 * y2)
                if length > 0.0:
                    s = 1.0 / length
                    ray = (y0 * s, y1 * s, y2 * s)
                    if ray not in tried:
                        tried.add(ray)
                        yield ray
            if _DOWN not in tried:
                yield _DOWN

        losing_singles = []
        for i, q0, q1, q2, _, qq, alpha, _ in terms:
            # The ray to the lowest point of the member's Apollonius sphere,
            # -(q + alpha |q| e_z), which is its body when r = 0.
            low2 = q2 + alpha * math.sqrt(qq)
            s = -1.0 / math.sqrt(q0 * q0 + q1 * q1 + low2 * low2)
            if loses((i,), ((q0 * s, q1 * s, low2 * s),)):
                losing_singles.append(i)
        # lost[i] holds the bits of the j > i whose pair (i, j) loses.  A
        # pair or triple asks the kept points first, and builds its rays only
        # when none covers it.  Increasing indices, so pairs and triples come
        # in all_coalitions order.
        lost = [0] * len(pursuers)
        losing_pairs = []
        for i, j in itertools.combinations(losing_singles, 2):
            y = _kept_point(kept, inside, (i, j))
            if y is not None:
                points[i, j] = y
            elif not loses((i, j), toward(
                    _sphere_low_point(shaped[i].form, shaped[j].form),
                    points[i,], points[j,])):
                continue
            lost[i] |= 1 << j
            losing_pairs.append((i, j))
        # A triple (i, j, k) is examined only when its three pairs lose, so k
        # is a bit of both lost[i] and lost[j].
        for i, j in losing_pairs:
            common = lost[i] & lost[j]
            while common:
                bit = common & -common
                common ^= bit
                k = bit.bit_length() - 1
                if _kept_point(kept, inside, (i, j, k)) is None:
                    loses((i, j, k), toward(
                        points[i,], points[j,], points[k,],
                        points[i, j], points[i, k], points[j, k]))
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


def _parts(graph: GameGraph, edge: tuple[int, int]) -> tuple[int, ...]:
    """An edge's pursuers, then its evader ``j`` as part ``~j < 0``."""
    return (*graph.coalitions[edge[0]], ~edge[1])


def _local_packing(graph: GameGraph, edges) -> list[tuple[int, int]]:
    """A conflict-free subset of ``edges`` that no local move enlarges.

    The search adds edges in :meth:`GameGraph.edge_key` order while one
    shares no part (:func:`_parts`) with those chosen, then trades one
    chosen edge for two disjoint edges that share parts with it alone, and
    repeats until neither move applies: the t = 2 local search of Hurkens
    and Schrijver (SIAM J. Discrete Math. 2(1), 1989).  Each trade adds an
    edge, so at most ``len(edges)`` happen.
    """
    edges = sorted(edges, key=graph.edge_key)
    parts = {edge: _parts(graph, edge) for edge in edges}
    owner: dict[int, tuple[int, int]] = {}  # each chosen part's edge
    while True:
        for edge in edges:
            if not any(p in owner for p in parts[edge]):
                owner.update(dict.fromkeys(parts[edge], edge))
        # The unchosen edges that each chosen edge alone blocks.
        alone: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for edge in edges:
            blockers = {owner[p] for p in parts[edge] if p in owner}
            if len(blockers) == 1 and edge not in blockers:
                alone.setdefault(blockers.pop(), []).append(edge)
        trade = next(((chosen, (a, b)) for chosen, free in alone.items()
                      for a, b in itertools.combinations(free, 2)
                      if set(parts[a]).isdisjoint(parts[b])), None)
        if trade is None:
            return sorted(set(owner.values()))
        chosen, pair = trade
        for p in parts[chosen]:
            del owner[p]
        for edge in pair:
            owner.update(dict.fromkeys(parts[edge], edge))


def exact_mbmc(graph: GameGraph, *, max_edges: int = EXACT_EDGE_GUARD) -> Matching:
    """Optimal conflict-free matching, for instances within the size guard.

    Depth-first branch and bound: edges are explored grouped by evader,
    rarest evader first; the bound is the count of distinct unassigned
    evaders still reachable.  Raises :class:`SizeGuardExceeded` beyond
    ``max_edges`` edges; callers needing an answer anyway should fall back
    to :func:`sequential_matching`.
    """
    if len(graph.edges) > max_edges:
        raise SizeGuardExceeded(
            f"exact matching refused: {len(graph.edges)} edges exceed the "
            f"guard of {max_edges}"
        )
    by_evader: dict[int, list[tuple[int, int]]] = {}
    for edge in graph.edges:
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
    return tuple(sorted(best))


def sequential_matching(graph: GameGraph) -> Matching:
    """Three-stage approximate conflict-free matching, in polynomial time.

    Stage one matches single-pursuer coalitions by maximum bipartite
    matching; stage two matches pair coalitions drawn only from the still
    unmatched pursuers and evaders, and stage three does the same for
    triples, each by :func:`_local_packing`.  The union is conflict-free.

    It is within a factor three of optimal, and two of an optimum O with
    no triple.  A local packing A of stage ``s`` is maximal and its edges
    have ``s + 1`` parts, so each edge of a packing B meets A, at most
    ``s + 1`` meet one edge of A, and at most one meets it alone, else a
    trade applies: ``|B| <= (s + 2) / 2 |A|``.  A stage-one edge blocks at
    most two edges of O, and a stage-two edge three, among them every pair
    of O that stage one left free; so ``|O| <= 2 |S1| + 3 |S2| + 5/2
    |S3|``, and ``|O| <= 2 |S1| + 2 |S2|`` when O has no triple.
    """
    singles = [e for e in graph.edges if len(graph.coalitions[e[0]]) == 1]
    matched = list(max_bipartite_matching(
        {e[0] for e in singles}, {e[1] for e in singles}, singles))
    for size in (2, 3):
        used = {p for edge in matched for p in _parts(graph, edge)}
        matched += _local_packing(graph, [
            e for e in graph.edges if len(graph.coalitions[e[0]]) == size
            and used.isdisjoint(_parts(graph, e))])
    return tuple(sorted(matched))


# --------------------------------------------------------------------------
# hard-instance generation from 3-dimensional matching


@dataclass(frozen=True)
class ThreeDMInstance:
    """A 3-dimensional matching instance over three m-element index sets."""

    m: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        m = _index(self.m)
        if m < 1:
            raise ValueError(f"instance size must be >= 1, got {m}")
        triples = tuple(
            (_index(i), _index(j), _index(k)) for i, j, k in self.triples
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
