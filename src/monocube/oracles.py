"""Exact ground truth at desk scale.

The violation graph of f puts an edge on every comparable pair (x, y)
with x < y and f(x) > f(y).  The distance to monotonicity times the
vertex count equals its minimum vertex cover.  Because the violation
relation is itself a strict partial order (it inherits transitivity from
the domain order and the value order), independent sets of the violation
graph are exactly its antichains, and the minimum vertex cover can be
read off a maximum matching in the split bipartite graph (Dilworth /
Koenig).  That gives an exact polynomial-time `exact_distance` for
arbitrary real values; for Boolean inputs the split graph degenerates to
the ordinary bipartite violation graph, which is the classical Koenig
fast path.  The tests cross-check it against a branch-and-bound minimum
vertex cover on the general violation graph and a brute-force sweep
over all vertex subsets.

The exact solver starts from the violated pairs: one gather-and-compare
of ranks over the domain's cached comparable-pair arrays
(`PosetDomain.pair_arrays`), which check the pair budget
(`poset.MAX_PAIRS`) before any mask or array is built.  This module
owns the certificate: `exact_distance` solves f once and caches its
certificate on it, under ``vars(f)["exact_distance"]``, as
`isoperimetry.violation_profile` caches the profile.

One solver, `solve_covers`, makes every exact call: for k rank rows on
one domain and a label per vertex, one `max_gain_matching` call on the
domain's n vertices matches each row's violated pairs inside its label,
and the Koenig cover splits by label.  `exact_distance` is the case of
one row with every vertex labelled 0; a decomposition labels each vertex
with the part graph that holds it (`decomposition.Decomposition.epsilons`).
Each row's cover is certified on the whole domain, a chunk of rows at a
time (`poset.row_chunks`), and a row that fails is solved alone.  A
monotone f gets the zero certificate from its cover edges alone
(`violated_cover_edges`, which the decomposition's checks share).  A
certificate holds no n-tuple: f's rank view and given values, and the
repair as a read-only row of the vertex each point copies; it builds
the repaired function only when it is read.

One bipartite engine, `max_gain_matching`, matches the split graph for
both exact objects: each phase augments, along the layers of one
search, paths of the largest gain, a free left end's key minus a free
right end's key.  The exact solve keys every left vertex 1 and every
right vertex 0, so the engine is Hopcroft-Karp, started from the
violated cover edges (`PosetDomain.pair_is_cover_edge`): each left vertex
lists them first, and the engine matches their graph alone before the
whole one.  A maximum matching of the cover edges is nearly a maximum
one of all violated pairs (380 of 380 pairs on a Boolean d = 10 input,
seed 0), so few phases run on the whole graph.  The last search is the
Koenig cover, the same for every maximum matching; neither the warm
start nor the other rows a function is solved with change its cover.  The
decomposition (`decomposition.max_weight_min_card_matching`) keys both
sides by rank and passes no cover edges.  The depth-first search keeps
an explicit stack, so no solve depends on the interpreter's recursion
limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .funcs import ValuedFunction, index_dtype
from .poset import DomainSizeError, PosetDomain, row_chunks


def is_monotone(f: ValuedFunction) -> bool:
    """True iff no cover edge is violated (enough, by transitivity)."""
    return not any(violated.any() for _, violated in
                   violated_cover_edges(f.domain, f.ranks[None]))


def violated_cover_edges(domain: PosetDomain, ranks: np.ndarray
                         ) -> Iterator[tuple[slice, np.ndarray]]:
    """For each chunk of rows (`poset.row_chunks`) of a ``(rows, n)`` rank
    stack on one domain: its slice, and a boolean array with one row per
    function over `PosetDomain.edge_arrays`, True where the function
    violates the cover edge."""
    lower, upper = domain.edge_arrays
    for rows in row_chunks(len(ranks), len(lower)):
        block = ranks[rows]
        yield rows, block.take(lower, axis=1) > block.take(upper, axis=1)


def violated_pairs(f: ValuedFunction) -> np.ndarray:
    """All violated comparable pairs, i.e. the violation graph's edges, as
    an ``(m, 2)`` array of rows (x, y) in `PosetDomain.pair_arrays` order
    (x ascending, then y ascending).  Raises `DomainSizeError` over the
    pair budget."""
    lower, upper = f.domain.pair_arrays
    pos = np.flatnonzero(f.ranks.take(lower) > f.ranks.take(upper))
    return np.stack([lower.take(pos), upper.take(pos)], axis=1)


@dataclass(frozen=True)
class DistanceCertificate:
    epsilon: Fraction
    vertex_cover: frozenset[int]
    # f's domain and rank view, the values f holds (None if it holds none)
    # and the vertex each point of the repair copies, as a read-only row
    # (None when f is monotone).  Not f itself: f caches this certificate,
    # and the reference cycle would keep both alive until a collection.
    domain: PosetDomain
    levels: tuple
    ranks: np.ndarray = field(compare=False)
    given: tuple | None = field(compare=False)
    source: np.ndarray | None = field(compare=False)

    @property
    def cover_size(self) -> int:
        return len(self.vertex_cover)

    @cached_property
    def repaired(self) -> ValuedFunction:
        """The monotone repair of f, built on first read: the function
        whose value at z is f's at ``source[z]``, as f holds it if it does."""
        values = self.given or tuple(map(self.levels.__getitem__, self.ranks.tolist()))
        if self.source is not None:
            values = tuple(map(values.__getitem__, self.source.tolist()))
        return ValuedFunction(self.domain, values)


def max_gain_matching(lefts: Sequence[int], rights: Sequence[int], key_l: Sequence[int],
                      key_r: Sequence[int], prefix: Sequence[bool] | None = None
                      ) -> tuple[list[tuple[int, int]], set[int], set[int]]:
    """A matching of largest weight, and of fewest pairs among those, of
    the edges ``(lefts[i], rights[i])`` (grouped by left vertex, in search
    order), where an edge (u, v) weighs ``key_l[u] - key_r[v]``.  Returns
    its pairs in edge order, and the left vertices the last search missed
    and the right vertices it reached.

    An augmenting path from a free left u to a free right v gains
    key_l[u] - key_r[v]: every inner vertex's key enters once and leaves
    once.  Augmenting a largest-gain path keeps each matching a
    largest-weight one of its size, and the largest gain only falls
    (successive shortest paths), so the phases stop at the first largest
    gain Delta <= 0.  A phase searches layer by layer from the free left
    vertices, one group per key in descending order; a vertex keeps the
    first group and layer that reach it, since a path through it gains
    more from that group.  The search ends at the first group whose key
    minus the lowest right key cannot beat the best gain so far, and a
    group stops after the layer where it meets that bound.  Each group
    that reached gain Delta then augments along its layers, depth first
    with an explicit stack, so no recursion limit applies.  Every path
    found gains Delta on the matching it flips, so it is a largest-gain
    path.

    When all gains are equal and positive (one key_l value, one key_r
    value below it), this is Hopcroft-Karp from a warm start.  ``prefix``,
    read only then, flags a leading run of each left vertex's edges (the
    exact solve flags its cover edges): the engine first matches the
    graph of those edges alone, and then the whole graph from there.
    Each stage starts with a greedy pass, where each free left vertex in
    edge order takes its first free neighbour.  The last search then runs
    from every free left vertex of the whole graph, and the left vertices
    it missed with the right vertices it reached are the Koenig minimum
    vertex cover, the same for every maximum matching.  Against a maximum
    matching M, a left vertex u is reached iff some maximum matching
    leaves u free: flipping the even alternating path that reaches u
    frees it, and if a maximum matching M' leaves u free but M does not,
    the component of M xor M' at u is an even alternating path from u to
    a left vertex that M leaves free.  So the reached left vertices, and
    with them their neighbours, do not depend on the maximum matching
    (the Dulmage-Mendelsohn decomposition), and neither the warm start
    nor the prefix changes the cover.  With unequal gains the last search
    is pruned, and the two sets are not a cover.
    """
    lefts, rights = np.asarray(lefts, dtype=np.int64), np.asarray(rights, dtype=np.int64)
    if not len(lefts):
        return [], set(), set()
    firsts = np.flatnonzero(np.concatenate(([True], lefts[1:] != lefts[:-1])))
    neighbours, starts = rights.tolist(), firsts.tolist()
    adj = {u: neighbours[a:b] for u, a, b in
           zip(lefts[firsts].tolist(), starts, starts[1:] + [len(rights)])}
    free = sorted(adj, key=key_l.__getitem__, reverse=True)  # stable: ties in edge order
    mate_l, mate_r = [-1] * len(key_l), [-1] * len(key_r)
    equal = key_l.count(key_l[0]) == len(key_l) and key_r.count(key_r[0]) == len(key_r)
    low = key_r[0] if equal else min(key_r)  # no free right has a lower key
    greedy = equal and key_l[0] > low
    stages = [adj]
    if greedy and prefix is not None:
        cuts = np.add.reduceat(np.asarray(prefix, dtype=np.int64), firsts).tolist()
        stages.insert(0, {u: vs[:cut] for (u, vs), cut in zip(adj.items(), cuts)})
    # layers count up across groups, phases and stages: a label below the
    # phase's first layer is stale, and one group's layers never meet the next's
    level, first = [-1] * len(key_l), 0
    for graph in stages:
        if greedy:
            for u in free:
                for v in graph[u]:
                    if mate_r[v] < 0:
                        mate_l[u], mate_r[v] = v, u
                        break
        while True:
            free = [u for u in free if mate_l[u] < 0]
            best, groups, base = 0, [], first
            for key, group in itertools.groupby(free, key_l.__getitem__):
                if key - low <= best:
                    break
                roots = list(group)
                for u in roots:
                    level[u] = first
                gain, stop, queue = best - 1, -1, roots.copy()
                for u in queue:
                    if level[u] == stop:
                        break
                    nxt = level[u] + 1
                    for v in graph[u]:
                        w = mate_r[v]
                        if w < 0:
                            if key - key_r[v] > gain:
                                gain = key - key_r[v]
                                if gain == key - low:
                                    stop = nxt
                        elif level[w] < base:
                            level[w] = nxt
                            queue.append(w)
                if gain >= best:
                    if gain > best:
                        best, groups = gain, []
                    groups.append((key, roots))
                first = level[queue[-1]] + 2
            if best <= 0:
                break
            for key, roots in groups:
                for root in roots:
                    # path[k] is the right vertex through which stack[k + 1] was entered
                    stack, path = [(root, iter(graph[root]))], []
                    while stack:
                        u, edges = stack[-1]
                        for v in edges:
                            w = mate_r[v]
                            if w < 0:
                                if key - key_r[v] >= best:
                                    path.append(v)
                                    for (x, _), y in zip(stack, path):
                                        mate_l[x], mate_r[y] = y, x
                                    stack = None
                                    break
                            elif level[w] == level[u] + 1:
                                path.append(v)
                                stack.append((w, iter(graph[w])))
                                break
                        else:
                            level[u] = -2  # a dead end, below every layer
                            stack.pop()
                            if path:
                                path.pop()
    reached = [u for u in adj if level[u] >= base]
    return ([(u, mate_l[u]) for u in adj if mate_l[u] >= 0],
            adj.keys() - reached, {v for u in reached for v in adj[u]})


def exact_distance(f: ValuedFunction) -> DistanceCertificate:
    """Exact distance to monotonicity with a certificate, solved on first
    use and cached on f.

    The cover comes from the Dilworth/Koenig reduction on the violation
    order's split graph: a vertex is kept iff neither of its two copies
    lies in the Koenig cover; kept vertices form a maximum antichain of
    the violation order, i.e. a maximum violation-free set.  The repaired
    function extends f from the kept set by downward maxima, so it is
    monotone and differs from f exactly on the cover.  A monotone input
    gets the zero certificate from its cover edges alone, at any size;
    other inputs over the pair budget raise `DomainSizeError`.
    """
    cert = vars(f).get("exact_distance")
    if cert is None:
        n = f.domain.n
        cover, source = [], None
        if not is_monotone(f):
            (cover,), source = solve_covers(f.domain, f.ranks[None], np.zeros(n, np.int32))
            source = source.astype(index_dtype(n))
            source.flags.writeable = False
        cert = vars(f)["exact_distance"] = DistanceCertificate(
            Fraction(len(cover), n), frozenset(cover), f.domain, f.levels, f.ranks,
            vars(f).get("values"), source)
    return cert


def solve_covers(domain: PosetDomain, ranks: np.ndarray, label: np.ndarray
                 ) -> tuple[list[list[int]], np.ndarray | None]:
    """Minimum vertex covers of the violation graphs of a ``(k, n)`` rank
    stack's rows, from one matching: each row's cover as an ascending
    vertex list, and for one row its repair (`_repair`), else None.

    ``label[x]`` is the row whose violated pairs may end at x, or -1.  The
    rows' violated pairs inside their labels form one bipartite graph on
    the n left and n right vertices, and its Koenig cover, split by label,
    gives each row's cover C_i.  A row passes when its repair off C_i is
    monotone on every cover edge and changes exactly |C_i| points, so C_i
    is a cover, and |C_i| matched pairs carry label i: violated pairs of
    the row with no common left or right end, which join its violation
    order into n - |C_i| chains, so no cover is smaller.  A row that fails
    is solved alone, every vertex labelled 0; a row so labelled must pass.
    """
    k, n = ranks.shape
    lower, upper = domain.pair_arrays
    # each vertex's rank in its label's row; 0 off every row, so that no
    # pair of unlabelled vertices is violated
    own = np.where(label < 0, 0, ranks[label, np.arange(n)])
    pos = np.flatnonzero(own.take(lower) > own.take(upper))
    lefts, rights = lower.take(pos), upper.take(pos)
    same = label.take(lefts) == label.take(rights)
    pos, lefts, rights = pos[same], lefts[same], rights[same]
    # left vertices ascending, each one's violated cover edges first, then
    # its other violated pairs, each run in pair order; the cover edges
    # start the matching
    edge = domain.pair_is_cover_edge.take(pos)
    order = np.argsort(lefts * 2 + ~edge, kind="stable")
    lefts, rights = lefts[order], rights[order]
    matching, cover_left, cover_right = max_gain_matching(
        lefts, rights, [1] * n, [0] * n, edge[order])
    assert len(cover_left) + len(cover_right) == len(matching), \
        "Koenig cover size must equal the matching size"
    covered = np.zeros((2, n), dtype=bool)
    covered[0, list(cover_left)] = covered[1, list(cover_right)] = True
    assert np.all(covered[0, lefts] | covered[1, rights]), \
        "Koenig construction left a violated pair uncovered"
    cover = covered[0] | covered[1]
    points = np.flatnonzero(cover)
    sizes = np.bincount(label.take(points), minlength=k)
    matched = np.bincount(label.take(np.array([u for u, _ in matching], dtype=np.intp)),
                          minlength=k)
    # each row's cover, cut from one list of the points in label order
    points = points[np.argsort(label.take(points), kind="stable")].tolist()
    ends = np.cumsum(sizes).tolist()
    covers = [points[start:end] for start, end in zip([0, *ends], ends)]

    ok = np.empty(k, dtype=bool)
    # a chunk holds (rows, n) repair arrays and (rows, cover edges) compares
    for rows in row_chunks(k, max(n, len(domain.edge_arrays[0]))):
        block = ranks[rows]
        repair = _repair(domain, block, cover & (label == np.arange(k)[rows, None]))
        repaired = np.take_along_axis(block, repair, axis=1)
        monotone = np.concatenate([~violated.any(axis=1) for _, violated in
                                   violated_cover_edges(domain, repaired)])
        changed = np.count_nonzero(repaired != block, axis=1)
        ok[rows] = monotone & (changed == sizes[rows]) & (matched[rows] == sizes[rows])
    source = repair[0]
    for i in np.flatnonzero(~ok).tolist():
        assert k > 1 or label.any(), \
            f"the Koenig cover of a row on all {n} vertices failed its certificate"
        (covers[i],), source = solve_covers(domain, ranks[i:i + 1], np.zeros_like(label))
    return covers, source if k == 1 else None


def _repair(domain: PosetDomain, ranks: np.ndarray, cover: np.ndarray) -> np.ndarray:
    """Monotone extensions keeping each row of a ``(rows, n)`` rank stack
    off its row of the boolean ``(rows, n)`` cover stack, as the vertex
    each point copies: a kept z itself, a covered z the smallest kept x <= z
    of largest value, or the first kept vertex of smallest value when no
    kept x is below z.

    One downward-max closure sweep over the key rank*n + (n-1-x) of the
    kept vertices picks that x for every row and z at once.  As g copies
    the value object at x, a kept vertex echoes its own value, not an
    equal one of another type or sign (0, 0.0, -0.0).
    """
    n = domain.n
    kept = ~cover
    ranks = ranks.astype(np.int64)
    ids = np.arange(n)
    best = domain.down_max(np.where(kept, ranks * n + (n - 1 - ids), -1))
    fallback = np.where(kept, ranks, np.iinfo(np.int64).max).argmin(axis=1)
    return np.where(kept, ids, np.where(best < 0, fallback[:, None], n - 1 - best % n))
