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
of the function's ranks over the domain's cached comparable-pair arrays
(`PosetDomain.pair_arrays`), which check the pair budget
(`poset.MAX_PAIRS`) before any mask or array is built.  This module
owns the certificate: `exact_distances` solves each function once and
caches its certificate on it, under ``vars(f)["exact_distance"]``, as
`isoperimetry.violation_profile` caches the profile.

The exact solver works on a stack: `DistanceCertificate.of_all` takes
functions on one domain as one ``(rows, n)`` rank array, and a single
function is the batch of one.  `exact_distances` solves a function and
its decomposition's parts in one call, so the verification suite solves
each instance once.  Every step runs once per chunk of rows (at most
`poset.PAIR_CHUNK` cells, see `poset.row_chunks`): the monotonicity test (`violated_cover_edges`, which the decomposition's
checks share), the violated-pair compare, one matching of the disjoint
union of the rows' split graphs, the repair and the certificate's
assertions.  Only monotone rows get the zero certificate; the others'
covers are cut from one scan of their chunk's cover stack.  A
certificate holds no n-tuple: f's rank view and given values, and the
repair as a read-only row of the vertex each point copies; it builds
the repaired function only when it is read.

One bipartite engine, `max_gain_matching`, matches the split graph for
both exact objects: each phase augments, along the layers of one
search, paths of the largest gain, a free left end's key minus a free
right end's key.  The exact solve keys every left vertex 1 and every
right vertex 0, so the engine is Hopcroft-Karp, started from the
violated cover edges (`PosetDomain.pair_is_cover_edge`): each left cell
lists them first, and the engine matches their graph alone before the
whole one.  A maximum matching of the cover edges is nearly a maximum
one of all violated pairs (380 of 380 pairs on a Boolean d = 10 input,
seed 0), so few phases run on the whole graph.  The last search is the
Koenig cover, the same for every maximum matching; neither the warm
start nor the stack a function is solved in changes a certificate.  The
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
    _, pos = _violated_rows(f.domain, f.ranks[None])
    return np.stack([ends.take(pos) for ends in f.domain.pair_arrays], axis=1)


def _violated_rows(domain: PosetDomain, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row, pair)`` arrays of every violated comparable pair of each row
    of a ``(rows, n)`` rank stack, the pair as its position in
    `PosetDomain.pair_arrays`: row by row, each row's pairs in that order."""
    lower, upper = domain.pair_arrays
    violated = np.flatnonzero(ranks.take(lower, axis=1) > ranks.take(upper, axis=1))
    return np.divmod(violated, max(len(lower), 1))  # 2-D nonzero is 4x slower


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

    @classmethod
    def of_all(cls, fs: Sequence[ValuedFunction]) -> list["DistanceCertificate"]:
        """Solve one or more functions on one domain as one ``(rows, n)``
        rank stack; callers use `exact_distances`, which caches each
        certificate on its function.

        Monotone rows get the zero certificate from one cover-edge compare.
        The others are compared over the comparable pairs in row chunks of
        at most `poset.PAIR_CHUNK` cells.  A chunk is one bipartite graph,
        the disjoint union of its rows' split graphs on the cells
        ``row * n + x``: one `max_gain_matching` call, with every pair
        gaining 1, is Hopcroft-Karp started from the violated cover edges,
        and gives its matching and its Koenig cover; the cover is checked,
        repaired and counted as one ``(rows, n)`` stack.
        """
        domain = fs[0].domain
        if any(f.domain is not domain for f in fs):
            raise ValueError("a batch of exact solves must share one domain")
        n = domain.n
        ranks = np.stack([f.ranks for f in fs])
        todo = np.flatnonzero(np.concatenate(
            [violated.any(axis=1) for _, violated in violated_cover_edges(domain, ranks)]))
        solved = {}
        # a stack of monotone rows reads no pair arrays, so it fits at any size
        width = max(len(domain.pair_arrays[0]), n) if len(todo) else n
        for rows in row_chunks(len(todo), width):
            block = ranks[todo[rows]]
            lower, upper = domain.pair_arrays
            row, pos = _violated_rows(domain, block)
            # left cells ascending, each one's violated cover edges first,
            # then its other violated pairs, each run in pair order; every
            # pair gains 1, and the cover edges start the matching
            edge = domain.pair_is_cover_edge.take(pos)
            lefts = row * n + lower.take(pos)
            order = np.argsort(lefts * 2 + ~edge, kind="stable")
            lefts, rights = lefts[order], (row * n + upper.take(pos))[order]
            matching, cover_left, cover_right = max_gain_matching(
                lefts, rights, [1] * block.size, [0] * block.size, edge[order])
            assert len(cover_left) + len(cover_right) == len(matching), \
                "Koenig cover size must equal the matching size"
            covered = np.zeros((2, block.size), dtype=bool)
            covered[0, list(cover_left)] = covered[1, list(cover_right)] = True
            assert np.all(covered[0, lefts] | covered[1, rights]), \
                "Koenig construction left a violated pair uncovered"
            cover = (covered[0] | covered[1]).reshape(block.shape)

            source = _repair(domain, block, cover)
            repaired = np.take_along_axis(block, source, axis=1)
            assert not any(violated.any() for _, violated in
                           violated_cover_edges(domain, repaired)), \
                "repair produced a non-monotone function"
            changed = np.count_nonzero(repaired != block, axis=1)
            sizes = np.count_nonzero(cover, axis=1)
            bad = np.flatnonzero(changed != sizes)
            assert not len(bad), (f"repair changed {changed[bad[0]]} points of row "
                                  f"{todo[rows][bad[0]]}, its cover has {sizes[bad[0]]}")
            # each row's cover, cut from one scan of the whole stack
            points = (np.flatnonzero(cover) % n).tolist()
            ends = np.cumsum(sizes).tolist()
            source = source.astype(index_dtype(n))
            source.flags.writeable = False
            for i, start, end, row in zip(todo[rows].tolist(), [0, *ends], ends, source):
                solved[i] = Fraction(end - start, n), frozenset(points[start:end]), row
        zero = Fraction(0), frozenset(), None
        return [cls(epsilon, cover, f.domain, f.levels, f.ranks, vars(f).get("values"), row)
                for i, f in enumerate(fs) for epsilon, cover, row in [solved.get(i, zero)]]


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
    firsts = np.flatnonzero(np.r_[True, lefts[1:] != lefts[:-1]])
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


def exact_distances(fs: Sequence[ValuedFunction]) -> list[DistanceCertificate]:
    """`exact_distance` of each function on one domain: the ones not yet
    solved are solved as one batch (`DistanceCertificate.of_all`) and
    cached on their functions."""
    todo = [f for f in fs if "exact_distance" not in vars(f)]
    if todo:
        for f, cert in zip(todo, DistanceCertificate.of_all(todo)):
            vars(f)["exact_distance"] = cert
    return [vars(f)["exact_distance"] for f in fs]


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
    return exact_distances([f])[0]


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
