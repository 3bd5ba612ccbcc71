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
(`poset.MAX_PAIRS`) before any mask or array is built; the exhaustive
coloring search keeps its own cap.  `exact_distance` is solved once per
function: its certificate is cached on the function, like the ranks and
the violation profile.

The exact solver works on a stack: `DistanceCertificate.of_all` takes
functions on one domain as one ``(rows, n)`` rank array, and a single
function is the batch of one.  `exact_distances` solves a function and
its decomposition's parts in one call, so the verification suite solves
each instance once.  Every step runs once per chunk of rows (at most
`poset.PAIR_CHUNK` cells, see `poset.row_chunks`): the monotonicity test (`violated_cover_edges`, which the decomposition's
checks share), the violated-pair compare, one Hopcroft-Karp call on the
disjoint union of the rows' split graphs, whose last breadth-first
search is the Koenig cover, the repair and the certificate's
assertions.  Hopcroft-Karp starts from a greedy matching; the cover is
the same for every maximum matching it could end at (`_hopcroft_karp`),
so the warm start changes no certificate, and neither does the stack a
function is solved in.  Only monotone rows get the zero certificate;
the others' covers are cut from one scan of their chunk's cover stack.
A certificate keeps the repair as the vertex each point copies and
builds the repaired function only when it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .funcs import ValuedFunction
from .isoperimetry import EdgeColoring, robust_objective, violation_profile
from .poset import DomainSizeError, PosetDomain, row_chunks

COLORING_ENUM_CAP = 20


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
    _, lower, upper = _violated_rows(f.domain, f.ranks[None])
    return np.stack((lower, upper), axis=1)


def _violated_rows(domain: PosetDomain, ranks: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(row, x, y)`` arrays of every violated comparable pair of each row
    of a ``(rows, n)`` rank stack: row by row, each row's pairs in
    `PosetDomain.pair_arrays` order."""
    lower, upper = domain.pair_arrays
    violated = np.flatnonzero(ranks.take(lower, axis=1) > ranks.take(upper, axis=1))
    row, pos = np.divmod(violated, max(len(lower), 1))  # 2-D nonzero is 4x slower
    return row, lower.take(pos), upper.take(pos)


@dataclass(frozen=True)
class DistanceCertificate:
    epsilon: Fraction
    vertex_cover: frozenset[int]
    # f's domain and values, and the vertex each point of the repair copies
    # (None when f is monotone).  Not f itself: f caches this certificate,
    # and the reference cycle would keep both alive until a collection.
    domain: PosetDomain
    f_values: tuple
    source: tuple[int, ...] | None = None

    @property
    def cover_size(self) -> int:
        return len(self.vertex_cover)

    @cached_property
    def repaired(self) -> ValuedFunction:
        """The monotone repair of f, built on first read: the function
        whose value at z is f's at ``source[z]``."""
        values = self.f_values
        if self.source is not None:
            values = tuple(map(values.__getitem__, self.source))
        return ValuedFunction(self.domain, values)

    @classmethod
    def of_all(cls, fs: Sequence[ValuedFunction]) -> list["DistanceCertificate"]:
        """Solve functions on one domain as one ``(rows, n)`` rank stack;
        callers use `exact_distances`, which caches each certificate on its
        function.

        Monotone rows get the zero certificate from one cover-edge compare.
        The others are compared over the comparable pairs in row chunks of
        at most `poset.PAIR_CHUNK` cells.  A chunk is one bipartite graph,
        the disjoint union of its rows' split graphs on the cells
        ``row * n + x``: one Hopcroft-Karp call gives its matching and its
        Koenig cover, and the cover is checked, repaired and counted as one
        ``(rows, n)`` stack.
        """
        if not fs:
            return []
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
            row, xs, ys = _violated_rows(domain, block)
            # adjacency in pair order: left cells ascending, each one's
            # right neighbour cells ascending
            lefts, rights = row * n + xs, row * n + ys
            firsts = np.flatnonzero(np.r_[True, lefts[1:] != lefts[:-1]])
            neighbours, starts = rights.tolist(), firsts.tolist()
            adj = {u: neighbours[a:b] for u, a, b in
                   zip(lefts[firsts].tolist(), starts, starts[1:] + [len(row)])}
            matched, cover_left, cover_right = _hopcroft_karp(adj)
            assert len(cover_left) + len(cover_right) == matched, \
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
            for i, start, end, s in zip(todo[rows].tolist(), [0, *ends], ends,
                                        source.tolist()):
                solved[i] = cls(Fraction(end - start, n), frozenset(points[start:end]),
                                domain, fs[i].values, tuple(s))
        return [solved[i] if i in solved else cls(Fraction(0), frozenset(), domain, f.values)
                for i, f in enumerate(fs)]


def _hopcroft_karp(adj: dict[int, list[int]]) -> tuple[int, set[int], set[int]]:
    """Maximum bipartite matching of the left vertices ``adj``'s keys to
    the right vertices in its lists; returns the matching size and the
    left and right parts of the Koenig minimum vertex cover.

    The phase that finds no augmenting path has reached, in ``dist``,
    exactly the left vertices that alternating paths reach from the free
    left vertices; the cover is the left vertices it missed and the
    right vertices it reached.

    The search starts from a greedy matching (each left vertex in ``adj``
    order takes its first free neighbour), which leaves fewer vertices to
    augment and does not change the cover.  Against a maximum matching M,
    a left vertex u is reached iff some maximum matching leaves u free:
    flipping the even alternating path that reaches u frees it, and if a
    maximum matching M' leaves u free but M does not, the component of
    M xor M' at u is an even alternating path from u to a left vertex
    that M leaves free.  So the reached left vertices, and with them their
    neighbours, are the same for every maximum matching (the
    Dulmage-Mendelsohn decomposition), whichever one the search ends at.
    """
    match_l: dict[int, int | None] = {u: None for u in adj}
    match_r: dict[int, int] = {}
    for u, vs in adj.items():
        for v in vs:
            if v not in match_r:
                match_l[u], match_r[v] = v, u
                break
    while True:
        dist = {}
        queue = [u for u in adj if match_l[u] is None]
        for u in queue:
            dist[u] = 0
        found = False
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in adj[u]:
                w = match_r.get(v)
                if w is None:
                    found = True
                elif w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not found:
            return (len(match_r), adj.keys() - dist.keys(),
                    {v for u in dist for v in adj[u]})
        for u in adj:
            if match_l[u] is None:
                _augment(u, adj, match_l, match_r, dist)


def _augment(root: int, adj: dict[int, list[int]], match_l: dict, match_r: dict,
             dist: dict) -> None:
    """One depth-first search for an augmenting path from a free left
    vertex along the BFS layers; flips the path if it finds one.

    The explicit stack visits edges in exactly the order of the recursive
    search, so the matching does not depend on the interpreter's
    recursion limit.  ``path[k]`` is the right vertex through which
    ``stack[k + 1]`` was entered.
    """
    stack = [(root, iter(adj[root]))]
    path: list[int] = []
    while stack:
        u, edges = stack[-1]
        for v in edges:
            w = match_r.get(v)
            if w is None:
                path.append(v)
                for (x, _), y in zip(stack, path):
                    match_l[x] = y
                    match_r[y] = x
                return
            if dist.get(w) == dist[u] + 1:
                path.append(v)
                stack.append((w, iter(adj[w])))
                break
        else:
            dist[u] = math.inf
            stack.pop()
            if path:
                path.pop()


def exact_distances(fs: Sequence[ValuedFunction]) -> list[DistanceCertificate]:
    """`exact_distance` of each function on one domain: the ones not yet
    solved are solved as one batch (`DistanceCertificate.of_all`) and
    cached on their functions."""
    todo = [f for f in fs if "exact_distance" not in vars(f)]
    for f, cert in zip(todo, DistanceCertificate.of_all(todo)):
        vars(f)["exact_distance"] = cert
    return [f.exact_distance for f in fs]


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
    return f.exact_distance


def _repair(domain: PosetDomain, ranks: np.ndarray, cover: np.ndarray) -> np.ndarray:
    """Monotone extensions keeping each row of a ``(rows, n)`` rank stack
    off its row of the boolean ``(rows, n)`` cover stack, as the vertex
    each point copies: row r's g(z) = f(x) for the smallest kept x <= z of
    largest value, falling back to the first kept vertex of smallest value
    when no kept x is below z.

    One downward-max closure sweep over the key rank*n + (n-1-x) of the
    kept vertices picks that x for every row and z at once; g copies the
    value object stored at x, so an int and an equal float are never
    swapped.
    """
    n = domain.n
    kept = ~cover
    ranks = ranks.astype(np.int64)
    best = domain.down_max(np.where(kept, ranks * n + (n - 1 - np.arange(n)), -1))
    fallback = np.where(kept, ranks, np.iinfo(np.int64).max).argmin(axis=1)
    return np.where(best < 0, fallback[:, None], n - 1 - best % n)


def worst_coloring(f: ValuedFunction, mode: str = "exhaustive",
                   restarts: int = 5, seed: int = 0,
                   cap: int = COLORING_ENUM_CAP) -> tuple[EdgeColoring, float]:
    """Coloring of the violated edges minimizing the robust objective.

    'exhaustive' sweeps all 2^m colorings (m <= cap); 'greedy' runs
    seeded local search flipping one edge color at a time.
    """
    profile = violation_profile(f)
    m = profile.num_violated
    if m == 0:
        col = EdgeColoring.all_red(profile)
        return col, robust_objective(f, col)
    if mode == "exhaustive":
        if m > cap:
            raise DomainSizeError(f"2^{m} colorings exceeds cap 2^{cap}")
        col = EdgeColoring.all_red(profile)
        shifts = np.arange(m)

        def value(bits: int) -> float:
            # coloring number `bits` makes edge k red iff bit k is set
            col.red[:] = bits >> shifts & 1
            return robust_objective(f, col)

        # min keeps the first of equal values, as a strict < scan does
        return col, value(min(range(1 << m), key=value))
    if mode != "greedy":
        raise ValueError(f"mode must be 'exhaustive' or 'greedy', not {mode!r}")

    import random
    rng = random.Random(seed)
    best_val = None
    best_col = None
    for restart in range(restarts):
        col = (EdgeColoring.all_red(profile) if restart == 0
               else EdgeColoring.random(profile, rng))
        red = col.red
        val = robust_objective(f, col)
        improved = True
        while improved:
            improved = False
            for k in range(m):
                red[k] = not red[k]
                cand_val = robust_objective(f, col)
                if cand_val < val - 1e-15:
                    val = cand_val
                    improved = True
                else:
                    red[k] = not red[k]
        if best_val is None or val < best_val:
            best_val, best_col = val, col
    return best_col, best_val
