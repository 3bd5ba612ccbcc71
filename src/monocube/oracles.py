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
fast path.

Two independent routes are kept for cross-checks: a branch-and-bound
minimum vertex cover on the general violation graph, and a brute-force
sweep over all vertex subsets.

Every route starts from the violated pairs: one gather-and-compare of
the function's ranks over the domain's cached comparable-pair arrays
(`PosetDomain.pair_arrays`), which check the pair budget
(`poset.MAX_PAIRS`) before any mask or array is built; the exponential
oracles keep their own caps.  `exact_distance` is solved once per
function: its certificate is cached on the function, like the ranks and
the violation profile.

The exact solver works on a stack: `DistanceCertificate.of_all` takes
functions on one domain as one ``(rows, n)`` rank array, and a single
function is the batch of one.  `exact_distances` solves a
decomposition's parts in one call.  The monotonicity test, the
violated-pair compare, the repair and the certificate's assertions each
run once per chunk of rows (at most `poset.PAIR_CHUNK` cells, see
`poset.row_chunks`); only Hopcroft-Karp and the Koenig cover run row by
row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .funcs import ValuedFunction
from .isoperimetry import EdgeColoring, robust_objective, violation_profile
from .poset import DomainSizeError, PosetDomain, row_chunks

MATCHING_ENUM_CAP = 16
COLORING_ENUM_CAP = 20


def is_monotone(f: ValuedFunction) -> bool:
    """True iff no cover edge is violated (enough, by transitivity)."""
    return bool(_monotone_rows(f.domain, f.ranks[None])[0])


def _monotone_rows(domain: PosetDomain, ranks: np.ndarray) -> np.ndarray:
    """`is_monotone` for each row of a ``(rows, n)`` rank stack on one
    domain, compared over the cover edges in row chunks."""
    lower, upper = domain.edge_arrays
    out = np.empty(len(ranks), dtype=bool)
    for rows in row_chunks(len(ranks), len(lower)):
        block = ranks[rows]
        out[rows] = np.all(block.take(lower, axis=1) <= block.take(upper, axis=1), axis=1)
    return out


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
    repaired: ValuedFunction

    @property
    def cover_size(self) -> int:
        return len(self.vertex_cover)

    @classmethod
    def of(cls, f: ValuedFunction) -> "DistanceCertificate":
        """Solve f, as a batch of one; callers use `exact_distance`, which
        caches the certificate on f."""
        return cls.of_all([f])[0]

    @classmethod
    def of_all(cls, fs: Sequence[ValuedFunction]) -> list["DistanceCertificate"]:
        """Solve functions on one domain as one ``(rows, n)`` rank stack;
        callers use `exact_distances`, which caches each certificate on its
        function.

        Monotone rows get the zero certificate from one cover-edge compare.
        The others are compared over the comparable pairs in row chunks of
        at most `poset.PAIR_CHUNK` cells; each row's violation graph goes
        through Hopcroft-Karp and Koenig on its own, and the chunk's covers
        are checked, repaired and counted as one stack.
        """
        if not fs:
            return []
        domain = fs[0].domain
        if any(f.domain is not domain for f in fs):
            raise ValueError("a batch of exact solves must share one domain")
        n = domain.n
        certs = [cls(Fraction(0), frozenset(), f) for f in fs]
        ranks = np.stack([f.ranks for f in fs])
        todo = np.flatnonzero(~_monotone_rows(domain, ranks))
        if not len(todo):
            return certs
        for rows in row_chunks(len(todo), max(len(domain.pair_arrays[0]), n)):
            block = ranks[todo[rows]]
            row, xs, ys = _violated_rows(domain, block)
            # adjacency in pair order: left vertices ascending, each one's
            # right neighbours ascending; every row has a run of pairs and
            # a run of left vertices
            cells = row * n + xs
            firsts = np.flatnonzero(np.r_[True, cells[1:] != cells[:-1]])
            starts = firsts.tolist()
            ends = starts[1:] + [len(row)]
            lefts, ys_list = xs[firsts].tolist(), ys.tolist()
            bounds = np.arange(len(block) + 1)
            pair_runs = np.searchsorted(row, bounds).tolist()
            left_runs = np.searchsorted(row[firsts], bounds).tolist()
            covers, left, right = [], [], []  # cover cells r * n + x of each side
            for r in range(len(block)):
                g, h = left_runs[r], left_runs[r + 1]
                adj = {x: ys_list[a:b] for x, a, b in zip(lefts[g:h], starts[g:h], ends[g:h])}
                match_r = _hopcroft_karp(adj, set(ys_list[pair_runs[r]:pair_runs[r + 1]]))
                cover_left, cover_right = _koenig_cover(adj, match_r)
                assert len(cover_left) + len(cover_right) == len(match_r), \
                    "Koenig cover size must equal the matching size"
                left.extend(r * n + x for x in cover_left)
                right.extend(r * n + y for y in cover_right)
                covers.append(frozenset(cover_left | cover_right))
            covered = np.zeros((2, block.size), dtype=bool)
            covered[0, left] = covered[1, right] = True
            assert np.all(covered[0, cells] | covered[1, row * n + ys]), \
                "Koenig construction left a violated pair uncovered"

            source = _repair(domain, block, covers)
            repaired = np.take_along_axis(block, source, axis=1)
            assert np.all(_monotone_rows(domain, repaired)), \
                "repair produced a non-monotone function"
            changed = np.count_nonzero(repaired != block, axis=1).tolist()
            for i, cover, count, s in zip(todo[rows].tolist(), covers, changed,
                                          source.tolist()):
                assert count == len(cover), \
                    f"repair changed {count} points, cover has {len(cover)}"
                f = fs[i]
                g = ValuedFunction(domain, tuple(map(f.values.__getitem__, s)))
                certs[i] = cls(Fraction(len(cover), n), cover, g)
        return certs


def _hopcroft_karp(adj: dict[int, list[int]], rights: set[int]) -> dict[int, int]:
    """Maximum bipartite matching; returns the right->left match map."""
    match_l: dict[int, int | None] = {u: None for u in adj}
    match_r: dict[int, int | None] = {v: None for v in rights}
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
                w = match_r[v]
                if w is None:
                    found = True
                elif w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not found:
            break
        for u in adj:
            if match_l[u] is None:
                _augment(u, adj, match_l, match_r, dist)
    return {v: u for v, u in match_r.items() if u is not None}


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
            w = match_r[v]
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


def _koenig_cover(adj: dict[int, list[int]],
                  match_r: dict[int, int]) -> tuple[set[int], set[int]]:
    """Koenig construction: a minimum vertex cover (left part, right part)
    of the bipartite graph from a maximum matching."""
    match_l = {u: v for v, u in match_r.items()}
    visited_l = set()
    visited_r = set()
    queue = [u for u in adj if u not in match_l]
    visited_l.update(queue)
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for v in adj[u]:
            if v in visited_r:
                continue
            visited_r.add(v)
            w = match_r.get(v)
            if w is not None and w not in visited_l:
                visited_l.add(w)
                queue.append(w)
    cover_left = set(adj) - visited_l
    cover_right = visited_r
    return cover_left, cover_right


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


def _repair(domain: PosetDomain, ranks: np.ndarray,
            covers: Sequence[frozenset[int]]) -> np.ndarray:
    """Monotone extensions keeping each row of a ``(rows, n)`` rank stack
    on the complement of its cover, as the vertex each point copies: row
    r's g(z) = f(x) for the smallest kept x <= z of largest value, falling
    back to the first kept vertex of smallest value when no kept x is
    below z.

    One downward-max closure sweep over the key rank*n + (n-1-x) of the
    kept vertices picks that x for every row and z at once; g copies the
    value object stored at x, so an int and an equal float are never
    swapped.
    """
    n = domain.n
    kept = np.ones(ranks.shape, dtype=bool)
    kept.ravel()[[r * n + x for r, cover in enumerate(covers) for x in cover]] = False
    ranks = ranks.astype(np.int64)
    best = domain.down_max(np.where(kept, ranks * n + (n - 1 - np.arange(n)), -1))
    fallback = np.where(kept, ranks, np.iinfo(np.int64).max).argmin(axis=1)
    return np.where(best < 0, fallback[:, None], n - 1 - best % n)


def exact_distance_bruteforce(f: ValuedFunction, cap: int = 20) -> int:
    """Minimum vertex cover size of the violation graph by sweeping all
    2^n vertex subsets (kept sets).  Independent of `exact_distance`."""
    n = f.domain.n
    if n > cap:
        raise DomainSizeError(f"brute force over 2^{n} subsets exceeds cap 2^{cap}")
    bad = [0] * n
    for (x, y) in violated_pairs(f).tolist():
        bad[x] |= 1 << y
        bad[y] |= 1 << x
    best = 0
    valid = bytearray(1 << n)
    valid[0] = 1
    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        if valid[rest] and not bad[v] & rest:
            valid[mask] = 1
            size = mask.bit_count()
            if size > best:
                best = size
    return n - best


def mvc_branch_bound(f: ValuedFunction) -> int:
    """Minimum vertex cover size of the violation graph by branch and
    bound on the general graph (include a max-degree vertex or all of its
    neighbours; greedy-matching lower bound for pruning).  Cross-check
    route for `exact_distance`."""
    adj: dict[int, set[int]] = {}
    for (x, y) in violated_pairs(f).tolist():
        adj.setdefault(x, set()).add(y)
        adj.setdefault(y, set()).add(x)

    best = [len(adj)]  # all touched vertices always cover

    def matching_lb(graph: dict[int, set[int]]) -> int:
        used = set()
        size = 0
        for u in sorted(graph):
            if u in used:
                continue
            for v in sorted(graph[u]):
                if v not in used:
                    used.add(u)
                    used.add(v)
                    size += 1
                    break
        return size

    def strip(graph: dict[int, set[int]], removed: set[int]) -> dict[int, set[int]]:
        out = {}
        for u, nbrs in graph.items():
            if u in removed:
                continue
            rest = nbrs - removed
            if rest:
                out[u] = rest
        return out

    def solve(graph: dict[int, set[int]], taken: int) -> None:
        # peel degree-1 vertices: take the neighbour
        while True:
            if taken + matching_lb(graph) >= best[0]:
                return
            if not graph:
                best[0] = min(best[0], taken)
                return
            deg1 = next((u for u in sorted(graph) if len(graph[u]) == 1), None)
            if deg1 is None:
                break
            v = next(iter(graph[deg1]))
            graph = strip(graph, {deg1, v})
            taken += 1
        u = max(sorted(graph), key=lambda w: len(graph[w]))
        solve(strip(graph, {u}), taken + 1)
        nbrs = set(graph[u])
        solve(strip(graph, nbrs | {u}), taken + len(nbrs))

    solve(adj, 0)
    return best[0]


def enumerate_matchings_check(f: ValuedFunction, cap: int = MATCHING_ENUM_CAP
                              ) -> tuple[int, int]:
    """Brute-force (max total rank gap, min cardinality among maximizers)
    over all matchings of violated comparable pairs.  Validates the
    decomposition's matching solver; weights are rank gaps, exactly as
    the solver's."""
    n = f.domain.n
    if n > cap:
        raise DomainSizeError(f"matching enumeration needs n <= {cap}, got {n}")
    ranks = f.ranks.tolist()
    pairs = violated_pairs(f).tolist()
    gaps = [ranks[x] - ranks[y] for (x, y) in pairs]
    best = (0, 0)  # (weight, -cardinality) maximized lexicographically

    def rec(idx: int, used: int, weight: int, card: int) -> None:
        nonlocal best
        if (weight, -card) > best:
            best = (weight, -card)
        for k in range(idx, len(pairs)):
            x, y = pairs[k]
            m = 1 << x | 1 << y
            if not used & m:
                rec(k + 1, used | m, weight + gaps[k], card + 1)

    rec(0, 0, 0, 0)
    return best[0], -best[1]


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
        return col, robust_objective(f, col, profile)
    if mode == "exhaustive":
        if m > cap:
            raise DomainSizeError(f"2^{m} colorings exceeds cap 2^{cap}")
        col = EdgeColoring.all_red(profile)
        shifts = np.arange(m)

        def value(bits: int) -> float:
            # coloring number `bits` makes edge k red iff bit k is set
            col.red[:] = bits >> shifts & 1
            return robust_objective(f, col, profile)

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
        val = robust_objective(f, col, profile)
        improved = True
        while improved:
            improved = False
            for k in range(m):
                red[k] = not red[k]
                cand_val = robust_objective(f, col, profile)
                if cand_val < val - 1e-15:
                    val = cand_val
                    improved = True
                else:
                    red[k] = not red[k]
        if best_val is None or val < best_val:
            best_val, best_col = val, col
    return best_col, best_val


@dataclass(frozen=True)
class MedianThresholdResult:
    median: float
    case: int
    h: ValuedFunction


def median_threshold(f: ValuedFunction) -> MedianThresholdResult:
    """Boolean reduction for the undirected inequality.

    m is the smallest value with cumulative mass >= 1/2.  Case 1 takes
    h = [f > m] when the mass strictly below m is under (1 - p_m)/2,
    otherwise case 2 takes h = [f >= m].  Either way h keeps at least
    half of f's distance to constant and never adds influential edges.
    """
    n = f.domain.n
    counts: dict = {}
    for v in f.values:
        counts[v] = counts.get(v, 0) + 1
    total = 0
    median = None
    for v in sorted(counts):
        total += counts[v]
        if Fraction(total, n) >= Fraction(1, 2):
            median = v
            break
    below = sum(c for v, c in counts.items() if v < median)
    pm = counts[median]
    if Fraction(below, n) < Fraction(n - pm, 2 * n):
        case = 1
        h = ValuedFunction(f.domain, tuple(1 if v > median else 0 for v in f.values))
    else:
        case = 2
        h = ValuedFunction(f.domain, tuple(1 if v >= median else 0 for v in f.values))
    return MedianThresholdResult(median=median, case=case, h=h)


def boolean_variance(h: ValuedFunction) -> Fraction:
    """p0 * (1 - p0) for a Boolean function."""
    if not h.is_boolean():
        raise ValueError("variance is defined here for Boolean functions only")
    n = h.domain.n
    p0 = Fraction(sum(1 for v in h.values if v == 0), n)
    return p0 * (1 - p0)
