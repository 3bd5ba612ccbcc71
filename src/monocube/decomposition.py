"""Boolean decomposition of a real-valued function on a DAG poset.

Pipeline: read the values as integer ranks, find a max-weight
min-cardinality matching of violated comparable pairs, merge the matched
pairs in one pass into the finest partition whose blocks' sweeping
graphs are pairwise disjoint (`merge_pairs`, which returns each block
as its sweeping graph), and threshold the function inside each graph
against the sinks it can still reach.  The output is a family
(f_i, H_i) of Boolean functions on pairwise disjoint induced subgraphs
that jointly keep at least half the distance to monotonicity and only
violate edges the input violates.

The matching objective (maximize total value gap, then minimize the pair
count) is encoded in a single integer weight (n+1)*gap - 1 per pair; the
value gaps are >= 1 after ranking and a matching has at most n/2 pairs,
so the exact maximum-weight matching under these weights is exactly the
max-weight min-cardinality matching.

An input with more than two values is matched on the bipartite split
graph: a left copy of each pair's lower end, a right copy of each upper
end.  Its optimum never uses a vertex v on both sides: pairs (u, v) and
(v, w) give u < v < w and g(u) > g(v) > g(w), so (u, w) is violated too
and replacing the two pairs by it gains exactly 1.  So a maximum-weight
split matching is a matching of the violation graph, and it is optimal
there, since every matching of the violation graph is a split matching.
The weight splits as a(x) - b(y), so an augmenting path gains a value
fixed by its two free ends, and successive shortest paths
(`_split_graph_matching`) need only one alternating search per matched
pair.  The tests cross-check it against networkx and by brute-force
enumeration.

A Boolean input gives every pair the same weight, so any maximum
matching is optimal, and different ones give different part counts k.
It keeps networkx's blossom (exact for integer weights), whose k the
benchmark's reference results record.  The blossom reads each edge
weight as ``graph[v][w]``, so the graph is a private `nx.Graph` subclass
whose ``graph[v]`` is the stored neighbour dict rather than a new view of
it per read.  The dicts and their order are a plain graph's, so the
matching is the one networkx finds on a plain `nx.Graph`; a property
test compares the two.

Each part is built from bitmask unions: the zeros inside its graph are
the vertices below some block sink with rank at most the sink's, and
the ones outside are the vertices above one of its sources.

A decomposition's certificate is built when first read.  It and the
chain check treat the k parts as one stack: one `oracles.exact_distances`
call solves f and every part, and one chunked pass (`_part_edges`) gives
each part's inside and violated cover edges.  The chain check stacks
those chunks once (`Decomposition.edge_masks`), selects f's violated
edges with its profile's mask and gets every chain value from
`isoperimetry.colored_objectives`.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

import networkx as nx
import numpy as np

from .funcs import ValuedFunction
from .isoperimetry import EdgeColoring, colored_objectives, violation_profile
from .oracles import (exact_distance, exact_distances, is_monotone, violated_cover_edges,
                      violated_pairs)
from .poset import PosetDomain, SweepingGraph, mask_array


@dataclass(frozen=True)
class Matching:
    """Vertex-disjoint ordered pairs (s, t) with s strictly below t."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for (s, t) in self.pairs:
            if s in seen or t in seen or s == t:
                raise ValueError(f"pair ({s},{t}) reuses a matched vertex")
            seen.add(s)
            seen.add(t)

    def __len__(self) -> int:
        return len(self.pairs)

    def validate_order(self, domain: PosetDomain) -> None:
        for (s, t) in self.pairs:
            if not (domain.reaches(s, t) and s != t):
                raise ValueError(f"pair ({s},{t}) is not strictly ordered")


class _PlainAdjGraph(nx.Graph):
    """An `nx.Graph` whose ``graph[v]`` is v's stored neighbour dict, not a
    fresh read-only view of it.  networkx's blossom reads every edge
    weight as ``graph[v][w]``, and building that view cost more than the
    read.  The dicts and their order are the same, so the blossom takes
    the same steps and returns the same matching."""

    def __getitem__(self, n):
        return self._adj[n]


def max_weight_min_card_matching(f: ValuedFunction) -> Matching:
    """Matching of violated comparable pairs maximizing the total rank
    gap, tie-broken by fewest pairs.  Empty for monotone input.

    Each pair (x, y) weighs (n+1)(g(x) - g(y)) - 1 for the rank g.  An
    input with more than two values is solved on the split graph
    (`_split_graph_matching`), whose optimum reuses no vertex (module
    docstring).  A Boolean input weighs every pair n, so any maximum
    matching is optimal; it keeps networkx's blossom, because which
    maximum matching it picks fixes the part counts k that recorded
    Boolean reports hold."""
    pairs = violated_pairs(f)
    if not len(pairs):
        return Matching(())
    ranks = f.ranks.tolist()
    lower, upper = pairs.T.tolist()
    if max(ranks) > 1:
        return Matching(tuple(sorted(_split_graph_matching(ranks, lower, upper))))
    graph = _PlainAdjGraph()
    graph.add_edges_from(zip(lower, upper), weight=f.domain.n)
    matched = nx.max_weight_matching(graph, maxcardinality=False)
    # the graph caches views that point back at it, so only the cyclic
    # collector frees it; emptying it now frees its edges at once
    graph.clear()
    # a matched pair is violated, so its lower end has the strictly higher rank
    return Matching(tuple(sorted((a, b) if ranks[a] > ranks[b] else (b, a)
                                 for (a, b) in matched)))


def _split_graph_matching(ranks: list[int], lower: list[int], upper: list[int]
                          ) -> list[tuple[int, int]]:
    """A maximum-weight matching of the split graph of the violated pairs
    (x, y) given as ``lower`` and ``upper``, as (x, y) tuples.  The split
    graph has a left copy of each x, a right copy of each y, and the
    weight (n+1)(g(x) - g(y)) - 1 on each pair.

    The weight is a(x) - b(y) with a(x) = (n+1)g(x) - 1 and
    b(y) = (n+1)g(y), so an augmenting path from a free left x to a free
    right y gains a(x) - b(y), whatever it passes through.  Each round
    runs one reverse alternating search from the free right vertices in
    (rank, vertex) order, so each left vertex is first reached from the
    lowest-rank free right vertex that reaches it.  The round augments at
    the first free left x reached with the largest gap g(x) - g(root),
    and its search stops once no root left can reach a larger gap.
    These are successive shortest paths: each matching is a
    maximum-weight one of its size and the gains only fall, so the first
    round with no positive gap (a gain is never 0) ends at a
    maximum-weight matching.  A round costs O(pairs), and there is one
    per matched pair and one more.
    """
    n = len(ranks)
    below: dict[int, list[int]] = {}  # right y -> its left neighbours, in pair order
    for x, y in zip(lower, upper):
        below.setdefault(y, []).append(x)
    roots = sorted(below, key=lambda y: (ranks[y], y))
    lefts = set(lower)
    mate_l, mate_r = [-1] * n, [-1] * n
    while True:
        top = max((ranks[x] for x in lefts if mate_l[x] < 0), default=0)
        via = [-1] * n  # left x -> the right vertex the search reached it from
        gap, chosen = 0, -1
        for start in roots:
            reach = top - ranks[start]  # no later root can label a larger gap
            if reach <= gap:
                break
            if mate_r[start] >= 0:
                continue
            queue = [start]
            for y in queue:
                if gap == reach:
                    break
                for x in below[y]:
                    if via[x] < 0:
                        via[x] = y
                        if mate_l[x] >= 0:
                            queue.append(mate_l[x])
                        elif ranks[x] - ranks[start] > gap:
                            gap, chosen = ranks[x] - ranks[start], x
        if not gap:
            return [(x, y) for (y, x) in enumerate(mate_r) if x >= 0]
        x = chosen
        while x >= 0:  # flip the path back to its root
            y = via[x]
            mate_l[x], mate_r[y], x = y, x, mate_r[y]


def merge_pairs(domain: PosetDomain, matching: Matching) -> tuple[SweepingGraph, ...]:
    """The finest partition of the matched pairs into blocks whose
    sweeping graphs are pairwise disjoint, as the blocks' graphs, listed
    by each block's first pair.

    One pass adds the pairs in matching order to a list of blocks with
    disjoint graphs: each new pair's block absorbs every block its
    growing graph meets, until it meets none.

    Any order of merging conflicting blocks gives the same blocks.  Let
    P be any partition of the pairs whose blocks' graphs are pairwise
    disjoint, and let every current block lie inside a block of P, as
    the singleton pairs do.  H(S, T) = up(S) cap down(T) only grows with
    the block, so two current blocks whose graphs meet lie inside the
    same block of P, and merging them keeps every block inside a block
    of P.  The merging therefore ends at a partition with disjoint graphs
    that is finer than every such P: the unique finest one.
    """
    matching.validate_order(domain)
    blocks: dict[int, SweepingGraph] = {}  # first pair index -> graph
    for first, (s, t) in enumerate(matching.pairs):
        graph = domain.sweeping_graph((s,), (t,))
        while met := [i for i, g in blocks.items() if g.vertex_mask & graph.vertex_mask]:
            absorbed = [blocks.pop(i) for i in met]
            first = min(first, *met)
            graph = domain.sweeping_graph(
                graph.source_set.union(*(g.source_set for g in absorbed)),
                graph.sink_set.union(*(g.sink_set for g in absorbed)))
        blocks[first] = graph
    return tuple(blocks[i] for i in sorted(blocks))


def build_components(f: ValuedFunction, graphs: Sequence[SweepingGraph]
                     ) -> list[tuple[ValuedFunction, SweepingGraph]]:
    """Each block's Boolean function, paired with the block's sweeping
    graph, as bitmask unions.

    Inside H_i a vertex is 1 iff its value beats every block sink it can
    still reach, so the zeros there are the vertices below some sink t of
    T_i with rank at most t's.  Outside, a vertex is 1 iff it sits
    strictly above some vertex of H_i; every vertex of H_i lies above a
    source inside H_i, so those are up(S_i cap H_i) minus H_i.
    """
    domain = f.domain
    components = []
    down = domain._down_masks()  # noqa: SLF001
    up = domain._up_masks()  # noqa: SLF001
    ranks = f.ranks.tolist()
    below = _below_rank_masks(ranks)
    for graph in graphs:
        mask = graph.vertex_mask
        zeros = above = 0
        for t in graph.sink_set:
            zeros |= down[t] & below[ranks[t] + 1]
        for s in graph.source_set:
            if mask >> s & 1:
                above |= up[s]
        ones = (mask & ~zeros) | (above & ~mask)
        values = tuple(mask_array(ones, domain.n).view(np.uint8).tolist())
        components.append((ValuedFunction(domain, values), graph))
    return components


def _below_rank_masks(ranks: list[int]) -> list[int]:
    """below[k] = bitmask of the vertices with rank < k, for k = 0..max + 1."""
    by_rank = [0] * (max(ranks) + 1)
    for x, rank in enumerate(ranks):
        by_rank[rank] |= 1 << x
    return list(itertools.accumulate(by_rank, operator.or_, initial=0))


@dataclass(frozen=True)
class DecompositionCertificate:
    epsilon_f: Fraction
    epsilon_parts: tuple[Fraction, ...]
    violated_f: int
    violated_parts: tuple[int, ...]
    checks: tuple[tuple[str, bool, str], ...]  # (name, ok, witness-or-empty)

    @property
    def all_ok(self) -> bool:
        return all(ok for (_, ok, _) in self.checks)

    @property
    def epsilon_sum(self) -> Fraction:
        return sum(self.epsilon_parts, Fraction(0))

    def failures(self) -> list[tuple[str, str]]:
        return [(name, witness) for (name, ok, witness) in self.checks if not ok]


@dataclass(frozen=True)
class Decomposition:
    """f's parts (f_i, H_i) and their matching; the certificate is built when read."""

    f: ValuedFunction
    matching: Matching
    components: tuple[tuple[ValuedFunction, SweepingGraph], ...]

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def monotone(self) -> bool:
        """Every matched pair weighs (n+1)*gap - 1 >= n > 0, so only a
        monotone f has an empty matching."""
        return not self.matching.pairs

    @cached_property
    def certificate(self) -> DecompositionCertificate | None:
        """`verify_decomposition` of this decomposition, run on first read;
        None for a monotone f."""
        return None if self.monotone else verify_decomposition(self)

    @cached_property
    def edge_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Two boolean ``(k, E)`` arrays over the domain's cover edges, built
        on first use: the edges inside each part's graph, and the edges each
        part violates.  `robust_chain_check` reads them for every coloring."""
        _, inside, violated = zip(*_part_edges(self))
        return np.vstack(inside), np.vstack(violated)


def _part_edges(dec: Decomposition) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """For each chunk of parts (`oracles.violated_cover_edges`): its slice,
    and two boolean arrays over the cover edges, one row per part: the
    edges inside the part's graph, and the edges the part violates."""
    domain = dec.f.domain
    lower, upper = domain.edge_arrays
    ranks = np.array([fi.ranks for (fi, _) in dec.components]).reshape(dec.k, domain.n)
    for rows, violated in violated_cover_edges(domain, ranks):
        inside = np.array([graph.vertex_array for (_, graph) in dec.components[rows]])
        yield rows, inside.take(lower, axis=1) & inside.take(upper, axis=1), violated


def decompose(f: ValuedFunction) -> Decomposition:
    """Run the full pipeline, leaving the certificate until it is read;
    monotone input yields an explicitly empty decomposition.  Non-monotone
    inputs over the pair budget raise `DomainSizeError`."""
    if is_monotone(f):
        return Decomposition(f, Matching(()), ())
    matching = max_weight_min_card_matching(f)
    return Decomposition(f, matching, tuple(build_components(f, merge_pairs(f.domain, matching))))


def verify_decomposition(dec: Decomposition) -> DecompositionCertificate:
    """Re-derive and check every promised property of a decomposition of f.

    Checks: (i) twice the summed part distances covers the distance of f;
    (ii) each part only violates edges of f inside its own graph;
    (iii) the graphs are pairwise vertex-disjoint; (iv) each block's
    matched pairs form a violation matching of its Boolean function;
    (v) every ordered (source, sink) pair inside a block is violated by f.
    A check's witness is the first failure its scan finds, or "" if none.
    """
    f = dec.f
    eps_f, eps_parts = _epsilons(dec)
    eps_sum = sum(eps_parts, Fraction(0))
    profile = violation_profile(f)

    # every part's violated cover edges, a chunk of parts at a time; the
    # first escaped one of a chunk in (part, edge) order is its witness
    lower, upper = f.domain.edge_arrays
    violated_parts, escapes = [], []
    for rows, inside, violated in _part_edges(dec):
        violated_parts += np.count_nonzero(violated, axis=1).tolist()
        escaped = violated & ~(inside & profile.edge_mask)
        if escaped.any():
            r, e = np.unravel_index(np.argmax(escaped), escaped.shape)
            idx = rows.start + int(r)
            escapes.append(f"component {idx}: edge {(int(lower[e]), int(upper[e]))} "
                           f"escapes S_f^- cap E(H_{idx})")

    witnesses = {
        "distance_preserved": [f"2*sum eps_i = {2 * eps_sum} < eps(f) = {eps_f}"]
                              if 2 * eps_sum < eps_f else [],
        "violations_contained": escapes,
        "graphs_disjoint": _shared_vertices(dec),
        "block_matchings_violating": _unmatched_block_pairs(dec),
        "block_pairs_violated": _unviolated_block_pairs(dec),
    }
    return DecompositionCertificate(
        epsilon_f=eps_f, epsilon_parts=tuple(eps_parts),
        violated_f=profile.num_violated,
        violated_parts=tuple(violated_parts),
        checks=tuple((name, not witness, witness) for name, found in witnesses.items()
                     for witness in [next(iter(found), "")]))


def _epsilons(dec: Decomposition) -> tuple[Fraction, list[Fraction]]:
    """eps(f) and each eps(f_i), solved as one batch and cached on first use."""
    eps_f, *eps_parts = (cert.epsilon for cert in
                         exact_distances([dec.f, *(fi for (fi, _) in dec.components)]))
    return eps_f, eps_parts


def _shared_vertices(dec: Decomposition) -> Iterator[str]:
    """Each pair of part graphs H_i, H_j (i < j) that meet, in (i, j) order,
    with their smallest shared vertex.  Unions of the later graphs skip each
    i that meets none, so the first pair costs O(k) mask operations."""
    masks = [graph.vertex_mask for (_, graph) in dec.components]
    later = list(itertools.accumulate(reversed(masks), operator.or_, initial=0))[::-1]
    for i, mask in enumerate(masks):
        if mask & later[i + 1]:
            for j in range(i + 1, len(masks)):
                if shared := mask & masks[j]:
                    yield f"H_{i} and H_{j} share vertex {(shared & -shared).bit_length() - 1}"


def _unmatched_block_pairs(dec: Decomposition) -> Iterator[str]:
    """Each block whose sources are not matched onto its sinks, and each
    block pair (s, M(s)) that its Boolean function does not violate."""
    pair_of = dict(dec.matching.pairs)
    for idx, (fi, graph) in enumerate(dec.components):
        S = graph.source_set
        if not all(s in pair_of for s in S):
            yield f"component {idx}: block sources unmatched"
        elif {pair_of[s] for s in S} != graph.sink_set:
            yield f"component {idx}: M(S_i) != T_i"
        else:
            yield from (f"component {idx}: pair ({s},{pair_of[s]}) is not violated by f_{idx}"
                        for s in S if not (fi.values[s] == 1 and fi.values[pair_of[s]] == 0))


def _unviolated_block_pairs(dec: Decomposition) -> Iterator[str]:
    """Each block source with a block sink above it that f does not
    violate, and the first such sink in set order: one bitmask per
    source, the block sinks above it whose rank is not below its own."""
    f = dec.f
    up = f.domain._up_masks()  # noqa: SLF001
    ranks = f.ranks.tolist()
    below = _below_rank_masks(ranks)
    for idx, (_, graph) in enumerate(dec.components):
        sinks = sum(1 << t for t in graph.sink_set)
        for s in graph.source_set:
            if hits := up[s] & sinks & ~below[ranks[s]]:
                t = next(t for t in graph.sink_set if hits >> t & 1)
                yield (f"component {idx}: ordered pair ({s},{t}) has "
                       f"f({s}) = {f.values[s]} <= f({t}) = {f.values[t]}")


CHAIN_TOL = 1e-12  # float slack of the chain's comparisons


@dataclass(frozen=True)
class ChainReport:
    values: tuple[float, float, float, float]
    epsilon_f: Fraction
    epsilon_sum: Fraction
    ordering_ok: bool
    distance_ok: bool
    detail: str


def robust_chain_check(dec: Decomposition, col: EdgeColoring) -> ChainReport:
    """Evaluate the four-step chain relating the robust objective of f =
    ``dec.f`` to the robust objectives of its Boolean parts, as concrete
    numbers.

    value(1): the robust objective of f under col;
    value(2): the same, counting only violated edges inside the union of
    the part graphs; value(3): the per-part restricted objectives summed;
    value(4): the parts' own robust objectives under the inherited
    coloring.  Requires value(1) >= value(2) = value(3) >= value(4) up to
    `CHAIN_TOL`, and, exactly in rationals, sum eps(f_i) >= eps(f)/2.
    """
    profile = violation_profile(dec.f)
    col.validate_for(profile)

    if dec.monotone:
        zero = (0.0, 0.0, 0.0, 0.0)
        return ChainReport(zero, Fraction(0), Fraction(0), True, True, "monotone input")

    # masks over f's violated edges (profile order is cover-edge order),
    # one row per part: those inside the part's graph for (2) and (3),
    # those the part also violates for (4)
    kept = profile.edge_mask
    inside, violated = dec.edge_masks
    inside = inside.compress(kept, axis=1)
    inherited = violated.compress(kept, axis=1)
    # an edge a part violates and f does not has no color under col
    missing = np.count_nonzero(violated & ~kept, axis=1)
    if missing.any():
        raise ValueError(f"a part violates {missing[missing > 0][0]} edges that f does "
                         f"not violate")
    everything = np.ones((1, profile.num_violated), dtype=bool)
    v1, v2, *per_part = colored_objectives(
        col, np.vstack((everything, inside.any(axis=0), inside, inherited)))
    v3 = math.fsum(per_part[:dec.k])
    v4 = math.fsum(per_part[dec.k:])

    eps_f, eps_parts = _epsilons(dec)
    eps_sum = sum(eps_parts, Fraction(0))
    ordering_ok = (v1 >= v2 - CHAIN_TOL and abs(v2 - v3) <= CHAIN_TOL
                   and v3 >= v4 - CHAIN_TOL)
    distance_ok = eps_sum >= eps_f / 2
    detail = "" if ordering_ok and distance_ok else \
        f"chain=({v1}, {v2}, {v3}, {v4}) eps_sum={eps_sum} eps_f={eps_f}"
    return ChainReport((v1, v2, v3, v4), eps_f, eps_sum, ordering_ok,
                       distance_ok, detail)


@dataclass(frozen=True)
class EdgeBoundReport:
    violated: int
    cover_size: int
    n: int
    holds: bool            # |S_f^-| >= eps(f) * 2^(d-1), i.e. 2*violated >= cover
    stronger_holds: bool   # |S_f^-| >= eps(f) * 2^d,      i.e.   violated >= cover


def edge_bound_check(f: ValuedFunction) -> EdgeBoundReport:
    """Violated-edge count versus distance for hypercube functions, as
    exact integers: the halved bound is certified by the decomposition,
    the full-strength bound is checked alongside."""
    if f.domain.kind != "hypercube":
        raise ValueError("edge bound is stated for hypercube domains")
    violated = violation_profile(f).num_violated
    cover = exact_distance(f).cover_size
    return EdgeBoundReport(
        violated=violated, cover_size=cover, n=f.domain.n,
        holds=2 * violated >= cover,
        stronger_holds=violated >= cover)


def decomposition_dump(dec: Decomposition) -> dict:
    """JSON-ready dump: matching, blocks, part graphs, part functions,
    certificate flags and measured scalars."""
    doc: dict = {
        "monotone": dec.monotone,
        "k": dec.k,
        "matching": [list(p) for p in dec.matching.pairs],
        "blocks": [{"S": sorted(graph.source_set), "T": sorted(graph.sink_set)}
                   for (_, graph) in dec.components],
        "components": [
            {"vertices": sorted(graph.vertices), "values": list(fi.values)}
            for (fi, graph) in dec.components
        ],
    }
    if not dec.monotone:
        cert = dec.certificate
        doc["certificate"] = {
            "epsilon_f": str(cert.epsilon_f),
            "epsilon_parts": [str(e) for e in cert.epsilon_parts],
            "violated_f": cert.violated_f,
            "violated_parts": list(cert.violated_parts),
            "checks": [{"name": name, "ok": ok, "witness": witness}
                       for (name, ok, witness) in cert.checks],
            "all_ok": cert.all_ok,
        }
    return doc
