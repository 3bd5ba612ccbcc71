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
max-weight min-cardinality matching.  The general-graph maximum-weight
matching itself is delegated to networkx (blossom algorithm, exact for
integer weights); the tests cross-check it by brute-force enumeration.

Each part is built from bitmask unions: the zeros inside its graph are
the vertices below some block sink with rank at most the sink's, and
the ones outside are the vertices above one of its sources.

The certificate and the chain check treat the k parts as one stack:
`verify_decomposition` solves every unsolved part in one
`oracles.exact_distances` call, which solves each chunk of parts as one
bipartite graph, and checks all parts' violated edges with
`oracles.violated_cover_edges`; `robust_chain_check` selects f's m
violated edges from the decomposition's cached (k, E) cover-edge masks
(`Decomposition.edge_masks`: inside each part's graph, violated by each
part) and gets every chain value from `isoperimetry.colored_objectives`.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

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


def max_weight_min_card_matching(f: ValuedFunction) -> Matching:
    """Matching of violated comparable pairs maximizing the total rank
    gap, tie-broken by fewest pairs.  Empty for monotone input."""
    n = f.domain.n
    pairs = violated_pairs(f)
    if not len(pairs):
        return Matching(())
    ranks = f.ranks.astype(np.int64)  # (n + 1) * gap must not wrap
    weights = (n + 1) * (ranks[pairs[:, 0]] - ranks[pairs[:, 1]]) - 1
    lower, upper = pairs.T.tolist()
    graph = nx.Graph()
    graph.add_weighted_edges_from(zip(lower, upper, weights.tolist()))
    matched = nx.max_weight_matching(graph, maxcardinality=False)
    cand = set(zip(lower, upper))
    oriented = [(a, b) if (a, b) in cand else (b, a) for (a, b) in matched]
    return Matching(tuple(sorted(oriented)))


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
    matching: Matching
    components: tuple[tuple[ValuedFunction, SweepingGraph], ...]
    certificate: DecompositionCertificate | None
    monotone: bool

    @property
    def k(self) -> int:
        return len(self.components)

    @cached_property
    def edge_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Two boolean ``(k, E)`` arrays over the domain's cover edges, built
        on first use: the edges inside each part's graph, and the edges each
        part violates.  `robust_chain_check` reads them for every coloring."""
        domain = self.components[0][1].domain
        lower, upper = domain.edge_arrays
        inside = _inside_stack(self, domain.n)
        violated = [v for _, v in violated_cover_edges(domain, _part_ranks(self, domain.n))]
        return inside[:, lower] & inside[:, upper], np.vstack(violated)


def decompose(f: ValuedFunction, verify: bool = True) -> Decomposition:
    """Run the full pipeline; monotone input yields an explicitly empty
    decomposition with the monotone flag set.  Non-monotone inputs over
    the pair budget raise `DomainSizeError`."""
    if is_monotone(f):
        return Decomposition(Matching(()), (), None, True)
    matching = max_weight_min_card_matching(f)
    components = tuple(build_components(f, merge_pairs(f.domain, matching)))
    dec = Decomposition(matching, components, None, False)
    if verify:
        cert = verify_decomposition(f, dec)
        dec = Decomposition(matching, components, cert, False)
    return dec


def verify_decomposition(f: ValuedFunction, dec: Decomposition
                         ) -> DecompositionCertificate:
    """Re-derive and check every promised property of a decomposition.

    Checks: (i) twice the summed part distances covers the distance of f;
    (ii) each part only violates edges of f inside its own graph;
    (iii) the graphs are pairwise vertex-disjoint; (iv) each block's
    matched pairs form a violation matching of its Boolean function;
    (v) every ordered (source, sink) pair inside a block is violated by f.
    Failures carry a concrete witness.
    """
    checks: list[tuple[str, bool, str]] = []
    eps_f, *eps_parts = (cert.epsilon for cert in
                         exact_distances([f, *(fi for (fi, _) in dec.components)]))

    ok = 2 * sum(eps_parts, Fraction(0)) >= eps_f
    checks.append(("distance_preserved", ok,
                   "" if ok else f"2*sum eps_i = {2 * sum(eps_parts, Fraction(0))} "
                                 f"< eps(f) = {eps_f}"))

    # every part's violated cover edges, a chunk of parts at a time; the
    # first escaped one in (part, edge) order is the witness
    lower, upper = f.domain.edge_arrays
    kept = f.ranks.take(lower) > f.ranks.take(upper)
    inside = _inside_stack(dec, f.n)
    violated_parts, witness = [], ""
    for rows, violated in violated_cover_edges(f.domain, _part_ranks(dec, f.n)):
        violated_parts += np.count_nonzero(violated, axis=1).tolist()
        if witness:
            continue
        block = inside[rows]
        escaped = violated & ~(block.take(lower, axis=1) & block.take(upper, axis=1) & kept)
        if escaped.any():
            r, e = np.unravel_index(np.argmax(escaped), escaped.shape)
            idx = rows.start + int(r)
            witness = (f"component {idx}: edge {(int(lower[e]), int(upper[e]))} "
                       f"escapes S_f^- cap E(H_{idx})")
    checks.append(("violations_contained", not witness, witness))

    witness = ""
    ok = True
    for i in range(len(dec.components)):
        for j in range(i + 1, len(dec.components)):
            shared = dec.components[i][1].vertex_mask & dec.components[j][1].vertex_mask
            if shared:
                ok = False
                witness = (f"H_{i} and H_{j} share vertex "
                           f"{(shared & -shared).bit_length() - 1}")
                break
        if not ok:
            break
    checks.append(("graphs_disjoint", ok, witness))

    witness = ""
    ok = True
    pair_of = dict(dec.matching.pairs)
    for idx, (fi, graph) in enumerate(dec.components):
        S = graph.source_set
        if not all(s in pair_of for s in S):
            ok, witness = False, f"component {idx}: block sources unmatched"
            break
        block_pairs = [(s, pair_of[s]) for s in S]
        if {t for (_, t) in block_pairs} != set(graph.sink_set):
            ok, witness = False, f"component {idx}: M(S_i) != T_i"
            break
        for (s, t) in block_pairs:
            if not (fi.values[s] == 1 and fi.values[t] == 0):
                ok, witness = False, (f"component {idx}: pair ({s},{t}) is not "
                                      f"violated by f_{idx}")
                break
        if not ok:
            break
    checks.append(("block_matchings_violating", ok, witness))

    # one bitmask per source: the block sinks above it whose rank is not
    # below its own; the witness is the first such pair in set order
    up = f.domain._up_masks()  # noqa: SLF001
    ranks = f.ranks.tolist()
    below = _below_rank_masks(ranks)
    witness = ""
    for idx, (_, graph) in enumerate(dec.components):
        sinks = sum(1 << t for t in graph.sink_set)
        unviolated = next(((s, hits) for s in graph.source_set
                           if (hits := up[s] & sinks & ~below[ranks[s]])), None)
        if unviolated:
            s, hits = unviolated
            t = next(t for t in graph.sink_set if hits >> t & 1)
            witness = (f"component {idx}: ordered pair ({s},{t}) has "
                       f"f({s}) = {f.values[s]} <= f({t}) = {f.values[t]}")
            break
    checks.append(("block_pairs_violated", not witness, witness))

    return DecompositionCertificate(
        epsilon_f=eps_f, epsilon_parts=tuple(eps_parts),
        violated_f=violation_profile(f).num_violated,
        violated_parts=tuple(violated_parts),
        checks=tuple(checks))


@dataclass(frozen=True)
class ChainReport:
    values: tuple[float, float, float, float]
    epsilon_f: Fraction
    epsilon_sum: Fraction
    ordering_ok: bool
    distance_ok: bool
    detail: str


def robust_chain_check(f: ValuedFunction, col: EdgeColoring,
                       dec: Decomposition | None = None,
                       tol: float = 1e-12) -> ChainReport:
    """Evaluate the four-step chain relating the robust objective of f to
    the robust objectives of its Boolean parts, as concrete numbers.

    value(1): the robust objective of f under col;
    value(2): the same, counting only violated edges inside the union of
    the part graphs; value(3): the per-part restricted objectives summed;
    value(4): the parts' own robust objectives under the inherited
    coloring.  Requires value(1) >= value(2) = value(3) >= value(4), and,
    exactly in rationals, sum eps(f_i) >= eps(f)/2.
    """
    if dec is None:
        dec = decompose(f)
    profile = violation_profile(f)
    col.validate_for(profile)

    if dec.monotone:
        zero = (0.0, 0.0, 0.0, 0.0)
        return ChainReport(zero, Fraction(0), Fraction(0), True, True, "monotone input")

    # masks over f's violated edges (profile order is cover-edge order),
    # one row per part: those inside the part's graph for (2) and (3),
    # those the part also violates for (4)
    lower, upper = f.domain.edge_arrays
    kept = f.ranks.take(lower) > f.ranks.take(upper)
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
        f, col, np.vstack((everything, inside.any(axis=0), inside, inherited)))
    v3 = math.fsum(per_part[:dec.k])
    v4 = math.fsum(per_part[dec.k:])

    eps_f = dec.certificate.epsilon_f if dec.certificate else exact_distance(f).epsilon
    eps_sum = (dec.certificate.epsilon_sum if dec.certificate
               else sum((exact_distance(fi).epsilon for (fi, _) in dec.components),
                        Fraction(0)))
    ordering_ok = (v1 >= v2 - tol and abs(v2 - v3) <= tol and v3 >= v4 - tol)
    distance_ok = eps_sum >= eps_f / 2
    detail = "" if ordering_ok and distance_ok else \
        f"chain=({v1}, {v2}, {v3}, {v4}) eps_sum={eps_sum} eps_f={eps_f}"
    return ChainReport((v1, v2, v3, v4), eps_f, eps_sum, ordering_ok,
                       distance_ok, detail)


def _inside_stack(dec: Decomposition, n: int) -> np.ndarray:
    """The parts' vertex sets as one boolean ``(k, n)`` array."""
    return np.array([graph.vertex_array for (_, graph) in dec.components],
                    dtype=bool).reshape(dec.k, n)


def _part_ranks(dec: Decomposition, n: int) -> np.ndarray:
    """The parts' ranks as one ``(k, n)`` array."""
    return np.array([fi.ranks for (fi, _) in dec.components]).reshape(dec.k, n)


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


def decomposition_dump(f: ValuedFunction, dec: Decomposition) -> dict:
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
    if dec.certificate is not None:
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
