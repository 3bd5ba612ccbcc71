"""Boolean decomposition of a real-valued function on a DAG poset.

Pipeline: read the values as integer ranks, find a max-weight
min-cardinality matching of violated comparable pairs, merge conflicting
singleton pairs into conflict-free blocks, take each block's sweeping
graph, and threshold the function inside each graph against the sinks it
can still reach.  The output is a family (f_i, H_i) of Boolean functions
on pairwise disjoint induced subgraphs that jointly keep at least half
the distance to monotonicity and only violate edges the input violates.

The matching objective (maximize total value gap, then minimize the pair
count) is encoded in a single integer weight (n+1)*gap - 1 per pair; the
value gaps are >= 1 after ranking and a matching has at most n/2 pairs,
so the exact maximum-weight matching under these weights is exactly the
max-weight min-cardinality matching.  The general-graph maximum-weight
matching itself is delegated to networkx (blossom algorithm, exact for
integer weights); brute-force enumeration in `oracles` cross-checks it.

The certificate and the chain check treat the k parts as one stack:
`verify_decomposition` solves every unsolved part in one
`oracles.exact_distances` call and checks all parts' violated edges at
once, and `robust_chain_check` builds (k, m) masks over f's m violated
edges (inside each part's graph, violated by each part) and gets every
chain value from `isoperimetry.colored_objectives`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import networkx as nx
import numpy as np

from .funcs import ValuedFunction
from .isoperimetry import EdgeColoring, colored_objectives, violation_profile
from .oracles import exact_distance, exact_distances, is_monotone, violated_pairs
from .poset import PosetDomain, SweepingGraph, row_chunks


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

    @property
    def lower(self) -> frozenset[int]:
        return frozenset(s for (s, _) in self.pairs)

    @property
    def upper(self) -> frozenset[int]:
        return frozenset(t for (_, t) in self.pairs)

    def validate_order(self, domain: PosetDomain) -> None:
        for (s, t) in self.pairs:
            if not (domain.reaches(s, t) and s != t):
                raise ValueError(f"pair ({s},{t}) is not strictly ordered")


@dataclass(frozen=True)
class PairPartition:
    """Blocks (S_i, T_i) with matched sets aligned blockwise and pairwise
    non-conflicting sweeping graphs."""

    blocks: tuple[tuple[frozenset[int], frozenset[int]], ...]

    def __len__(self) -> int:
        return len(self.blocks)


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


def merge_pairs(domain: PosetDomain, matching: Matching) -> PairPartition:
    """Merge conflicting pairs until none conflict.

    Starts from the singleton pairs of the matching.  Pair selection is
    deterministic: scan blocks in index order, merge the first
    conflicting pair found into the earlier slot, and rescan.  Any merge
    order yields a valid conflict-free partition; this one is fixed for
    reproducibility.
    """
    matching.validate_order(domain)
    blocks: list[tuple[frozenset[int], frozenset[int], int]] = []
    for (s, t) in matching.pairs:
        S, T = frozenset([s]), frozenset([t])
        blocks.append((S, T, domain.sweeping_graph(S, T).vertex_mask))
    merged = True
    while merged:
        merged = False
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if blocks[i][2] & blocks[j][2]:
                    S = blocks[i][0] | blocks[j][0]
                    T = blocks[i][1] | blocks[j][1]
                    mask = domain.sweeping_graph(S, T).vertex_mask
                    blocks[i] = (S, T, mask)
                    del blocks[j]
                    merged = True
                    break
            if merged:
                break
    return PairPartition(tuple((S, T) for (S, T, _) in blocks))


def build_components(f: ValuedFunction, partition: PairPartition
                     ) -> list[tuple[ValuedFunction, SweepingGraph]]:
    """The Boolean functions and sweeping graphs for each block.

    Inside H_i a vertex is 1 iff its value beats every block sink it can
    still reach; outside, it is 1 iff it sits strictly above some vertex
    of H_i.
    """
    domain = f.domain
    components = []
    down = domain._down_masks()  # noqa: SLF001
    up = domain._up_masks()  # noqa: SLF001
    for (S, T) in partition.blocks:
        graph = domain.sweeping_graph(S, T)
        mask = graph.vertex_mask
        values = []
        for z in range(domain.n):
            if mask >> z & 1:
                best = max(f.values[t] for t in T if up[z] >> t & 1)
                values.append(1 if f.values[z] > best else 0)
            else:
                above = bool(mask & down[z] & ~(1 << z))
                values.append(1 if above else 0)
        components.append((ValuedFunction(domain, tuple(values)), graph))
    return components


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
    partition: PairPartition
    components: tuple[tuple[ValuedFunction, SweepingGraph], ...]
    certificate: DecompositionCertificate | None
    monotone: bool

    @property
    def k(self) -> int:
        return len(self.components)


def decompose(f: ValuedFunction, verify: bool = True) -> Decomposition:
    """Run the full pipeline; monotone input yields an explicitly empty
    decomposition with the monotone flag set.  Non-monotone inputs over
    the pair budget raise `DomainSizeError`."""
    if is_monotone(f):
        return Decomposition(Matching(()), PairPartition(()), (), None, True)
    matching = max_weight_min_card_matching(f)
    partition = merge_pairs(f.domain, matching)
    components = tuple(build_components(f, partition))
    dec = Decomposition(matching, partition, components, None, False)
    if verify:
        cert = verify_decomposition(f, dec)
        dec = Decomposition(matching, partition, components, cert, False)
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
    for rows, violated in _violated_cover_edges(f.domain, _part_ranks(dec, f.n)):
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
        if len(block_pairs) != len(S):
            ok, witness = False, f"component {idx}: |M_i| != |S_i|"
            break
    checks.append(("block_matchings_violating", ok, witness))

    witness = ""
    ok = True
    for idx, (fi, graph) in enumerate(dec.components):
        for s in graph.source_set:
            for t in graph.sink_set:
                if f.domain.reaches(s, t) and not f.values[s] > f.values[t]:
                    ok = False
                    witness = (f"component {idx}: ordered pair ({s},{t}) has "
                               f"f({s}) = {f.values[s]} <= f({t}) = {f.values[t]}")
                    break
            if not ok:
                break
        if not ok:
            break
    checks.append(("block_pairs_violated", ok, witness))

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

    # masks over f's violated edges, one row per part: those inside the
    # part's graph for (2) and (3), those the part also violates for (4)
    lower, upper = profile.lower, profile.upper
    inside = _inside_stack(dec, f.n)
    inside = inside[:, lower] & inside[:, upper]
    ranks = _part_ranks(dec, f.n)
    inherited = ranks[:, lower] > ranks[:, upper]
    # an edge a part violates and f does not has no color under col
    missing = np.array([count for _, violated in _violated_cover_edges(f.domain, ranks)
                        for count in np.count_nonzero(violated, axis=1).tolist()]) \
        - np.count_nonzero(inherited, axis=1)
    if missing.any():
        raise ValueError(f"a part violates {missing[missing > 0][0]} edges that f does "
                         f"not violate")
    everything = np.ones((1, len(lower)), dtype=bool)
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


def _violated_cover_edges(domain: PosetDomain, ranks: np.ndarray
                          ) -> Iterator[tuple[slice, np.ndarray]]:
    """For each chunk of rows (`poset.row_chunks`) of a ``(k, n)`` rank
    stack: its slice, and a boolean array with one row per function over
    `PosetDomain.edge_arrays`, True where the function violates the cover
    edge."""
    lower, upper = domain.edge_arrays
    for rows in row_chunks(len(ranks), len(lower)):
        block = ranks[rows]
        yield rows, block.take(lower, axis=1) > block.take(upper, axis=1)


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
        "blocks": [{"S": sorted(S), "T": sorted(T)} for (S, T) in dec.partition.blocks],
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
