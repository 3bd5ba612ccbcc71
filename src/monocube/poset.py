"""Poset domains: the directed hypercube and arbitrary DAGs.

Vertices are integers ``0..n-1``.  For a hypercube of dimension ``d``,
coordinate ``i`` (1-based) of vertex ``x`` is bit ``i-1`` of ``x``, so
``n = 2**d`` and every cover edge flips exactly one bit from 0 to 1.
Reachability, the transitive closure, and sweeping graphs are all
answered from per-vertex up-set / down-set bitmasks (Python ints), which
are built lazily and cached on the domain.
Every walk over all comparable pairs first calls
`PosetDomain.check_pair_budget`, the exact methods' one size budget.

Whole-table scans read the cover edges as two cached integer arrays,
`PosetDomain.edge_arrays` = ``(lower, upper)``, in exactly the order
`cover_edges()` lists them: row-major over (vertex, coordinate) on the
hypercube, the sorted edge list on a DAG.  `PosetDomain.down_max` is the
one downward-max closure sweep (one pass per coordinate on the
hypercube, one pass in topological order on a DAG).

Domains are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np


class CycleError(ValueError):
    """Raised when a DAG edge list contains a directed cycle."""


class DomainSizeError(RuntimeError):
    """Raised when an exact computation would exceed its size budget."""


# Most comparable pairs an exact method may walk: hypercube d <= 12, DAG n <= 1448.
MAX_PAIRS = 1 << 20


class PosetDomain:
    """A directed hypercube (by dimension) or an explicit DAG."""

    def __init__(self, kind: str, *, d: int | None = None, n: int | None = None,
                 edges: Sequence[tuple[int, int]] | None = None):
        if kind == "hypercube":
            if d is None or d < 1:
                raise ValueError("hypercube dimension must be >= 1")
            self.kind = "hypercube"
            self.d = d
            self.n = 1 << d
            self._edges: list[tuple[int, int]] | None = None
        elif kind == "dag":
            if n is None or n < 1:
                raise ValueError("dag vertex count must be >= 1")
            edges = list(edges or [])
            for (u, v) in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u},{v}) out of range for n={n}")
                if u == v:
                    raise CycleError(f"self-loop at vertex {u}")
            self.kind = "dag"
            self.d = None
            self.n = n
            self._edges = sorted(set(edges))
            self._topo = _topological_order(n, self._edges)
        else:
            raise ValueError(f"unknown domain kind: {kind}")
        self._up: list[int] | None = None
        self._down: list[int] | None = None

    # -- construction helpers -------------------------------------------------

    def __repr__(self) -> str:
        if self.kind == "hypercube":
            return f"PosetDomain(hypercube, d={self.d})"
        return f"PosetDomain(dag, n={self.n}, m={len(self._edges)})"

    def check_vertex(self, x: int) -> None:
        if not (0 <= x < self.n):
            raise ValueError(f"vertex id {x} out of range 0..{self.n - 1}")

    # -- edges and reachability -----------------------------------------------

    def cover_edges(self) -> list[tuple[int, int]]:
        """All domain edges (x, y).  For hypercubes these are the single-bit
        upward flips, d * 2^(d-1) in total."""
        if self._edges is None:
            lower, upper = self.edge_arrays
            self._edges = list(zip(lower.tolist(), upper.tolist()))
        return list(self._edges)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(lower, upper)`` endpoint arrays of the cover edges,
        in `cover_edges()` order."""
        if self.kind == "hypercube":
            bits = 1 << np.arange(self.d)
            lower, coord = np.nonzero((np.arange(self.n)[:, None] & bits) == 0)
            upper = lower | bits[coord]
        else:
            lower, upper = np.array(self._edges, dtype=np.intp).reshape(-1, 2).T.copy()
        lower.flags.writeable = False
        upper.flags.writeable = False
        return lower, upper

    def down_max(self, a: np.ndarray) -> np.ndarray:
        """The downward-max closure of a value array: ``out[x]`` is the
        largest ``a[y]`` over all ``y <= x``."""
        out = np.array(a)
        if self.kind == "hypercube":
            for i in range(self.d):
                pairs = out.reshape(-1, 2, 1 << i)  # [:, 1] has bit i set
                np.maximum(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
            return out
        values = out.tolist()
        preds: list[list[int]] = [[] for _ in range(self.n)]
        for (u, v) in self._edges:
            preds[v].append(u)
        for x in self._topo:
            for u in preds[x]:
                if values[u] > values[x]:
                    values[x] = values[u]
        return np.array(values, dtype=out.dtype)

    @property
    def num_edges(self) -> int:
        if self.kind == "hypercube":
            return self.d * (1 << (self.d - 1))
        return len(self._edges)

    def reaches(self, x: int, y: int) -> bool:
        """True iff x is below-or-equal y in the partial order (x can reach y)."""
        self.check_vertex(x)
        self.check_vertex(y)
        if self.kind == "hypercube":
            return (x & y) == x
        return bool(self._up_masks()[x] >> y & 1)

    def _up_masks(self) -> list[int]:
        """up[x] = bitmask of {y : x <= y}, including x itself."""
        if self._up is None:
            self._up = self._closure_masks(upward=True)
        return self._up

    def _down_masks(self) -> list[int]:
        """down[x] = bitmask of {y : y <= x}, including x itself."""
        if self._down is None:
            self._down = self._closure_masks(upward=False)
        return self._down

    def _closure_masks(self, upward: bool) -> list[int]:
        """One pass over the cover edges: each vertex's mask absorbs those of
        its successors (upward, in reverse topological order) or of its
        predecessors (in topological order).  Increasing ids are a
        topological order of the hypercube."""
        lower, upper = self.edge_arrays
        tails, heads = (lower, upper) if upward else (upper, lower)
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in zip(tails.tolist(), heads.tolist()):
            nbrs[u].append(v)
        order = range(self.n) if self.kind == "hypercube" else self._topo
        masks = [1 << x for x in range(self.n)]
        for x in (reversed(order) if upward else order):
            for v in nbrs[x]:
                masks[x] |= masks[v]
        return masks

    def up_mask(self, x: int) -> int:
        self.check_vertex(x)
        return self._up_masks()[x]

    def down_mask(self, x: int) -> int:
        self.check_vertex(x)
        return self._down_masks()[x]

    # -- transitive closure ----------------------------------------------------

    def check_pair_budget(self) -> None:
        """Raise `DomainSizeError` above `MAX_PAIRS` comparable pairs, counted
        without masks: 3^d - 2^d on the hypercube, at most n(n-1)/2 on a DAG."""
        pairs = (3 ** self.d - 2 ** self.d if self.kind == "hypercube"
                 else self.n * (self.n - 1) // 2)
        if pairs > MAX_PAIRS:
            raise DomainSizeError(f"{self!r} has up to {pairs} comparable pairs, "
                                  f"over the budget of {MAX_PAIRS}")

    def transitive_closure(self) -> list[tuple[int, int]]:
        """All strict-order pairs (x, y) with x < y in the partial order,
        within the pair budget."""
        self.check_pair_budget()
        return [(x, y) for x, mask in enumerate(self._up_masks())
                for y in _mask_bits(mask & ~(1 << x))]

    # -- sweeping graphs ---------------------------------------------------------

    def sweeping_graph(self, sources: Iterable[int], sinks: Iterable[int]) -> "SweepingGraph":
        """The union of all directed paths from the source set to the sink set.

        Its vertex set is {z : s <= z <= t for some s in sources, t in sinks};
        the edge set is the induced one, so only the vertex set is stored.
        """
        S = frozenset(sources)
        T = frozenset(sinks)
        for v in S | T:
            self.check_vertex(v)
        if S & T:
            raise ValueError(f"source and sink sets overlap: {sorted(S & T)}")
        up = self._up_masks()
        down = self._down_masks()
        up_S = 0
        for s in S:
            up_S |= up[s]
        down_T = 0
        for t in T:
            down_T |= down[t]
        return SweepingGraph(domain=self, source_set=S, sink_set=T,
                             vertex_mask=up_S & down_T)


@dataclass(frozen=True)
class SweepingGraph:
    """Sweeping graph between a source set and a sink set.

    By construction the graph is induced: every domain edge with both
    endpoints inside is an edge of the graph, so edges are derived on
    demand from the vertex mask.
    """

    domain: PosetDomain
    source_set: frozenset[int]
    sink_set: frozenset[int]
    vertex_mask: int

    def __contains__(self, z: int) -> bool:
        return bool(self.vertex_mask >> z & 1)

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(_mask_bits(self.vertex_mask))

    @cached_property
    def vertex_array(self) -> np.ndarray:
        """The vertex set as a boolean array over the domain's vertices."""
        n = self.domain.n
        packed = np.frombuffer(self.vertex_mask.to_bytes((n + 7) // 8, "little"),
                               dtype=np.uint8)
        return np.unpackbits(packed, count=n, bitorder="little").astype(bool)

    def edges(self) -> list[tuple[int, int]]:
        m = self.vertex_mask
        return [(x, y) for (x, y) in self.domain.cover_edges()
                if m >> x & 1 and m >> y & 1]

    def sources_below(self, z: int) -> frozenset[int]:
        """S(z) = {s in S : s <= z}; nonempty for every z in the graph."""
        down = self.domain.down_mask(z)
        return frozenset(s for s in self.source_set if down >> s & 1)

    def sinks_above(self, z: int) -> frozenset[int]:
        """T(z) = {t in T : z <= t}; nonempty for every z in the graph."""
        up = self.domain.up_mask(z)
        return frozenset(t for t in self.sink_set if up >> t & 1)


def _mask_bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _topological_order(n: int, edges: Sequence[tuple[int, int]]) -> list[int]:
    indeg = [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    for (u, v) in edges:
        out[u].append(v)
        indeg[v] += 1
    queue = [v for v in range(n) if indeg[v] == 0]
    order = []
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        order.append(x)
        for v in out[x]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if len(order) != n:
        raise CycleError("edge list contains a directed cycle")
    return order


def build_domain(spec) -> PosetDomain:
    """Build a domain from a dimension, an (n, edges) pair, or a parsed
    JSON mapping ({"d": ...} or {"n": ..., "edges": [[u, v], ...]}).  A
    dimension gives the shared `hypercube` instance."""
    if isinstance(spec, int):
        return hypercube(spec)
    if isinstance(spec, dict):
        if "d" in spec:
            return hypercube(int(spec["d"]))
        if "n" in spec:
            edges = [(int(u), int(v)) for u, v in spec.get("edges", [])]
            return PosetDomain("dag", n=int(spec["n"]), edges=edges)
        raise ValueError("domain mapping needs a 'd' or 'n' key")
    if isinstance(spec, tuple) and len(spec) == 2:
        n, edges = spec
        return PosetDomain("dag", n=n, edges=edges)
    raise ValueError(f"cannot build a domain from {spec!r}")


@lru_cache(maxsize=None)
def hypercube(d: int) -> PosetDomain:
    """Shared hypercube instance; cached since domains are immutable."""
    return PosetDomain("hypercube", d=d)


def read_domain(path) -> PosetDomain:
    with open(path) as fh:
        return build_domain(json.load(fh))


def position_relative_to(domain: PosetDomain, z: int, graph: SweepingGraph) -> str:
    """Locate z relative to a sweeping graph H.

    Returns 'inside' if z is a vertex of H, 'above' if some vertex of H is
    strictly below z, 'below' if some vertex of H is strictly above z, and
    'neither' otherwise.  A vertex outside H is never both above and below.
    """
    domain.check_vertex(z)
    if z in graph:
        return "inside"
    zbit = 1 << z
    above = bool(graph.vertex_mask & domain.down_mask(z) & ~zbit)
    below = bool(graph.vertex_mask & domain.up_mask(z) & ~zbit)
    if above and below:
        raise AssertionError(
            f"vertex {z} is both above and below the sweeping graph; "
            "this contradicts the sweeping-graph separation property")
    if above:
        return "above"
    if below:
        return "below"
    return "neither"
