"""Poset domains: the directed hypercube and arbitrary DAGs.

Vertices are integers ``0..n-1``.  For a hypercube of dimension ``d``,
coordinate ``i`` (1-based) of vertex ``x`` is bit ``i-1`` of ``x``, so
``n = 2**d`` and every cover edge flips exactly one bit from 0 to 1.
Reachability and sweeping graphs are answered from per-vertex up-set /
down-set bitmasks (Python ints), which are built lazily and cached on
the domain.

Whole-table scans read two kinds of cached, read-only ``uint32`` array
pairs:

* `PosetDomain.edge_arrays` = ``(lower, upper)``, the cover edges in
  exactly the order `cover_edges()` lists them: row-major over (vertex,
  coordinate) on the hypercube, the sorted edge list on a DAG.
* `PosetDomain.pair_arrays` = ``(lower, upper)``, every strict
  comparable pair x < y, x ascending and then y ascending.  It is built
  by one chunked comparison (``x & ~y == 0`` on the hypercube, the
  unpacked up-set masks on a DAG) after `PosetDomain.check_pair_budget`,
  the exact methods' one size budget, has admitted the domain.

`PosetDomain.down_max` is the one downward-max closure sweep, along the
last axis of one value array or a stack of them: one pass per coordinate
on the hypercube, one reduction per topological level on a DAG.
`row_chunks` splits a stack into chunks of at most `PAIR_CHUNK` cells.

Domains are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np


class CycleError(ValueError):
    """Raised when a DAG edge list contains a directed cycle."""


class DomainSizeError(RuntimeError):
    """Raised when an exact computation would exceed its size budget."""


# Most comparable pairs an exact method may walk: hypercube d <= 12, DAG n <= 1448.
MAX_PAIRS = 1 << 20
# Cells of a row-by-column temporary (`row_chunks`) held at once.
PAIR_CHUNK = 1 << 20


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
        """Read-only ``uint32`` ``(lower, upper)`` endpoint arrays of the
        cover edges, in `cover_edges()` order."""
        if self.kind == "hypercube":
            ids = np.arange(self.n, dtype=np.uint32)[:, None]
            bits = np.uint32(1) << np.arange(self.d, dtype=np.uint32)
            free = (ids & bits) == 0  # row-major over (vertex, coordinate)
            lower = np.broadcast_to(ids, free.shape)[free]
            upper = (ids | bits)[free]
        else:
            lower, upper = np.array(self._edges, dtype=np.uint32).reshape(-1, 2).T.copy()
        return _read_only(lower, upper)

    @cached_property
    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``uint32`` ``(lower, upper)`` arrays of every strict
        comparable pair x < y, x ascending and then y ascending.  Raises
        `DomainSizeError` over the pair budget before any mask is built."""
        self.check_pair_budget()
        n = self.n
        if self.kind == "hypercube":
            ids = np.arange(n, dtype=np.min_scalar_type(n - 1))

            def at_most(rows: slice) -> np.ndarray:  # x <= y iff x & ~y == 0
                return (ids[rows, None] & ~ids) == 0
        else:
            width = (n + 7) // 8
            packed = np.frombuffer(b"".join(m.to_bytes(width, "little")
                                            for m in self._up_masks()),
                                   dtype=np.uint8).reshape(n, width)

            def at_most(rows: slice) -> np.ndarray:  # bit y of up[x]: x <= y
                return np.unpackbits(packed[rows], axis=1, count=n,
                                     bitorder="little").view(bool)
        lowers, uppers = [], []
        for rows in row_chunks(n, n):
            start = rows.start
            le = at_most(rows)
            diagonal = np.arange(len(le))
            le[diagonal, diagonal + start] = False
            x, y = np.nonzero(le)
            lowers.append((x + start).astype(np.uint32))
            uppers.append(y.astype(np.uint32))
        return _read_only(np.concatenate(lowers), np.concatenate(uppers))

    def down_max(self, a: np.ndarray) -> np.ndarray:
        """The downward-max closure along the last axis of a value array or
        a stack of them: ``out[..., x]`` is the largest ``a[..., y]`` over
        all ``y <= x``."""
        out = np.array(a)
        if self.kind == "hypercube":
            for i in range(self.d):
                # [..., 1, :] has bit i set
                pairs = out.reshape(out.shape[:-1] + (self.n >> (i + 1), 2, 1 << i))
                np.maximum(pairs[..., 1, :], pairs[..., 0, :], out=pairs[..., 1, :])
            return out
        for tails, starts, heads in self._levels:
            reached = np.maximum.reduceat(out.take(tails, axis=-1), starts, axis=-1)
            out[..., heads] = np.maximum(out[..., heads], reached)
        return out

    @cached_property
    def _levels(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The DAG's cover edges grouped by the level of their upper
        endpoint (the length of the longest path ending there), in level
        order: per level, the edges' lower endpoints sorted by upper
        endpoint, where each upper endpoint's run starts, and the upper
        endpoints themselves.  Every edge into a level leaves a lower one."""
        if not self._edges:
            return []
        succ: list[list[int]] = [[] for _ in range(self.n)]
        for (u, v) in self._edges:
            succ[u].append(v)
        level = [0] * self.n
        for x in self._topo:
            for v in succ[x]:
                level[v] = max(level[v], level[x] + 1)
        lower, upper = (e.astype(np.intp) for e in self.edge_arrays)
        edge_level = np.array(level, dtype=np.intp)[upper]
        order = np.lexsort((upper, edge_level))
        bounds = np.flatnonzero(np.diff(edge_level[order])) + 1
        levels = []
        for tails, heads in zip(np.split(lower[order], bounds), np.split(upper[order], bounds)):
            starts = np.flatnonzero(np.r_[True, heads[1:] != heads[:-1]])
            levels.append((tails, starts, heads[starts]))
        return levels

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
        in `pair_arrays` order, within the pair budget."""
        lower, upper = self.pair_arrays
        return list(zip(lower.tolist(), upper.tolist()))

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

    By construction the graph is induced: its edges are the domain's
    cover edges with both endpoints inside, so only the vertex set is
    stored.
    """

    domain: PosetDomain
    source_set: frozenset[int]
    sink_set: frozenset[int]
    vertex_mask: int

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.vertex_array).tolist())

    @cached_property
    def vertex_array(self) -> np.ndarray:
        """The vertex set as a boolean array over the domain's vertices."""
        n = self.domain.n
        packed = np.frombuffer(self.vertex_mask.to_bytes((n + 7) // 8, "little"),
                               dtype=np.uint8)
        return np.unpackbits(packed, count=n, bitorder="little").astype(bool)


def row_chunks(rows: int, width: int) -> Iterator[slice]:
    """Slices covering ``range(rows)``, each of at most ``PAIR_CHUNK //
    width`` rows (at least one), so a chunk of a ``(rows, width)`` array
    holds at most `PAIR_CHUNK` cells once ``width`` fits."""
    step = max(1, PAIR_CHUNK // max(width, 1))
    return (slice(start, start + step) for start in range(0, rows, step))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


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

