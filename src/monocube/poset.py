"""Poset domains: the directed hypercube and arbitrary DAGs.

Vertices are integers ``0..n-1``.  For a hypercube of dimension ``d``,
coordinate ``i`` (1-based) of vertex ``x`` is bit ``i-1`` of ``x``, so
``n = 2**d`` and every cover edge flips exactly one bit from 0 to 1.
Reachability on a DAG and every sweeping graph are read from
`PosetDomain.up_masks` and `PosetDomain.down_masks`, the per-vertex
up-set and down-set bitmasks (Python ints), built lazily by one pass
over the cover edges and cached on the domain.  The hypercube answers
`reaches` and `num_edges` in closed form, without them.  A DAG's one
topological pass (Kahn's) gives both its order and each vertex's level,
the length of the longest path ending there.

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

Beside the pairs, `PosetDomain.pair_is_cover_edge` is a cached, read-only
boolean per comparable pair, True where the pair is a cover edge: one bit
flipped (``popcount(x ^ y) == 1``) on the hypercube, a listed edge on a
DAG.  The exact solve starts its matching from those pairs.

`PosetDomain.down_max` is the one downward-max closure sweep, along the
last axis of one value array or a stack of them: one pass per coordinate
on the hypercube, one reduction per topological level on a DAG.
`row_chunks` splits a stack into chunks of at most `PAIR_CHUNK` cells.

The function generators call `PosetDomain.check_table_budget` before they
allocate a value table: at most `MAX_TABLE` vertices.  A DAG domain over
that budget is refused before its topological order and adjacency lists
are built, so a domain file cannot ask for more than a table would hold.

`PosetDomain` checks its own numbers, so `build_domain` reads only a domain
file's JSON shape: ``d``, ``n`` and each edge end must be an ``int`` (not a
bool, a float or a numpy integer), and d at most 63, checked before ``1 << d``.

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
# Most vertices a generated value table may have: hypercube d <= 20.
MAX_TABLE = 1 << 20


class PosetDomain:
    """A directed hypercube (by dimension) or an explicit DAG."""

    def __init__(self, kind: str, *, d: int | None = None, n: int | None = None,
                 edges: Sequence[tuple[int, int]] | None = None):
        if kind == "hypercube":
            _check_int("d", d)
            if d < 1:
                raise ValueError("hypercube dimension must be >= 1")
            if d > 63:  # before 1 << d is formed
                raise ValueError(f"hypercube dimension {d} is past the vertex-id range, d <= 63")
            self.kind = "hypercube"
            self.d = d
            self.n = 1 << d
        elif kind == "dag":
            _check_int("n", n)
            if n < 1:
                raise ValueError("dag vertex count must be >= 1")
            _check_table_size("a DAG domain", n)  # before its O(n) lists
            edges = list(edges or [])
            for (u, v) in edges:
                if not type(u) is type(v) is int:
                    raise ValueError("'edges' must be a list of [u, v] integer pairs")
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u},{v}) out of range for n={n}")
                if u == v:
                    raise CycleError(f"self-loop at vertex {u}")
            self.kind = "dag"
            self.d = None
            self.n = n
            self._edges = sorted(set(edges))
            self._topo, self._level = _topological_order(n, self._edges)
        else:
            raise ValueError(f"unknown domain kind: {kind}")

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
        """All domain edges (x, y), in `edge_arrays` order.  For hypercubes
        these are the single-bit upward flips, d * 2^(d-1) in total."""
        lower, upper = self.edge_arrays
        return list(zip(lower.tolist(), upper.tolist()))

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``uint32`` ``(lower, upper)`` endpoint arrays of the
        cover edges, in `cover_edges()` order."""
        if self.kind == "hypercube":
            # the flat positions of the free (vertex, coordinate) cells, in
            # row-major order, held as uint32 once found
            free = (np.arange(self.n, dtype=np.uint32)[:, None]
                    & (np.uint32(1) << np.arange(self.d, dtype=np.uint32))) == 0
            lower, bit = np.divmod(np.flatnonzero(free).astype(np.uint32), np.uint32(self.d))
            del free
            np.left_shift(np.uint32(1), bit, out=bit)
            upper = lower | bit
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
            up = self.up_masks

            def at_most(rows: slice) -> np.ndarray:  # bit y of up[x]: x <= y
                return mask_array(up[rows], n)
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

    @cached_property
    def pair_is_cover_edge(self) -> np.ndarray:
        """Read-only boolean per pair of `pair_arrays`, True where the pair
        is one of `edge_arrays`."""
        lower, upper = self.pair_arrays
        if self.kind == "hypercube":
            flips = lower ^ upper  # nonzero: one bit iff flips & (flips - 1) == 0
            return _read_only(flips & (flips - 1) == 0)[0]
        tails, heads = self.edge_arrays
        edges = tails.astype(np.int64) * self.n + heads
        return _read_only(np.isin(lower.astype(np.int64) * self.n + upper, edges))[0]

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
        lower, upper = (e.astype(np.intp) for e in self.edge_arrays)
        edge_level = np.array(self._level, dtype=np.intp)[upper]
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
        return bool(self.up_masks[x] >> y & 1)

    @cached_property
    def up_masks(self) -> list[int]:
        """``up_masks[x]`` = bitmask of {y : x <= y}, including x itself."""
        return self._closure_masks(upward=True)

    @cached_property
    def down_masks(self) -> list[int]:
        """``down_masks[x]`` = bitmask of {y : y <= x}, including x itself."""
        return self._closure_masks(upward=False)

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

    # -- size budgets ----------------------------------------------------------

    def check_pair_budget(self) -> None:
        """Raise `DomainSizeError` above `MAX_PAIRS` comparable pairs, counted
        without masks: 3^d - 2^d on the hypercube, at most n(n-1)/2 on a DAG."""
        pairs = (3 ** self.d - 2 ** self.d if self.kind == "hypercube"
                 else self.n * (self.n - 1) // 2)
        if pairs > MAX_PAIRS:
            raise DomainSizeError(f"{self!r} has up to {pairs} comparable pairs, "
                                  f"over the budget of {MAX_PAIRS}")

    def check_table_budget(self) -> None:
        """Raise `DomainSizeError` above `MAX_TABLE` vertices: each generator
        calls it before it allocates a value table."""
        _check_table_size(repr(self), self.n)

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
        up, down = self.up_masks, self.down_masks
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
        return mask_array([self.vertex_mask], self.domain.n)[0]


def mask_array(masks: Sequence[int], n: int) -> np.ndarray:
    """Bits 0..n-1 of each vertex bitmask, one unpack for the lot: a
    ``(len(masks), n)`` boolean array."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks),
                           dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


def row_chunks(rows: int, width: int) -> Iterator[slice]:
    """Slices covering ``range(rows)``, each of at most ``PAIR_CHUNK //
    width`` rows (at least one), so a chunk of a ``(rows, width)`` array
    holds at most `PAIR_CHUNK` cells once ``width`` fits."""
    step = max(1, PAIR_CHUNK // max(width, 1))
    return (slice(start, start + step) for start in range(0, rows, step))


def _check_int(name: str, value) -> None:
    if type(value) is not int:  # nothing is converted: a bool or a numpy integer is refused
        raise ValueError(f"'{name}' must be an integer, not {type(value).__name__}")


def _check_table_size(what: str, n: int) -> None:
    if n > MAX_TABLE:
        raise DomainSizeError(f"{what} has {n} vertices, over the "
                              f"value-table budget of {MAX_TABLE}")


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _topological_order(n: int, edges: Sequence[tuple[int, int]]
                       ) -> tuple[list[int], list[int]]:
    """Kahn's order of the DAG, and each vertex's level: the length of the
    longest path ending there."""
    indeg = [0] * n
    level = [0] * n
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
            level[v] = max(level[v], level[x] + 1)
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if len(order) != n:
        raise CycleError("edge list contains a directed cycle")
    return order, level


def build_domain(spec) -> PosetDomain:
    """Build a domain from a parsed JSON mapping: {"d": ...} gives the
    shared `hypercube` instance, {"n": ..., "edges": [[u, v], ...]} a DAG.
    Only the JSON shape is checked here; `PosetDomain` checks the numbers."""
    if not isinstance(spec, dict) or not ("d" in spec or "n" in spec):
        raise ValueError("domain mapping needs a 'd' or 'n' key")
    if "d" in spec:
        return hypercube(spec["d"])
    edges = spec.get("edges", [])
    if type(edges) is not list or not all(type(e) is list and len(e) == 2 for e in edges):
        raise ValueError("'edges' must be a list of [u, v] integer pairs")
    return PosetDomain("dag", n=spec["n"], edges=list(map(tuple, edges)))


def hypercube(d: int) -> PosetDomain:
    """The shared instance, cached since domains are immutable; only an int
    is a cache key, so ``True`` or ``2.0`` reaches `PosetDomain` and is refused."""
    return _shared_hypercube(d) if type(d) is int else PosetDomain("hypercube", d=d)


@lru_cache(maxsize=None)
def _shared_hypercube(d: int) -> PosetDomain:
    return PosetDomain("hypercube", d=d)


def read_domain(path) -> PosetDomain:
    """The domain a JSON file holds; ValueError naming the file if malformed."""
    try:
        with open(path) as fh:
            return build_domain(json.load(fh))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc

