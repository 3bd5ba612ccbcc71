"""Violation profiles and isoperimetric objectives.

Everything here is computed exactly from the full function table: the
violated edge set, per-vertex influence counts (directed, colored,
undirected), the square-root objectives and the distance to constant.
Sampling-based estimation lives in `testers` and `dist_approx`.

Counting conventions:

* ``I_minus(x)`` counts violated edges going out of x.
* A red violated edge is counted at its lower endpoint, a blue one at
  its upper endpoint.
* ``U_minus(x)`` counts violated edges incident on x in either direction.
* The undirected count ``I_undirected(x)`` assigns each influential edge
  (endpoint values differ) to the endpoint with the larger value.

Floating-point objectives use ``math.fsum`` (exactly rounded) over
correctly rounded square roots, so sums are independent of accumulation
order and bit-reproducible.

Each function's profile is one array computation: the function's ranks
(`ValuedFunction.ranks`) are compared across the domain's cover-edge
arrays (`PosetDomain.edge_arrays`) and the per-vertex counts come from
``np.bincount``.  It runs once per function; `violation_profile` returns
the copy cached on the function.  `ViolationProfile` stores only arrays.

A red/blue coloring of the violated edges (`EdgeColoring`) is a boolean
vector aligned with one profile: ``red[k]`` colors the edge
``(lower[k], upper[k])``, and the vertex count is read off that
profile.  A subset of the violated edges is a boolean
mask over the same positions.  A colored count is one ``np.bincount``.
A whole ``(rows, m)`` mask stack is read once into its `colored_cells`,
which no coloring enters, and `colored_objectives` gets each coloring's
restricted objectives from them with one bincount per chunk of rows.
"""

from __future__ import annotations

import gc
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .funcs import ValuedFunction
from .poset import row_chunks


@dataclass(frozen=True, eq=False)
class ViolationProfile:
    """Violated edges and per-vertex counts of one function, as arrays."""

    edge_mask: np.ndarray    # over `PosetDomain.edge_arrays`: True where f violates the edge
    lower: np.ndarray        # lower endpoints of the violated edges, in cover-edge order
    upper: np.ndarray        # their upper endpoints
    out: np.ndarray          # I_minus per vertex
    total: np.ndarray        # U_minus per vertex
    undirected: np.ndarray   # I_undirected per vertex
    influential_edge_count: int

    @classmethod
    def of(cls, f: ValuedFunction) -> "ViolationProfile":
        """Compute the profile; callers use `violation_profile`, which
        caches it on f."""
        lower, upper = f.domain.edge_arrays
        n = f.domain.n
        rank_lower = f.ranks.take(lower)
        rank_upper = f.ranks.take(upper)
        violated = rank_lower > rank_upper
        rising = upper.compress(rank_lower < rank_upper)
        lower, upper = lower.compress(violated), upper.compress(violated)
        out = np.bincount(lower, minlength=n)
        return cls(violated, lower, upper, out,
                   total=out + np.bincount(upper, minlength=n),
                   undirected=out + np.bincount(rising, minlength=n),
                   influential_edge_count=len(lower) + len(rising))

    @property
    def num_violated(self) -> int:
        return len(self.lower)

    @property
    def n(self) -> int:
        """The domain's vertex count."""
        return len(self.out)


def violation_profile(f: ValuedFunction) -> ViolationProfile:
    """The violation profile of f, computed on first use and cached on f."""
    return f.violation_profile


class EdgeColoring:
    """A total red/blue coloring of the violated edges of one function.

    ``red[k]`` is the color of violated edge k of ``profile`` (in profile
    order): True for red, False for blue.
    """

    def __init__(self, profile: ViolationProfile, red):
        red = np.asarray(red, dtype=bool)
        if red.shape != profile.lower.shape:
            raise ValueError(f"{red.size} colors for {profile.num_violated} "
                             f"violated edges")
        self.profile = profile
        self.red = red

    def validate_for(self, profile: ViolationProfile) -> None:
        """Raise ValueError unless this coloring covers exactly the violated
        edges of ``profile``, in its order."""
        own = self.profile
        if own is not profile and not (np.array_equal(own.lower, profile.lower)
                                       and np.array_equal(own.upper, profile.upper)):
            raise ValueError("coloring was made for a different violated edge set")

    @classmethod
    def all_red(cls, profile: ViolationProfile) -> "EdgeColoring":
        return cls(profile, np.ones(profile.num_violated, dtype=bool))

    @classmethod
    def random(cls, profile: ViolationProfile, rng) -> "EdgeColoring":
        """Each edge red with probability 1/2: one ``rng.random()`` per
        violated edge, in profile order."""
        m = profile.num_violated
        return cls(profile, np.fromiter((rng.random() < 0.5 for _ in range(m)),
                                        dtype=bool, count=m))


def colored_counts(col: EdgeColoring) -> tuple[list[int], list[int]]:
    """(red counts at lower endpoints, blue counts at upper endpoints)."""
    n = col.profile.n
    counts = np.bincount(_colored_slots(col), minlength=2 * n).tolist()
    return counts[:n], counts[n:]


def _colored_slots(col: EdgeColoring) -> np.ndarray:
    """Each violated edge's count slot: a red edge lands in slot x, a blue
    one in slot n + y, widened so that n + y cannot wrap the uint32
    endpoints."""
    p = col.profile
    return np.where(col.red, p.lower, p.upper.astype(np.intp) + p.n)


def _mean_sqrt(counts, n: int) -> float:
    return math.fsum(np.sqrt(counts).tolist()) / n


def colored_cells(masks: np.ndarray, n: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """The selected cells of a boolean ``(rows, m)`` mask stack over one
    profile's violated edges, on a domain of n vertices, for
    `colored_objectives`.  Per chunk of rows (at most `poset.PAIR_CHUNK`
    counts, 2n per row): its row count, and each selected (row, edge)
    cell's first count slot row * 2n and its edge.  No coloring enters,
    so a caller counting many colorings builds them once."""
    cells = []
    for rows in row_chunks(len(masks), 2 * n):
        block = masks[rows]
        row, edge = np.divmod(np.flatnonzero(block), max(block.shape[1], 1))
        cells.append((len(block), row * (2 * n), edge))
    return cells


def colored_objectives(col: EdgeColoring,
                       cells: list[tuple[int, np.ndarray, np.ndarray]]) -> list[float]:
    """`robust_objective` counting only the violated edges selected by
    each row of a mask stack, given as its `colored_cells`: one
    ``np.bincount`` of row * 2n + slot per chunk of rows."""
    n = col.profile.n
    slots = _colored_slots(col)
    out = []
    for rows, first, edge in cells:
        out += _objectives(np.bincount(first + slots.take(edge), minlength=rows * 2 * n), n)
    return out


def _objectives(counts: np.ndarray, n: int) -> list[float]:
    """The colored objective of each run of 2n slot counts (red at x, then
    blue at y): one ``np.sqrt`` over the nonzero counts, then ``math.fsum``
    over each half's roots.  A zero adds nothing to an exactly rounded
    sum, so every value is bit-identical to `_mean_sqrt` of the red and
    of the blue counts, added."""
    nonzero = np.flatnonzero(counts)
    roots = np.sqrt(counts.take(nonzero)).tolist()
    cuts = np.searchsorted(nonzero, np.arange(0, len(counts) + 1, n)).tolist()
    halves = [math.fsum(roots[a:b]) / n for a, b in zip(cuts, cuts[1:])]
    return list(map(operator.add, halves[0::2], halves[1::2]))


def directed_objective(f: ValuedFunction) -> float:
    """E_x[sqrt(I_minus(x))] over a uniform vertex."""
    return _mean_sqrt(violation_profile(f).out, f.domain.n)


def robust_objective(f: ValuedFunction, col: EdgeColoring) -> float:
    """E_x[sqrt(red count at x)] + E_y[sqrt(blue count at y)] for a total
    2-coloring of the violated edges."""
    col.validate_for(violation_profile(f))
    n = f.domain.n
    return _objectives(np.bincount(_colored_slots(col), minlength=2 * n), n)[0]


def undirected_objective(f: ValuedFunction) -> float:
    """E_x[sqrt(I_undirected(x))]; each influential edge is counted at
    exactly one endpoint."""
    return _mean_sqrt(violation_profile(f).undirected, f.domain.n)


def dist_to_const_fraction(f: ValuedFunction) -> Fraction:
    return 1 - Fraction(int(np.bincount(f.ranks).max()), f.domain.n)


def dist_to_const(f: ValuedFunction) -> float:
    """1 - (largest value frequency): the distance to the nearest constant."""
    return float(dist_to_const_fraction(f))


def profile_dump(f: ValuedFunction) -> dict:
    """JSON-ready per-vertex counts plus the scalar objectives.

    The cyclic garbage collector is paused while ``violated_edges`` is
    built.  That list holds one small list per violated edge (about
    230,000 at d = 16, r = 8); with the collector on, every 700 new lists
    start a collection that walks the lists made so far, and those
    collections cost several times the build itself.  The lists hold no
    reference cycles, so the pause keeps no garbage alive.  The
    collector's previous state is restored even if the build raises.
    """
    profile = violation_profile(f)
    directed = directed_objective(f)
    collecting = gc.isenabled()
    gc.disable()  # the edge lists are acyclic: collections while they grow find nothing
    try:
        violated_edges = np.stack((profile.lower, profile.upper), axis=1).tolist()
    finally:
        if collecting:
            gc.enable()
    return {
        "I_minus": profile.out.tolist(),
        "U_minus": profile.total.tolist(),
        "I_undirected": profile.undirected.tolist(),
        "violated_edges": violated_edges,
        "objective_directed": directed,
        # the all-red coloring counts each violated edge at its lower
        # endpoint, exactly as I_minus does, and leaves every blue count 0
        "objective_robust": directed,
        "objective_undirected": undirected_objective(f),
        "dist_const": dist_to_const(f),
    }
