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

Every square-root objective is an exactly rounded sum of correctly
rounded square roots, taken from a histogram of its integer counts
(`_root_means`), so sums are independent of accumulation order and
bit-reproducible: each mean equals ``math.fsum`` over the n roots,
divided by n.

Each function's profile is one array computation: the function's ranks
(`ValuedFunction.ranks`) are compared across the domain's cover-edge
arrays (`PosetDomain.edge_arrays`) and the per-vertex counts come from
``np.bincount``.  This module owns the profile: `violation_profile`
computes it once per function and caches it on the function, under
``vars(f)["violation_profile"]``.  `ViolationProfile` stores only arrays.

A red/blue coloring of the violated edges (`EdgeColoring`) is a boolean
vector aligned with one profile: ``red[k]`` colors the edge
``(lower[k], upper[k])``, and the vertex count is read off that
profile.  A random coloring is one ``rng.random(m) < 0.5`` from a
``numpy.random.Generator``, the package's one kind of random source.
A subset of the violated edges is a boolean mask over the same
positions.  A colored count is one ``np.bincount``.
A whole ``(rows, m)`` mask stack is read once into its `colored_cells`,
which no coloring enters, and `colored_objectives` gets each coloring's
restricted objectives from them with one bincount per chunk of rows.
`greedy_descent` keeps a coloring's objective as two exact integer
totals, so each single-edge flip it tries costs O(1); `worst_coloring`
restarts it from colorings drawn from ``np.random.default_rng(seed)``,
or tries all 2^m up to a cap.

`profile_dump` writes the violated edges as one Python list per edge,
built with the cyclic collector paused.  The pause alone would only
move the collector's scan to the first allocation after it, since the
new lists stay counted in generation 0.  So the dump, while the
collector is still paused and only when nothing is frozen on entry,
promotes every tracked object to the oldest generation with
``gc.freeze()`` then ``gc.unfreeze()``, which scans nothing.  The edge
ends are n shared ints, one per vertex.
"""

from __future__ import annotations

import gc
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .funcs import ValuedFunction
from .poset import DomainSizeError, row_chunks


@dataclass(frozen=True, eq=False)
class ViolationProfile:
    """Violated edges and per-vertex counts of one function, as arrays."""

    edge_mask: np.ndarray    # over `PosetDomain.edge_arrays`: True where f violates the edge
    lower: np.ndarray        # lower endpoints of the violated edges, in cover-edge order
    upper: np.ndarray        # their upper endpoints
    out: np.ndarray          # I_minus per vertex
    total: np.ndarray        # U_minus per vertex
    undirected: np.ndarray   # I_undirected per vertex

    @property
    def num_violated(self) -> int:
        return len(self.lower)

    @property
    def n(self) -> int:
        """The domain's vertex count."""
        return len(self.out)


def violation_profile(f: ValuedFunction) -> ViolationProfile:
    """The violation profile of f, computed on first use and cached on f."""
    if "violation_profile" in vars(f):
        return vars(f)["violation_profile"]
    lower, upper = f.domain.edge_arrays
    n = f.domain.n
    rank_lower = f.ranks.take(lower)
    rank_upper = f.ranks.take(upper)
    violated = rank_lower > rank_upper
    rising = upper.compress(rank_lower < rank_upper)
    lower, upper = lower.compress(violated), upper.compress(violated)
    out = np.bincount(lower, minlength=n)
    profile = vars(f)["violation_profile"] = ViolationProfile(
        violated, lower, upper, out, total=out + np.bincount(upper, minlength=n),
        undirected=out + np.bincount(rising, minlength=n))
    return profile


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
    def random(cls, profile: ViolationProfile, rng: np.random.Generator) -> "EdgeColoring":
        """Each edge red with probability 1/2: one ``rng.random(m) < 0.5``
        over the m violated edges, in profile order."""
        return cls(profile, rng.random(profile.num_violated) < 0.5)


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


# sqrt(c) >= 1 is a double of exponent >= 0, so sqrt(c) * 2^52 is an integer
_ROOT_SCALE = 1 << 52


def _root_table(size: int) -> tuple[np.ndarray, np.ndarray]:
    roots = (np.sqrt(np.arange(size)) * float(_ROOT_SCALE)).astype(np.int64)
    return roots >> 32, roots & 0xFFFFFFFF


# _exact_roots' table, grown on demand; every size holds the same prefix,
# so sharing it across callers changes no result
_roots = _root_table(256)


def _exact_roots(top: int) -> tuple[np.ndarray, np.ndarray]:
    """The exact integers sqrt(c) * 2^52 for c = 0..top (below 2^62 while
    c < 2^20), as their high and low 32-bit halves in two int64 arrays,
    read from a table kept across calls and grown to the next power of
    two past top when top reaches its end."""
    global _roots
    if top >= len(_roots[0]):
        _roots = _root_table(1 << top.bit_length())
    return _roots[0][:top + 1], _roots[1][:top + 1]


def _root_means(counts: np.ndarray, n: int) -> list[float]:
    """E[sqrt(count)] over each run of n counts: one bincount gives every
    run's histogram of count values, which is dotted with both halves of
    `_exact_roots`.  Neither int64 dot can overflow while n and every
    count are below 2^20.  The halves join as one Python int, the exact
    sum of the run's roots, and `_root_mean` rounds it as ``math.fsum``
    over the n roots, then / n, does."""
    runs = len(counts) // n
    width = int(counts.max(initial=0)) + 1
    keys = counts.reshape(runs, n) + np.arange(0, runs * width, width)[:, None]
    hist = np.bincount(keys.ravel(), minlength=runs * width).reshape(runs, width)
    high, low = _exact_roots(width - 1)
    return [_root_mean((h << 32) + lo, n)
            for h, lo in zip((hist @ high).tolist(), (hist @ low).tolist())]


def _root_mean(total: int, n: int) -> float:
    """E[sqrt(count)] over n counts from the exact sum ``total`` of their
    `_exact_roots`: the sum correctly rounded (int / int division is),
    then divided by n, as ``math.fsum(roots) / n`` computes it."""
    return total / _ROOT_SCALE / n


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
    blue at y): the `_root_means` of the red and of the blue counts,
    added."""
    halves = _root_means(counts, n)
    return list(map(operator.add, halves[0::2], halves[1::2]))


def greedy_descent(col: EdgeColoring) -> Iterator[float]:
    """The greedy search from col, which it recolors in place: sweeps over
    the edges in profile order, flipping each edge whose flip lowers the
    robust objective by more than 1e-15, until a sweep flips none.  Yields
    the starting value, then the value after each flip.

    The objective is kept as two exact integer totals, the `_exact_roots`
    of the red and of the blue counts.  A flip moves one red count and
    one blue count by 1, so a candidate costs two table differences, and
    its value is bit-identical to `robust_objective`."""
    p = col.profile
    n = p.n
    high, low = _exact_roots(int(p.total.max()))
    roots = ((high << 32) + low).tolist()
    reds, blues = colored_counts(col)
    red_total, blue_total = sum(map(roots.__getitem__, reds)), sum(map(roots.__getitem__, blues))
    val = _root_mean(red_total, n) + _root_mean(blue_total, n)
    yield val
    red = col.red
    colors = red.tolist()
    edges = list(enumerate(zip(p.lower.tolist(), p.upper.tolist())))
    improved = True
    while improved:
        improved = False
        for k, (x, y) in edges:
            # red -> blue takes the edge from x's red count to y's blue count
            r, b = (reds[x] - 1, blues[y] + 1) if colors[k] else (reds[x] + 1, blues[y] - 1)
            cand_red = red_total + roots[r] - roots[reds[x]]
            cand_blue = blue_total + roots[b] - roots[blues[y]]
            cand_val = _root_mean(cand_red, n) + _root_mean(cand_blue, n)
            if cand_val < val - 1e-15:
                colors[k] = red[k] = not colors[k]
                reds[x], blues[y] = r, b
                red_total, blue_total, val = cand_red, cand_blue, cand_val
                improved = True
                yield val


COLORING_ENUM_CAP = 20


def worst_coloring(f: ValuedFunction, mode: str = "exhaustive",
                   restarts: int = 5, seed: int = 0) -> tuple[EdgeColoring, float]:
    """Coloring of the violated edges minimizing the robust objective.

    'exhaustive' sweeps all 2^m colorings (m <= `COLORING_ENUM_CAP`);
    'greedy' runs local search flipping one edge color at a time
    (`greedy_descent`, which updates the objective exactly per flip),
    from the all-red coloring and then from ``restarts - 1`` random ones
    (`EdgeColoring.random`) drawn from ``np.random.default_rng(seed)``.
    """
    profile = violation_profile(f)
    m = profile.num_violated
    if m == 0:
        col = EdgeColoring.all_red(profile)
        return col, robust_objective(f, col)
    if mode == "exhaustive":
        if m > COLORING_ENUM_CAP:
            raise DomainSizeError(f"2^{m} colorings exceeds cap 2^{COLORING_ENUM_CAP}")
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

    rng = np.random.default_rng(seed)
    best_val = None
    best_col = None
    for restart in range(restarts):
        col = (EdgeColoring.all_red(profile) if restart == 0
               else EdgeColoring.random(profile, rng))
        *_, val = greedy_descent(col)
        if best_val is None or val < best_val:
            best_val, best_col = val, col
    return best_col, best_val


def directed_objective(f: ValuedFunction) -> float:
    """E_x[sqrt(I_minus(x))] over a uniform vertex."""
    return _root_means(violation_profile(f).out, f.domain.n)[0]


def robust_objective(f: ValuedFunction, col: EdgeColoring) -> float:
    """E_x[sqrt(red count at x)] + E_y[sqrt(blue count at y)] for a total
    2-coloring of the violated edges."""
    col.validate_for(violation_profile(f))
    n = f.domain.n
    return _objectives(np.bincount(_colored_slots(col), minlength=2 * n), n)[0]


def undirected_objective(f: ValuedFunction) -> float:
    """E_x[sqrt(I_undirected(x))]; each influential edge is counted at
    exactly one endpoint."""
    return _root_means(violation_profile(f).undirected, f.domain.n)[0]


def dist_to_const_fraction(f: ValuedFunction) -> Fraction:
    return 1 - Fraction(int(np.bincount(f.ranks).max()), f.domain.n)


def dist_to_const(f: ValuedFunction) -> float:
    """1 - (largest value frequency): the distance to the nearest constant."""
    return float(dist_to_const_fraction(f))


def profile_dump(f: ValuedFunction) -> dict:
    """JSON-ready per-vertex counts plus the scalar objectives.

    ``violated_edges`` holds one small list per violated edge (about
    230,000 at d = 16, r = 8), and the collector never scans them:

    * The cyclic garbage collector is paused while the list is built.
      With it on, every 700 new lists start a collection that walks the
      lists made so far.  The lists hold no reference cycles, so the
      pause keeps no garbage alive.
    * A pause alone only moves the scan: the new lists stay counted in
      generation 0, and the first allocation after the collector is
      back on starts a collection that walks all of them.  So while it
      is still paused, ``gc.freeze()`` then ``gc.unfreeze()`` moves
      every tracked object into the oldest generation without scanning
      any, and resets generation 0's count.
    * That move is made only when nothing is frozen on entry
      (``gc.get_freeze_count() == 0``), since the unfreeze would also
      release objects a caller froze.

    Each edge's ends are gathered from one object array of the n vertex
    ids, so every end is one of n shared ints rather than a new int.
    The collector's previous state is restored even if the build raises.
    """
    profile = violation_profile(f)
    directed = directed_objective(f)
    collecting = gc.isenabled()
    gc.disable()  # the edge lists are acyclic: collections while they grow find nothing
    try:
        ids = np.arange(f.domain.n).astype(object)
        violated_edges = ids[np.stack((profile.lower, profile.upper), axis=1)].tolist()
        if gc.get_freeze_count() == 0:
            gc.freeze()
            gc.unfreeze()
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
