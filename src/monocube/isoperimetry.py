"""Violation profiles and isoperimetric objectives.

Everything here is computed exactly from the full function table: the
violated edge set, per-vertex influence counts (directed, colored,
undirected), the square-root objectives, distance to constant, the
good-graph degree check, and tau-step persistence.  Sampling-based
estimation lives in `testers` and `dist_approx`.

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
the copy cached on the function.  `ViolationProfile` stores arrays, and
its tuple fields (``violated_edges``, ``out_counts``, ``total_degree``,
``undirected_counts``) are read-only views built on first access.

A red/blue coloring of the violated edges (`EdgeColoring`) is a boolean
vector aligned with one profile: ``red[k]`` colors the edge
``(lower[k], upper[k])``.  A subset of the violated edges is a boolean
mask over the same positions.  A colored count is one ``np.bincount``,
and `colored_objectives` gets the restricted objectives of a whole
``(rows, m)`` mask stack from one bincount per chunk of rows.
"""

from __future__ import annotations

import gc
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Literal

import numpy as np

from .funcs import ValuedFunction, image_values, threshold
from .poset import DomainSizeError, row_chunks

RED = "red"
BLUE = "blue"

PERSISTENCE_THRESHOLD = Fraction(9, 10)
DEFAULT_ENUMERATION_CAP = 10**6


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

    @cached_property
    def violated_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.lower.tolist(), self.upper.tolist()))

    @cached_property
    def out_counts(self) -> tuple[int, ...]:
        return tuple(self.out.tolist())

    @cached_property
    def total_degree(self) -> tuple[int, ...]:
        return tuple(self.total.tolist())

    @cached_property
    def undirected_counts(self) -> tuple[int, ...]:
        return tuple(self.undirected.tolist())

    @property
    def num_violated(self) -> int:
        return len(self.lower)


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
    def all_blue(cls, profile: ViolationProfile) -> "EdgeColoring":
        return cls(profile, np.zeros(profile.num_violated, dtype=bool))

    @classmethod
    def random(cls, profile: ViolationProfile, rng) -> "EdgeColoring":
        """Each edge red with probability 1/2: one ``rng.random()`` per
        violated edge, in profile order."""
        m = profile.num_violated
        return cls(profile, np.fromiter((rng.random() < 0.5 for _ in range(m)),
                                        dtype=bool, count=m))


def colored_counts(f: ValuedFunction, col: EdgeColoring) -> tuple[list[int], list[int]]:
    """(red counts at lower endpoints, blue counts at upper endpoints)."""
    n = f.domain.n
    counts = np.bincount(_colored_slots(col, n), minlength=2 * n).tolist()
    return counts[:n], counts[n:]


def _colored_slots(col: EdgeColoring, n: int) -> np.ndarray:
    """Each violated edge's count slot: a red edge lands in slot x, a blue
    one in slot n + y, widened so that n + y cannot wrap the uint32
    endpoints."""
    p = col.profile
    return np.where(col.red, p.lower, p.upper.astype(np.intp) + n)


def _mean_sqrt(counts, n: int) -> float:
    return math.fsum(np.sqrt(counts).tolist()) / n


def colored_objective(f: ValuedFunction, col: EdgeColoring) -> float:
    """E_x[sqrt(red count at x)] + E_y[sqrt(blue count at y)]."""
    n = f.domain.n
    return _objectives(np.bincount(_colored_slots(col, n), minlength=2 * n), n)[0]


def colored_objectives(f: ValuedFunction, col: EdgeColoring,
                       masks: np.ndarray) -> list[float]:
    """`colored_objective` counting only the violated edges selected by
    each row of a boolean ``(rows, m)`` mask stack, from one
    ``np.bincount`` over row * 2n + slot per chunk of rows (at most
    `poset.PAIR_CHUNK` counts)."""
    n = f.domain.n
    slots = _colored_slots(col, n)
    out = []
    for rows in row_chunks(len(masks), 2 * n):
        block = masks[rows]
        row, edge = np.divmod(np.flatnonzero(block), max(len(slots), 1))
        out += _objectives(np.bincount(row * (2 * n) + slots.take(edge),
                                       minlength=len(block) * 2 * n), n)
    return out


def _objectives(counts: np.ndarray, n: int) -> list[float]:
    """The colored objective of each run of 2n slot counts (red at x, then
    blue at y): one ``np.sqrt`` over all counts, then ``math.fsum`` over
    each half, so every value is bit-identical to `_mean_sqrt` of the red
    and of the blue counts, added."""
    halves = [math.fsum(h) / n for h in np.sqrt(counts).reshape(-1, n).tolist()]
    return list(map(operator.add, halves[0::2], halves[1::2]))


def directed_objective(f: ValuedFunction) -> float:
    """E_x[sqrt(I_minus(x))] over a uniform vertex."""
    return _mean_sqrt(violation_profile(f).out, f.domain.n)


def robust_objective(f: ValuedFunction, col: EdgeColoring,
                     profile: ViolationProfile | None = None) -> float:
    """E_x[sqrt(red count at x)] + E_y[sqrt(blue count at y)] for a total
    2-coloring of the violated edges."""
    if profile is None:
        profile = violation_profile(f)
    col.validate_for(profile)
    return colored_objective(f, col)


def undirected_objective(f: ValuedFunction) -> float:
    """E_x[sqrt(I_undirected(x))]; each influential edge is counted at
    exactly one endpoint."""
    return _mean_sqrt(violation_profile(f).undirected, f.domain.n)


def dist_to_const_fraction(f: ValuedFunction) -> Fraction:
    return 1 - Fraction(int(np.bincount(f.ranks).max()), f.domain.n)


def dist_to_const(f: ValuedFunction) -> float:
    """1 - (largest value frequency): the distance to the nearest constant."""
    return float(dist_to_const_fraction(f))


# -- (K, Delta)-good graphs ----------------------------------------------------

GoodGraphStatus = Literal["left-good", "right-good", "both", "neither"]


def check_good_graph(A: Iterable[int], B: Iterable[int],
                     edges: Iterable[tuple[int, int]], K: int, delta: int
                     ) -> GoodGraphStatus:
    """Degree check for a directed bipartite graph with edges from A to B.

    For a side X (with Y the other side) the graph is good when |X| = K,
    every X-vertex has degree exactly delta, and every Y-vertex has degree
    at most 2*delta.  Returns which of the two orientations qualify.
    """
    A = set(A)
    B = set(B)
    deg_a: dict[int, int] = {a: 0 for a in A}
    deg_b: dict[int, int] = {b: 0 for b in B}
    for (a, b) in edges:
        if a not in A or b not in B:
            raise ValueError(f"edge ({a},{b}) has an endpoint outside A x B")
        deg_a[a] += 1
        deg_b[b] += 1

    def good(x_deg: dict[int, int], y_deg: dict[int, int]) -> bool:
        return (len(x_deg) == K
                and all(v == delta for v in x_deg.values())
                and all(v <= 2 * delta for v in y_deg.values()))

    left = good(deg_a, deg_b)
    right = good(deg_b, deg_a)
    if left and right:
        return "both"
    if left:
        return "left-good"
    if right:
        return "right-good"
    return "neither"


# -- persistence ----------------------------------------------------------------


def free_coordinates(x: int, d: int, direction: str) -> list[int]:
    """Coordinates available to a tau-step walk from x: the 0-coordinates
    for a rightward (upward) walk, the 1-coordinates for a leftward one."""
    if direction == "right":
        return [i for i in range(d) if not x >> i & 1]
    if direction == "left":
        return [i for i in range(d) if x >> i & 1]
    raise ValueError(f"direction must be 'right' or 'left', not {direction!r}")


# A tau-step walk flips tau free coordinates: it sets 0-bits going right
# and clears 1-bits going left, so either way it ends at y = x ^ bits(T).
# The value at y persists when it stays on f(x)'s side of the walk.
_STAYS = {"right": operator.le, "left": operator.ge}


def _bits(coordinates: Iterable[int]) -> int:
    return sum(1 << i for i in coordinates)


def persistence_probability(f: ValuedFunction, x: int, tau: int,
                            direction: str = "right",
                            enumeration_cap: int = DEFAULT_ENUMERATION_CAP
                            ) -> Fraction:
    """Exact probability that a uniformly random tau-subset flip keeps the
    value on the persistent side (<= f(x) going right, >= f(x) going left).

    When tau exceeds the number of free coordinates the walk degenerates
    to y = x and the probability is 1.  Enumeration is guarded by a cap
    on the number of subsets.
    """
    domain = f.domain
    if domain.kind != "hypercube":
        raise ValueError("persistence is defined on hypercube domains")
    domain.check_vertex(x)
    if tau < 1:
        raise ValueError("tau must be >= 1")
    free = free_coordinates(x, domain.d, direction)
    if tau > len(free):
        return Fraction(1)
    total = math.comb(len(free), tau)
    if total > enumeration_cap:
        raise DomainSizeError(
            f"exact persistence needs {total} subsets, cap is {enumeration_cap}")
    fx, stays = f.values[x], _STAYS[direction]
    good = sum(stays(f.values[x ^ _bits(T)], fx) for T in combinations(free, tau))
    return Fraction(good, total)


@dataclass(frozen=True)
class PersistenceEstimate:
    probability: float
    std_error: float
    samples: int


def persistence_probability_mc(f: ValuedFunction, x: int, tau: int,
                               direction: str, samples: int, seed: int
                               ) -> PersistenceEstimate:
    """Monte Carlo persistence probability with its binomial standard error."""
    import random

    domain = f.domain
    free = free_coordinates(x, domain.d, direction)
    if tau > len(free):
        return PersistenceEstimate(1.0, 0.0, samples)
    rng = random.Random(seed)
    fx, stays = f.values[x], _STAYS[direction]
    good = sum(stays(f.values[x ^ _bits(rng.sample(free, tau))], fx) for _ in range(samples))
    p = good / samples
    return PersistenceEstimate(p, math.sqrt(p * (1 - p) / samples), samples)


def is_persistent(f: ValuedFunction, x: int, tau: int,
                  direction: str = "right",
                  enumeration_cap: int = DEFAULT_ENUMERATION_CAP) -> bool:
    """Persistent means the exact walk probability exceeds 9/10."""
    return persistence_probability(f, x, tau, direction, enumeration_cap) \
        > PERSISTENCE_THRESHOLD


def weight_band(d: int, band_constant: float = 2.0) -> tuple[float, float]:
    """The middle-weight band d/2 +- band_constant * sqrt(d log d) inside
    which persistence statements are meant to be applied.  The constant is
    a free parameter; 2 is the default used by the reports."""
    half_width = band_constant * math.sqrt(d * max(math.log2(d), 1.0))
    return (d / 2 - half_width, d / 2 + half_width)


@dataclass(frozen=True)
class PersistenceDecompositionReport:
    tau: int
    direction: str
    pointwise_match: bool
    mismatches: tuple[int, ...]
    nonpersistent_f: int
    nonpersistent_thresholds: tuple[int, ...]
    union_bound_holds: bool


def persistence_decomposition_check(f: ValuedFunction, tau: int,
                                    direction: str = "right",
                                    enumeration_cap: int = DEFAULT_ENUMERATION_CAP
                                    ) -> PersistenceDecompositionReport:
    """Check the threshold-function structure of persistence, exactly.

    Pointwise: x is right-persistent for f iff it is right-persistent for
    the Boolean indicator of {f > f(x)} (which is 0 at x, and 0 at y
    exactly when f(y) <= f(x)).  Mirrored for left-persistence, the
    matching indicator thresholds just below f(x): it is 1 at x and 1 at
    y exactly when f(y) >= f(x).  Globally: the number of non-persistent
    vertices for f is at most the sum over the r-1 proper thresholds of
    the non-persistent counts of the thresholded functions.
    """
    values = image_values(f)
    n = f.domain.n
    thresholds = [threshold(f, t) for t in values[:-1]]
    if direction == "right":
        # value v pairs with the cut {f > v}; the top value has no cut
        # above it and pairs with the all-zero function
        by_value = {v: h for v, h in zip(values[:-1], thresholds)}
        fallback = ValuedFunction(f.domain, tuple(0 for _ in range(n)))
    else:
        # value v pairs with the cut just below it, {f > predecessor(v)};
        # the bottom value pairs with the all-one function
        by_value = {v: h for v, h in zip(values[1:], thresholds)}
        fallback = ValuedFunction(f.domain, tuple(1 for _ in range(n)))

    mismatches = []
    nonpersistent_f = 0
    for x in range(n):
        pf = persistence_probability(f, x, tau, direction, enumeration_cap)
        h = by_value.get(f.values[x], fallback)
        ph = persistence_probability(h, x, tau, direction, enumeration_cap)
        if pf != ph:
            mismatches.append(x)
        if pf <= PERSISTENCE_THRESHOLD:
            nonpersistent_f += 1
    per_threshold = []
    for h in thresholds:
        count = sum(
            persistence_probability(h, x, tau, direction, enumeration_cap)
            <= PERSISTENCE_THRESHOLD
            for x in range(n))
        per_threshold.append(count)
    return PersistenceDecompositionReport(
        tau=tau, direction=direction,
        pointwise_match=not mismatches, mismatches=tuple(mismatches),
        nonpersistent_f=nonpersistent_f,
        nonpersistent_thresholds=tuple(per_threshold),
        union_bound_holds=nonpersistent_f <= sum(per_threshold))


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
