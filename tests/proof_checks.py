"""Proof diagnostics kept as test helpers.

These compute, exactly and from the full table, quantities that the
paper's proofs reason about but that no command reports: the
(K, Delta)-good graph degree check, tau-step persistence and its
threshold decomposition, the median-threshold Boolean reduction behind
the undirected inequality, and the U-degree coloring with its dyadic
bucketing.  The tests check the proofs' claims on them directly.  Two
small views serve the tests too: a function's thresholds and a
profile's violated edges as tuples.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Literal

from monocube.funcs import ValuedFunction
from monocube.isoperimetry import EdgeColoring, colored_counts, violation_profile
from monocube.poset import DomainSizeError

RED = "red"
BLUE = "blue"

PERSISTENCE_THRESHOLD = Fraction(9, 10)
DEFAULT_ENUMERATION_CAP = 10**6


def threshold(f: ValuedFunction, t: float) -> ValuedFunction:
    """Boolean indicator of f(x) > t.  Its violated edges are a subset of
    the violated edges of f."""
    return ValuedFunction(f.domain, tuple(1 if v > t else 0 for v in f.values))


def violated_edges(profile) -> tuple[tuple[int, int], ...]:
    """A violation profile's violated edges as (lower, upper) tuples, in
    profile order."""
    return tuple(zip(profile.lower.tolist(), profile.upper.tolist()))


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
    values = list(f.levels)
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


# -- the median-threshold reduction ---------------------------------------------


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
    if not set(h.values) <= {0, 1}:
        raise ValueError("variance is defined here for Boolean functions only")
    n = h.domain.n
    p0 = Fraction(sum(1 for v in h.values if v == 0), n)
    return p0 * (1 - p0)


# -- diagnostics from the generalized bucketing argument ------------------------


def u_degree_coloring(f: ValuedFunction) -> EdgeColoring:
    """Color each violated edge toward the endpoint incident on more
    violated edges: red (lower endpoint) when U(x) >= U(y), blue otherwise."""
    profile = violation_profile(f)
    U = profile.total
    return EdgeColoring(profile, U[profile.lower] >= U[profile.upper])


@dataclass(frozen=True)
class BucketProfile:
    side: tuple[str, str]             # (parity, color) chosen
    blocks: dict                      # (t, s) -> vertex count
    side_sums: dict                   # (parity, color) -> objective sum
    bucketed_vertices: int

    @property
    def selected_sum(self) -> float:
        return self.side_sums[self.side]


def bucket_profile(f: ValuedFunction) -> BucketProfile:
    """Dyadic (t, s) bucketing of the parity class and color maximizing
    the colored square-root mass under the U-degree coloring.

    Every bucketed vertex x satisfies t <= U(x) < 2t and s <= I_b(x) < 2s
    with t, s powers of two (t >= s always, since U dominates any colored
    count)."""
    profile = violation_profile(f)
    col = u_degree_coloring(f)
    U = profile.total.tolist()
    n = f.domain.n
    red, blue = colored_counts(col)

    def parity_ok(x: int, parity: str) -> bool:
        even = x.bit_count() % 2 == 0
        return even if parity == "even" else not even

    side_sums = {}
    for parity in ("even", "odd"):
        for color, counts in ((RED, red), (BLUE, blue)):
            side_sums[(parity, color)] = math.fsum(
                math.sqrt(counts[x]) for x in range(n) if parity_ok(x, parity))
    side = max(side_sums, key=lambda k: (side_sums[k], k))
    counts = red if side[1] == RED else blue
    blocks: dict[tuple[int, int], int] = {}
    bucketed = 0
    for x in range(n):
        if not parity_ok(x, side[0]) or counts[x] < 1:
            continue
        t = 1 << (U[x].bit_length() - 1)
        s = 1 << (counts[x].bit_length() - 1)
        blocks[(t, s)] = blocks.get((t, s), 0) + 1
        bucketed += 1
    return BucketProfile(side=side, blocks=blocks, side_sums=side_sums,
                         bucketed_vertices=bucketed)
