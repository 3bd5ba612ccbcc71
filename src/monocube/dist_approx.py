"""Tolerant testing and distance approximation for monotonicity.

The capture event at a vertex x with coordinate set S: some i in S flips
x across a violated edge to y = x^(i), and y has no other violated edge
along the remaining coordinates of S (either orientation).  Its
probability over a uniform vertex, mu(S), lower-bounds twice the
distance to monotonicity, and for functions with few violated edges some
dyadic coordinate-sampling rate makes it large; ApproxMono turns these
two facts into a close/far verdict.  It is called like the testers, as
``approx_mono(oracle, seed, *, epsilon, c_prime=1.0)``, and reads d
from the oracle's domain through the testers' hypercube guard.

Estimates are two-sided Hoeffding: n = ceil(ln(2/delta) / (2 err^2))
samples give additive error err with failure probability delta, and the
run's failure budget, `FAILURE_BUDGET` = 1/3, is split evenly across the
edge estimate and the per-rate mu estimates.  The only tunable constant
is c' (``c_prime``), which scales the mu estimates' error and threshold;
the edge estimate's constant is 1.  Every estimator issues its full
query pattern regardless of observed values, so runs with equal seeds
and parameters query identical multisets on any two functions.

One array evaluator, `_capture_hits`, decides the capture event for a
block of vertices at once; `capture`, `mu_exact` and `mu_estimate` all
go through it.  One block sampler, `_estimate`, runs both estimates: it
draws the samples as arrays of `BLOCK` from the estimate's own
`numpy.random.Generator`, seeded by `derive_seed`, and reads each block
with one counted rank lookup, so the query log lists each sample's
pattern in draw order.  `approx_mono` draws each coordinate set S from
such a stream too.

The log factor inside sqrt(d log d) is base 2 and clamped below at 1 so
the d = 1 corner stays defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .funcs import CountingOracle, ValuedFunction, index_dtype
from .seeds import derive_seed
from .poset import PosetDomain
from .testers import dimension, edge_draws, finite_count


# The run's failure probability, split evenly across its estimates.
FAILURE_BUDGET = 1.0 / 3.0


# Vertices evaluated per array step.  A step's temporaries have BLOCK rows,
# each the query pattern (1 + |S| + |S|(|S|-1)/2 vertices) or the
# |S|(|S|-1) edge tests around it.
BLOCK = 2048


def _coordinates(domain: PosetDomain, S) -> list[int]:
    """S as a sorted list of distinct hypercube coordinates, validated."""
    d = dimension(domain, "capture")
    S = sorted(set(S))
    for i in S:
        if not 1 <= i <= d:
            raise ValueError(f"coordinate {i} out of range 1..{d}")
    return S


def capture(f: ValuedFunction, x: int, S) -> bool:
    """The capture event for vertex x and coordinate set S (1-based)."""
    S = _coordinates(f.domain, S)
    xs = np.array([x], dtype=index_dtype(f.n))
    return _capture_hits(xs, S, f.ranks.__getitem__) == 1


def mu_exact(f: ValuedFunction, S) -> Fraction:
    """Exact capture probability over a uniform vertex (full sweep)."""
    S = _coordinates(f.domain, S)
    n = f.domain.n
    vertices = np.arange(n, dtype=index_dtype(n))
    hits = sum(_capture_hits(vertices[lo:lo + BLOCK], S, f.ranks.__getitem__)
               for lo in range(0, n, BLOCK))
    return Fraction(hits, n)


def _capture_hits(xs: np.ndarray, S: list[int], lookup) -> int:
    """How many vertices of ``xs`` have the capture event for the sorted
    coordinate list S.

    ``lookup`` maps a vertex array to ranks.  It is called once, on the
    query pattern ``xs[:, None] ^ offsets``: row r is x = xs[r], its
    S-neighbours, then the distinct two-flip points in pair order.
    """
    k = len(S)
    bits = [1 << (i - 1) for i in S]
    pairs = list(combinations(range(k), 2))
    offsets = np.array([0, *bits, *(bits[a] | bits[b] for a, b in pairs)], dtype=xs.dtype)
    column = {}  # (a, b) -> pattern column of x^(a)^(b)
    for c, (a, b) in enumerate(pairs, start=k + 1):
        column[a, b] = column[b, a] = c
    # each (a, b) with b != a, grouped by a: the edge from y = x^(a) along S[b]
    ordered = [(a, b) for a in range(k) for b in range(k) if b != a]
    ranks = lookup(xs[:, None] ^ offsets)
    up = (xs[:, None] & offsets[1:k + 1]) != 0  # x is the upper end of its edge along S[a]
    flipped = _violated(ranks[:, :1], ranks[:, 1:k + 1], up)
    # y = x^(a) has x's bits along the other coordinates, so its edges there
    # have the same orientation as x's
    spoiled = _violated(ranks[:, [1 + a for a, _ in ordered]],
                        ranks[:, [column[pair] for pair in ordered]],
                        up[:, [b for _, b in ordered]])
    spoiled = spoiled.reshape(len(xs), k, max(k - 1, 0)).any(axis=2)
    return int(np.count_nonzero((flipped & ~spoiled).any(axis=1)))


def _violated(fu: np.ndarray, fv: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Whether the edge between u and its neighbour v is violated, from their
    ranks and whether u is the edge's upper end."""
    return ((fu > fv) & ~up) | ((fv > fu) & up)


def hoeffding_samples(additive_error: float, failure_prob: float) -> int:
    """Two-sided Hoeffding sample count for a [0,1] mean estimate."""
    if not 0 < additive_error < 1 or not 0 < failure_prob < 1:
        raise ValueError("additive_error and failure_prob must lie in (0,1)")
    return finite_count(lambda: math.log(2.0 / failure_prob) / (2.0 * additive_error**2),
                        f"additive error {additive_error} and failure probability "
                        f"{failure_prob} give no finite sample count")


@dataclass(frozen=True)
class Estimate:
    value: float
    samples: int
    additive_error: float
    failure_prob: float


def _estimate(additive_error: float, failure_prob: float, seed: int, hits) -> Estimate:
    """The Hoeffding mean of a [0,1] event: ``hits(rng, count)`` draws
    ``count`` samples from the run's generator and returns how many have
    the event, called once per block of `BLOCK` samples."""
    samples = hoeffding_samples(additive_error, failure_prob)
    rng = np.random.default_rng(seed)
    total = sum(hits(rng, min(BLOCK, samples - lo)) for lo in range(0, samples, BLOCK))
    return Estimate(total / samples, samples, additive_error, failure_prob)


def mu_estimate(oracle: CountingOracle, S, additive_error: float,
                failure_prob: float, seed: int) -> Estimate:
    """Monte Carlo capture probability via oracle queries only."""
    S = _coordinates(oracle.domain, S)
    n = oracle.domain.n

    def hits(rng, count):
        xs = rng.integers(0, n, size=count, dtype=index_dtype(n))
        return _capture_hits(xs, S, oracle.lookup_ranks)
    return _estimate(additive_error, failure_prob, seed, hits)


def violated_fraction_estimate(oracle: CountingOracle, additive_error: float,
                               failure_prob: float, seed: int) -> Estimate:
    """Monte Carlo estimate of |S_f^-| / (d 2^(d-1)) by uniform edges."""
    d = dimension(oracle.domain, "violated_fraction_estimate")

    def hits(rng, count):
        ranks = oracle.lookup_ranks(edge_draws(rng, d, count))
        return int(np.count_nonzero(ranks[:, 0] > ranks[:, 1]))
    return _estimate(additive_error, failure_prob, seed, hits)


def sqrt_d_log_d(d: int) -> float:
    """sqrt(d * log2 d), clamped so d = 1 gives 1 instead of 0."""
    return math.sqrt(d * max(math.log2(d), 1.0))


def rate_schedule(d: int) -> list[int]:
    """Coordinate-sampling rates 1, 2, 4, ..., 2^floor(log2 d)."""
    rates = [1]
    while rates[-1] * 2 <= d:
        rates.append(rates[-1] * 2)
    return rates


@dataclass(frozen=True)
class ApproxMonoReport:
    verdict: str  # "close" | "far"
    queries: int
    edge_estimate: Estimate
    edge_threshold: float
    mu_estimates: tuple = ()
    mu_threshold: float = 0.0
    triggered_by: str = ""


def approx_mono(oracle: CountingOracle, seed: int, *, epsilon: float,
                c_prime: float = 1.0) -> ApproxMonoReport:
    """The tolerant tester: far when the violated-edge fraction estimate
    or any capture-probability estimate crosses its threshold.

    The edge estimate targets additive error eps/(4 sqrt(d log d)) with
    threshold at three times that; each mu estimate scales both by
    c_prime.  All sampling happens in a fixed order first, so the
    queried multiset depends only on (seed, epsilon, c_prime, d); the
    verdict is then read off in algorithm order (edge test, then
    increasing rates).
    """
    # 1/2 itself is admitted: the distance-approximation wrapper's top
    # search level runs the tolerant tester at epsilon = 1/2.
    if not 0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 1/2]")
    if not 0 < c_prime < math.inf:  # nan included
        raise ValueError("c_prime must be positive and finite")
    d = dimension(oracle.domain, "approx_mono")
    start = oracle.query_count
    L = sqrt_d_log_d(d)
    rates = rate_schedule(d)
    delta_each = FAILURE_BUDGET / (1 + len(rates))

    edge_err = epsilon / (4.0 * L)
    edge_thr = 3.0 * epsilon / (4.0 * L)
    mu_err = c_prime * epsilon / (4.0 * L)
    mu_thr = 3.0 * c_prime * epsilon / (4.0 * L)
    try:  # before any query: an error of 1 or more, or one too small to size
        hoeffding_samples(mu_err, delta_each)
    except ValueError as exc:
        raise ValueError(f"c_prime {c_prime} leaves the mu estimates no sample count "
                         f"({exc})") from exc

    edge_est = violated_fraction_estimate(oracle, edge_err, delta_each, derive_seed(seed, 0))

    mu_estimates = []
    for idx, t in enumerate(rates, start=1):
        keep = np.random.default_rng(derive_seed(seed, idx, 0)).random(d) < 1.0 / t
        S = tuple((np.flatnonzero(keep) + 1).tolist())
        mu_estimates.append(
            (t, S, mu_estimate(oracle, S, mu_err, delta_each, derive_seed(seed, idx, 1))))

    if edge_est.value >= edge_thr:
        triggered = "edge-fraction"
    else:
        triggered = next((f"mu at t={t}" for t, _, est in mu_estimates
                          if est.value >= mu_thr), "")
    return ApproxMonoReport(
        verdict="far" if triggered else "close", queries=oracle.query_count - start,
        edge_estimate=edge_est, edge_threshold=edge_thr,
        mu_estimates=tuple(mu_estimates), mu_threshold=mu_thr, triggered_by=triggered)


@dataclass(frozen=True)
class LevelResult:
    epsilon: float
    far_votes: int
    verdict: str
    reports: tuple  # the three ApproxMonoReports behind the vote


@dataclass(frozen=True)
class DistanceApproxReport:
    epsilon_hat: float
    promise_violation: bool
    queries: int
    levels: tuple[LevelResult, ...]


def approx_distance(oracle: CountingOracle, alpha: float, c_prime: float = 1.0,
                    seed: int = 0) -> DistanceApproxReport:
    """Geometric search over epsilon in {1/2, 1/4, ...} down to alpha,
    with a majority of three tolerant-tester calls per level; returns the
    first level declared far.

    The caller promises distance >= alpha; if no level fires, the promise
    was violated (e.g. a monotone input) and alpha is returned flagged.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0,1)")
    start = oracle.query_count
    # 1/2, the tolerant tester's ceiling, is searched even when alpha is above it
    levels = [0.5]
    while levels[-1] / 2 >= alpha:
        levels.append(levels[-1] / 2)
    results = []
    chosen = None
    for li, eps in enumerate(levels):
        votes = 0
        reports = []
        for rep in range(3):
            report = approx_mono(oracle, derive_seed(seed, li, rep),
                                 epsilon=eps, c_prime=c_prime)
            reports.append(report)
            votes += report.verdict == "far"
        verdict = "far" if votes >= 2 else "close"
        results.append(LevelResult(eps, votes, verdict, tuple(reports)))
        if verdict == "far":
            chosen = eps
            break
    return DistanceApproxReport(
        epsilon_hat=chosen if chosen is not None else alpha,
        promise_violation=chosen is None,
        queries=oracle.query_count - start,
        levels=tuple(results))
