"""Nonadaptive 1-sided monotonicity testers with exact query accounting.

The pair tester walks the pair-test distribution: sample a uniform
vertex x, pick the coordinates equal to b, and flip a uniformly random
tau-subset of them (degenerating to y = x when fewer than tau are
available).  It sweeps b in {0, 1} and tau over powers of two up to
roughly sqrt(d / log d), spending a budget-controlled number of draws
per setting, and rejects exactly when some drawn pair violates
monotonicity.  For tau = 1 the draw is a random edge, so the edge tester
is also provided directly.

Both testers are called as ``tester(oracle, seed, *, epsilon, ...)``: the
oracle and the run's seed, then the paper's parameters by keyword (r for
the pair tester, and a budget constant for both).  They read d from the
oracle's domain through `dimension`, the one hypercube guard, and a
``functools.partial`` over the parameters is what `measure_rejection`
runs.

The full query schedule is generated from the seed and the parameters
before any value is read, so the queried multiset never depends on the
function: two runs with equal seeds on different functions touch
identical points (the replay property).  Each schedule is drawn as
arrays from one `numpy.random.Generator` seeded with the run's seed
(`pair_draws`, `edge_draws`), kept as one integer array of (x, y) pairs
and read with a single counted rank lookup; the verdict and the
reported witness are derived afterwards, taking the first violating
pair in schedule order.  Draws with y = x cost one lookup; all others
cost two.

A pair draw takes x's b-coordinates as a bit mask and picks the tau
coordinates y flips one at a time, each uniform among those not yet
picked.  A pick costs one uniform 53-bit word and a binary search over
bit counts, so a draw costs O(tau) random words and O(tau log d) word
operations, where a random key per coordinate would cost d.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .funcs import CountingOracle, ValuedFunction, index_dtype
from .poset import PosetDomain
from .seeds import derive_seed, parallel_map

DEFAULT_BUDGET_CONSTANT = 4.0


@dataclass(frozen=True)
class TesterReport:
    verdict: str  # "accept" | "reject"
    queries: int
    witness: tuple[int, int, float, float] | None
    per_setting: dict = field(default_factory=dict)

    @property
    def rejected(self) -> bool:
        return self.verdict == "reject"


def tau_schedule(d: int) -> list[int]:
    """Walk lengths: powers of two up to sqrt(d / log2 d).  For d <= 2 the
    expression degenerates and the schedule is pinned to {1}, recovering
    the edge tester."""
    if d <= 2:
        return [1]
    limit = math.sqrt(d / math.log2(d))
    taus = [1]
    while taus[-1] * 2 <= limit:
        taus.append(taus[-1] * 2)
    return taus


def finite_count(count, message: str) -> int:
    """``count()`` rounded up, at least one: every sample size, checked
    before any draw.  ValueError(message) if it is not finite."""
    try:
        value = count()
    except ZeroDivisionError:  # a square is 0.0 below about 1e-162
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(message)
    return max(1, math.ceil(value))


def _draw_count(epsilon: float, budget_constant: float, count) -> int:
    """`finite_count` of ``count()`` once epsilon lies in (0,1) and the
    budget is positive: the testers' one parameter check."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0,1)")
    if not budget_constant > 0:  # nan included
        raise ValueError("budget_constant must be positive")
    return finite_count(count, f"epsilon {epsilon} and budget_constant {budget_constant} "
                               "give no finite draw count")


def repetitions(d: int, epsilon: float, r: int, budget_constant: float) -> int:
    """Draws per (b, tau) setting on the d-cube: budget * min(r sqrt(d)/eps^2,
    d/eps) times an explicit (log2 d + 1) factor."""
    if r < 1:
        raise ValueError("image size r must be >= 1")
    return _draw_count(epsilon, budget_constant, lambda: budget_constant * min(
        r * math.sqrt(d) / epsilon**2, d / epsilon) * (math.log2(d) + 1 if d > 1 else 1))


def pair_draws(rng: np.random.Generator, d: int, settings: list, reps: int) -> np.ndarray:
    """``reps`` draws from D_pair(b, tau) for each (b, tau) in ``settings``,
    as an array of shape (len(settings), reps, 2) holding (x, y) in the
    vertex dtype `index_dtype(2^d)`, for d up to 63.  Every tau must lie
    in 1..d; this is checked before anything is drawn.

    The stream holds x, uniform on the d-cube, as one (len(settings), reps)
    block, then one (T, len(settings), reps) block of uniform 53-bit words,
    T the largest tau.  Its layout depends on (d, settings, reps) alone.
    When x has fewer than tau b-coordinates, y = x.  Otherwise, round r < tau
    of a draw reads its word U from block row r, takes the m b-coordinates
    not yet picked, and picks the (j+1)-th highest of them, j = U*m >> 53:
    exact integer arithmetic, uniform on 0..m-1 to within 2^-53 per value.
    The tau picks are then a uniform tau-subset of x's b-coordinates, and
    y flips them.  Rounds r >= tau of a draw discard their pick.
    """
    for _, tau in settings:
        if not 1 <= tau <= d:
            raise ValueError(f"tau={tau} must lie in 1..d={d}")
    dtype = index_dtype(1 << d)
    x = rng.integers(0, 1 << d, size=(len(settings), reps), dtype=dtype)
    taus = np.array([tau for _, tau in settings], dtype=int)[:, None]
    words = rng.integers(0, 1 << 53, size=(taus.max(initial=0), len(settings), reps),
                         dtype=np.uint64)
    full = (1 << d) - 1
    coords = x ^ np.array([0 if b else full for b, _ in settings], dtype=dtype)[:, None]
    coords *= np.bitwise_count(coords) >= taus  # x's b-coordinates, none when too few
    free = coords.copy()
    steps = [dtype.type(1 << i) for i in reversed(range((d - 1).bit_length()))]
    for r, word in enumerate(words):
        j = (word * np.bitwise_count(free) >> 53).astype(np.uint8)
        pick = np.zeros_like(free)  # ends at the (j+1)-th highest free bit
        for step in steps:
            pick |= step * (np.bitwise_count(free >> (pick | step)) > j)
        free &= ~((dtype.type(1) << pick) * (taus > r))
    return np.stack([x, x ^ coords ^ free], axis=-1)


def edge_draws(rng: np.random.Generator, d: int, count: int) -> np.ndarray:
    """``count`` uniformly random directed edges (x, x + e_i) of the d-cube
    as an array of shape (count, 2) in the vertex dtype `index_dtype(2^d)`:
    the coordinates i are drawn first, then the points x."""
    dtype = index_dtype(1 << d)
    bit = dtype.type(1) << rng.integers(0, d, size=count, dtype=dtype)
    x = rng.integers(0, 1 << d, size=count, dtype=dtype) & ~bit
    return np.stack([x, x | bit], axis=-1)


def _evaluate_schedule(oracle: CountingOracle, settings: list,
                       pairs: np.ndarray) -> TesterReport:
    """Query every scheduled pair, then derive verdict and per-setting stats.

    ``pairs[s, j]`` is the j-th (x, y) draw of setting ``settings[s]``.
    The one array lookup issues x, then y only when y != x, pair by pair.
    """
    start = oracle.query_count
    issued = np.ones(pairs.shape, dtype=bool)
    issued[..., 1] = moved = pairs[..., 0] != pairs[..., 1]
    looked_up = oracle.lookup_ranks(pairs[issued])
    ranks = np.empty(pairs.shape, looked_up.dtype)
    ranks[issued] = looked_up
    ranks[..., 1][~moved] = ranks[..., 0][~moved]  # a y = x draw reads its x's rank twice
    witness = None
    per_setting = {}
    for s, (b, tau) in enumerate(settings):
        # b = 0: x is the lower end of the pair, b = 1: y is
        violating = np.flatnonzero(ranks[s, :, b] > ranks[s, :, 1 - b])
        per_setting[b, tau] = {"draws": pairs.shape[1], "violations": len(violating)}
        if witness is None and len(violating):
            x, y = pairs[s, violating[0]].tolist()
            witness = (x, y, oracle.fn.values[x], oracle.fn.values[y])
    return TesterReport(
        verdict="reject" if witness is not None else "accept",
        queries=oracle.query_count - start,
        witness=witness, per_setting=per_setting)


def dimension(domain: PosetDomain, what: str) -> int:
    """The dimension of a hypercube domain; ``what`` names the caller in the
    error raised for any other domain."""
    if domain.kind != "hypercube":
        raise ValueError(f"{what} needs a hypercube-domain function")
    return domain.d


def pair_tester(oracle: CountingOracle, seed: int, *, epsilon: float, r: int,
                budget_constant: float = DEFAULT_BUDGET_CONSTANT) -> TesterReport:
    """The pair tester.  Accepts every monotone function with certainty:
    each drawn pair is comparable in the direction checked, so a
    violation is a genuine witness of non-monotonicity."""
    d = dimension(oracle.domain, "pair_tester")
    settings = [(b, tau) for b in (0, 1) for tau in tau_schedule(d)]
    pairs = pair_draws(np.random.default_rng(seed), d, settings,
                       repetitions(d, epsilon, r, budget_constant))
    return _evaluate_schedule(oracle, settings, pairs)


def edge_tester(oracle: CountingOracle, seed: int, *, epsilon: float,
                budget_constant: float = DEFAULT_BUDGET_CONSTANT) -> TesterReport:
    """Uniformly random directed edges; rejects on a violated edge.  The
    per-draw rejection probability is exactly |S_f^-| / (d 2^(d-1))."""
    d = dimension(oracle.domain, "edge_tester")
    reps = _draw_count(epsilon, budget_constant, lambda: budget_constant * d / epsilon)
    edges = edge_draws(np.random.default_rng(seed), d, reps)
    return _evaluate_schedule(oracle, [(0, 1)], edges[None])


@dataclass(frozen=True)
class RejectionMeasurement:
    trials: int
    rejections: int
    rate: float
    wilson_low: float
    wilson_high: float
    mean_queries: float
    per_setting: dict  # (b, tau) -> draws and violations summed over the trials


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """The 95% Wilson score interval of a binomial rate, (0, 1) for no trials."""
    z = 1.959964
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def measure_rejection(f: ValuedFunction, run, trials: int, seed: int,
                      jobs: int = 1) -> RejectionMeasurement:
    """Run a tester `trials` times with independently derived seeds.

    ``run(oracle, seed) -> TesterReport``, such as
    ``partial(pair_tester, epsilon=..., r=...)``, must be a pure function of its
    arguments; with jobs > 1 it must also be picklable.  Results are
    identical for any job count since trial seeds are derived from the
    master seed and the trial index alone.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    seeds = [derive_seed(seed, t) for t in range(trials)]
    reports = parallel_map(functools.partial(_one_trial, f, run), seeds, jobs)
    rejections = sum(r.rejected for r in reports)
    low, high = wilson_interval(rejections, trials)
    per_setting = {}
    for report in reports:
        for setting, stats in report.per_setting.items():
            total = per_setting.setdefault(setting, {"draws": 0, "violations": 0})
            total["draws"] += stats["draws"]
            total["violations"] += stats["violations"]
    return RejectionMeasurement(
        trials=trials, rejections=rejections, rate=rejections / trials,
        wilson_low=low, wilson_high=high,
        mean_queries=math.fsum(r.queries for r in reports) / trials,
        per_setting=per_setting)


def _one_trial(f: ValuedFunction, run, trial_seed: int) -> TesterReport:
    return run(CountingOracle(f), trial_seed)

