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

A pair draw gives every coordinate a random key, below 1 exactly on x's
b-coordinates, and flips the tau coordinates with the smallest keys,
found by tau rounds of a row-wise argmin.  The tau-th smallest key also
decides the degenerate case: when it is not below 1, x has fewer than
tau b-coordinates and y = x.
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
    vertex dtype `index_dtype(2^d)`.  Every tau must lie in 1..d; this is
    checked before anything is drawn.

    x is uniform on the d-cube.  Each coordinate gets a uniform key in
    [0, 1), and the coordinates where x does not have bit b get 1 added,
    which puts them after every b-coordinate.  tau rounds of a row-wise
    argmin, each retiring its pick to +inf, take the tau smallest keys;
    when the last of them is below 1 they are a uniform tau-subset of x's
    b-coordinates, which y flips.  Otherwise x has fewer than tau
    b-coordinates and y = x.  Two b-coordinates tie only on equal 53-bit
    keys; argmin then takes the lower coordinate.
    """
    for _, tau in settings:
        if not 1 <= tau <= d:
            raise ValueError(f"tau={tau} must lie in 1..d={d}")
    dtype = index_dtype(1 << d)
    x = rng.integers(0, 1 << d, size=(len(settings), reps), dtype=dtype)
    keys = rng.random((len(settings), reps, d))
    one = dtype.type(1)
    b_col = np.array([b for b, _ in settings], dtype=bool)[:, None, None]
    bits = one << np.arange(d, dtype=dtype)
    keys += ((x[..., None] & bits) != 0) ^ b_col  # +1 where x's bit is not b
    pairs = np.stack([x, x], axis=-1)
    row_start = np.arange(0, reps * d, d)  # each draw's first key in a flat setting
    for s, (_, tau) in enumerate(settings):
        flat = keys[s].reshape(-1)
        flip = np.zeros(reps, dtype=dtype)
        for _ in range(tau):
            coord = keys[s].argmin(axis=1)
            picked = row_start + coord
            last = flat[picked]
            flat[picked] = np.inf
            flip |= one << coord.astype(dtype)
        flip[last >= 1] = 0
        pairs[s, :, 1] ^= flip
    return pairs


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
    issued[..., 1] = pairs[..., 0] != pairs[..., 1]
    # a y = x draw reads the rank of its x twice: its one lookup is repeated
    ranks = oracle.lookup_ranks(pairs[issued])[np.cumsum(issued) - 1].reshape(pairs.shape)
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

