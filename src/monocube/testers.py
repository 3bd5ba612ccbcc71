"""Nonadaptive 1-sided monotonicity testers with exact query accounting.

The pair tester walks the pair-test distribution: sample a uniform
vertex x, pick the coordinates equal to b, and flip a uniformly random
tau-subset of them (degenerating to y = x when fewer than tau are
available).  It sweeps b in {0, 1} and tau over powers of two up to
roughly sqrt(d / log d), spending a budget-controlled number of draws
per setting, and rejects exactly when some drawn pair violates
monotonicity.  For tau = 1 the draw is a random edge, so the edge tester
is also provided directly.

The full query schedule is generated from the seed and the configuration
before any value is read, so the queried multiset never depends on the
function: two runs with equal seeds on different functions touch
identical points (the replay property).  The schedule is kept as one
integer array of (x, y) pairs and read with a single counted rank
lookup; the verdict and the reported witness are derived afterwards,
taking the first violating pair in schedule order.  Draws with y = x
cost one lookup; all others cost two.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .funcs import CountingOracle, ValuedFunction, index_dtype
from .seeds import derive_seed, parallel_map

DEFAULT_BUDGET_CONSTANT = 4.0


@dataclass(frozen=True)
class TesterConfig:
    epsilon: float
    d: int
    r: int
    budget_constant: float = DEFAULT_BUDGET_CONSTANT
    seed: int = 0

    __test__ = False  # keep pytest from collecting this as a test class

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0,1)")
        if self.r < 1:
            raise ValueError("image size r must be >= 1")
        if self.budget_constant <= 0:
            raise ValueError("budget_constant must be positive")


@dataclass(frozen=True)
class TesterReport:
    verdict: str  # "accept" | "reject"
    queries: int
    witness: tuple[int, int, float, float] | None
    per_setting: dict = field(default_factory=dict)
    seed: int = 0

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


def repetitions(config: TesterConfig) -> int:
    """Draws per (b, tau) setting: budget * min(r sqrt(d)/eps^2, d/eps)
    times an explicit (log2 d + 1) factor."""
    d, r, eps = config.d, config.r, config.epsilon
    base = min(r * math.sqrt(d) / eps**2, d / eps)
    return max(1, math.ceil(config.budget_constant * base * (math.log2(d) + 1 if d > 1 else 1)))


@functools.cache
def _bit_positions(nbytes: int) -> tuple:
    """For each byte k < nbytes and byte value v, the positions 8k + i of
    v's set bits, in increasing order."""
    return tuple(tuple(tuple(8 * k + i for i in range(8) if v >> i & 1)
                       for v in range(256))
                 for k in range(nbytes))


def sample_pair(b: int, tau: int, d: int, rng: random.Random) -> tuple[int, int]:
    """One draw from the pair-test distribution D_pair(b, tau)."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    x = rng.getrandbits(d)
    equal = x if b else ~x & ((1 << d) - 1)  # the coordinates where x has bit b
    S = []
    for table in _bit_positions((d + 7) // 8):
        S += table[equal & 255]
        equal >>= 8
    if tau > len(S):
        return x, x
    y = x
    for i in rng.sample(S, tau):
        y ^= 1 << i
    return x, y


def edge_draws(rng: random.Random, d: int, count: int):
    """``count`` uniformly random directed edges (x, x + e_i) of the
    d-cube, each drawn as the coordinate i, then the point x."""
    for _ in range(count):
        i = rng.randrange(d)
        x = rng.getrandbits(d) & ~(1 << i)
        yield x, x | 1 << i


def _evaluate_schedule(oracle: CountingOracle, settings: list, reps: int, draws,
                       seed: int) -> TesterReport:
    """Query every scheduled pair, then derive verdict and per-setting stats.

    ``draws`` yields the (x, y) pairs: ``reps`` for each (b, tau) in
    ``settings``, in that order.  All of them are drawn before the one
    array lookup, which issues x, then y only when y != x, pair by pair.
    """
    pairs = np.fromiter(chain.from_iterable(draws), dtype=index_dtype(oracle.domain.n),
                        count=2 * reps * len(settings)).reshape(len(settings), reps, 2)
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
        per_setting[b, tau] = {"draws": reps, "violations": len(violating)}
        if witness is None and len(violating):
            x, y = pairs[s, violating[0]].tolist()
            witness = (x, y, oracle.fn.values[x], oracle.fn.values[y])
    return TesterReport(
        verdict="reject" if witness is not None else "accept",
        queries=oracle.query_count - start,
        witness=witness, per_setting=per_setting, seed=seed)


def pair_tester(oracle: CountingOracle, config: TesterConfig) -> TesterReport:
    """The pair tester.  Accepts every monotone function with certainty:
    each drawn pair is comparable in the direction checked, so a
    violation is a genuine witness of non-monotonicity."""
    if oracle.domain.d != config.d:
        raise ValueError(f"config.d={config.d} but the oracle's domain is "
                         f"{oracle.domain!r}")
    rng = random.Random(config.seed)
    reps = repetitions(config)
    settings = [(b, tau) for b in (0, 1) for tau in tau_schedule(config.d)]
    draws = (sample_pair(b, tau, config.d, rng)
             for (b, tau) in settings for _ in range(reps))
    return _evaluate_schedule(oracle, settings, reps, draws, config.seed)


def edge_tester(oracle: CountingOracle, epsilon: float, d: int,
                budget_constant: float = DEFAULT_BUDGET_CONSTANT,
                seed: int = 0) -> TesterReport:
    """Uniformly random directed edges; rejects on a violated edge.  The
    per-draw rejection probability is exactly |S_f^-| / (d 2^(d-1))."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0,1)")
    if oracle.domain.d != d:
        raise ValueError(f"d={d} but the oracle's domain is {oracle.domain!r}")
    rng = random.Random(seed)
    reps = max(1, math.ceil(budget_constant * d / epsilon))
    return _evaluate_schedule(oracle, [(0, 1)], reps, edge_draws(rng, d, reps), seed)


@dataclass(frozen=True)
class RejectionMeasurement:
    trials: int
    rejections: int
    rate: float
    wilson_low: float
    wilson_high: float
    mean_queries: float


def wilson_interval(successes: int, trials: int, z: float = 1.959964) -> tuple[float, float]:
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

    ``run(oracle, seed) -> TesterReport`` must be a pure function of its
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
    return RejectionMeasurement(
        trials=trials, rejections=rejections, rate=rejections / trials,
        wilson_low=low, wilson_high=high,
        mean_queries=math.fsum(r.queries for r in reports) / trials)


def _one_trial(f: ValuedFunction, run, trial_seed: int) -> TesterReport:
    return run(CountingOracle(f), trial_seed)


def run_pair_tester(oracle: CountingOracle, seed: int, *, epsilon: float,
                    d: int, r: int,
                    budget_constant: float = DEFAULT_BUDGET_CONSTANT) -> TesterReport:
    """Picklable adapter for measure_rejection / CLI."""
    return pair_tester(oracle, TesterConfig(epsilon=epsilon, d=d, r=r,
                                            budget_constant=budget_constant,
                                            seed=seed))
