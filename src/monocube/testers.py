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
oracle's domain through `dimension`, the one hypercube guard.  Each is
the one-trial case of its `Schedule` (`pair_schedule`, `edge_schedule`),
which holds a trial's settings and draw count and owns the one draw
path and the one evaluation path.

The full query schedule is generated from the seed and the parameters
before any value is read, so the queried multiset never depends on the
function: two runs with equal seeds on different functions touch
identical points (the replay property).  Each trial's draws come from
one `numpy.random.Generator` seeded with its seed (the streams of
`pair_draws` and `edge_draws`).  `run_trials`, the chunked trial
function, stacks the draws of several trials into one integer array of
(x, y) pairs, runs the pair picks once over the stack, and reads it with
a single counted rank lookup; each trial's verdict and reported witness
are derived afterwards, taking its first violating pair in schedule
order.  Draws with y = x cost one lookup; all others cost two.
`measure_rejection` runs its trials as such chunks, each at most
`poset.row_chunks`' budget in bytes (`Schedule.trial_bytes` per trial).
A trial's report depends on its seed alone, never on its chunk.

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
from .poset import PosetDomain, row_chunks
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


def _pair_stream(rng: np.random.Generator, d: int, settings, reps: int):
    """One `pair_draws` stream: x, then the 53-bit words.  Every tau must
    lie in 1..d; this is checked before anything is drawn."""
    for _, tau in settings:
        if not 1 <= tau <= d:
            raise ValueError(f"tau={tau} must lie in 1..d={d}")
    x = rng.integers(0, 1 << d, size=(len(settings), reps), dtype=index_dtype(1 << d))
    top = max((tau for _, tau in settings), default=0)
    return x, rng.integers(0, 1 << 53, size=(top, len(settings), reps), dtype=np.uint64)


def _pick(d: int, settings, x: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The (x, y) pairs of `pair_draws` from the streams ``x``, of shape
    (..., len(settings), reps), and ``words``, of shape (T, *x.shape): one
    pass of the picks over a whole stack of trials.  Round r reads, and
    overwrites, only the words of the settings with tau > r."""
    dtype = x.dtype
    taus = np.array([tau for _, tau in settings], dtype=int)
    full = (1 << d) - 1
    coords = x ^ np.array([0 if b else full for b, _ in settings], dtype=dtype)[:, None]
    coords *= np.bitwise_count(coords) >= taus[:, None]  # x's b-coordinates, none when too few
    free = coords.copy()
    steps = [dtype.type(1 << i) for i in reversed(range((d - 1).bit_length()))]
    for r, word in enumerate(words):
        rows = slice(None) if taus.min() > r else np.flatnonzero(taus > r)
        left, word = free[..., rows, :], word[..., rows, :]
        word *= np.bitwise_count(left)
        word >>= 53
        j = word.astype(np.uint8)
        pick = np.zeros_like(left)  # ends at the (j+1)-th highest free bit
        for step in steps:
            pick |= step * (np.bitwise_count(left >> (pick | step)) > j)
        free[..., rows, :] = left & ~(dtype.type(1) << pick)
    return np.stack([x, x ^ coords ^ free], axis=-1)


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
    y flips them.  A draw reads no word of block rows r >= tau.
    """
    return _pick(d, settings, *_pair_stream(rng, d, settings, reps))


def edge_draws(rng: np.random.Generator, d: int, count: int) -> np.ndarray:
    """``count`` uniformly random directed edges (x, x + e_i) of the d-cube
    as an array of shape (count, 2) in the vertex dtype `index_dtype(2^d)`:
    the coordinates i are drawn first, then the points x."""
    dtype = index_dtype(1 << d)
    bit = dtype.type(1) << rng.integers(0, d, size=count, dtype=dtype)
    x = rng.integers(0, 1 << d, size=count, dtype=dtype) & ~bit
    return np.stack([x, x | bit], axis=-1)


@dataclass(frozen=True)
class Schedule:
    """A tester's draws in one trial on the d-cube: ``reps`` draws of each
    (b, tau) in ``settings``, from D_pair(b, tau) (`pair_draws`), or
    uniform directed edges (`edge_draws`) when ``edges``."""
    d: int
    settings: tuple
    reps: int
    edges: bool = False

    @property
    def tau_max(self) -> int:
        """T, the 53-bit words a draw has in its stream: the largest tau
        (none for edges)."""
        return 0 if self.edges else max(tau for _, tau in self.settings)

    @property
    def trial_bytes(self) -> int:
        """The most one trial's draws hold at once in `draw`, which holds
        more than `evaluate`: per draw, T 8-byte words, seven arrays of the
        vertex dtype (x, its b-coordinates, the free ones, a pick and the
        temporaries of a step) and five of one byte (counts and masks)."""
        return len(self.settings) * self.reps * (
            8 * self.tau_max + 7 * index_dtype(1 << self.d).itemsize + 5)

    def draw(self, seeds) -> np.ndarray:
        """One trial's draws for each seed, each from its own
        ``default_rng(seed)``, stacked: shape (len(seeds), len(settings),
        reps, 2).  The pair picks run once over the whole stack."""
        rngs = map(np.random.default_rng, seeds)
        if self.edges:
            return np.stack([edge_draws(rng, self.d, self.reps) for rng in rngs])[:, None]
        x = np.empty((len(seeds), len(self.settings), self.reps), index_dtype(1 << self.d))
        words = np.empty((self.tau_max, *x.shape), np.uint64)
        for t, rng in enumerate(rngs):
            x[t], words[:, t] = _pair_stream(rng, self.d, self.settings, self.reps)
        return _pick(self.d, self.settings, x, words)

    def evaluate(self, oracle: CountingOracle, pairs: np.ndarray) -> list[TesterReport]:
        """Query every pair of a `draw` stack, then derive each trial's report.

        ``pairs[t, s, j]`` is the j-th (x, y) draw of setting ``settings[s]``
        in trial t.  The one counted lookup issues x, then y only when
        y != x, pair by pair and trial by trial; a trial's witness is its
        first violating pair in schedule order.
        """
        issued = np.ones(pairs.shape, dtype=bool)
        issued[..., 1] = moved = pairs[..., 0] != pairs[..., 1]
        looked_up = oracle.lookup_ranks(pairs[issued])
        ranks = np.zeros(pairs.shape, looked_up.dtype)
        ranks[issued] = looked_up
        x_rank, y_rank = np.moveaxis(ranks, -1, 0).copy()  # y = x: y unread, masked below
        violated = np.empty(moved.shape, dtype=bool)
        for s, (b, _) in enumerate(self.settings):
            # b = 0: x is the lower end of the pair, b = 1: y is
            lower, upper = (y_rank, x_rank) if b else (x_rank, y_rank)
            np.greater(lower[:, s], upper[:, s], out=violated[:, s])
        violated &= moved
        counts = violated.sum(axis=2).tolist()
        queries = (moved.sum(axis=(1, 2)) + len(self.settings) * self.reps).tolist()
        firsts = violated.reshape(len(pairs), -1).argmax(axis=1).tolist()
        reports = []
        for t, first in enumerate(firsts):
            s, j = divmod(first, self.reps)
            witness = None
            if violated[t, s, j]:
                x, y = pairs[t, s, j].tolist()
                witness = (x, y, oracle.fn.values[x], oracle.fn.values[y])
            reports.append(TesterReport(
                verdict="reject" if witness is not None else "accept",
                queries=queries[t], witness=witness,
                per_setting={setting: {"draws": self.reps, "violations": count}
                             for setting, count in zip(self.settings, counts[t])}))
        return reports


def run_trials(oracle: CountingOracle, schedule: Schedule, seeds) -> list[TesterReport]:
    """One trial of ``schedule`` per seed, drawn as one stack and read with
    one counted lookup: the chunked trial function."""
    return schedule.evaluate(oracle, schedule.draw(seeds))


def dimension(domain: PosetDomain, what: str) -> int:
    """The dimension of a hypercube domain; ``what`` names the caller in the
    error raised for any other domain."""
    if domain.kind != "hypercube":
        raise ValueError(f"{what} needs a hypercube-domain function")
    return domain.d


def pair_schedule(d: int, *, epsilon: float, r: int,
                  budget_constant: float = DEFAULT_BUDGET_CONSTANT) -> Schedule:
    """The pair tester's trial on the d-cube: b in {0, 1} and tau in
    `tau_schedule`, `repetitions` draws each."""
    return Schedule(d, tuple((b, tau) for b in (0, 1) for tau in tau_schedule(d)),
                    repetitions(d, epsilon, r, budget_constant))


def edge_schedule(d: int, *, epsilon: float,
                  budget_constant: float = DEFAULT_BUDGET_CONSTANT) -> Schedule:
    """The edge tester's trial on the d-cube: budget * d / epsilon edges."""
    return Schedule(d, ((0, 1),), _draw_count(epsilon, budget_constant,
                                              lambda: budget_constant * d / epsilon),
                    edges=True)


def pair_tester(oracle: CountingOracle, seed: int, *, epsilon: float, r: int,
                budget_constant: float = DEFAULT_BUDGET_CONSTANT) -> TesterReport:
    """The pair tester.  Accepts every monotone function with certainty:
    each drawn pair is comparable in the direction checked, so a
    violation is a genuine witness of non-monotonicity."""
    schedule = pair_schedule(dimension(oracle.domain, "pair_tester"), epsilon=epsilon, r=r,
                             budget_constant=budget_constant)
    return run_trials(oracle, schedule, [seed])[0]


def edge_tester(oracle: CountingOracle, seed: int, *, epsilon: float,
                budget_constant: float = DEFAULT_BUDGET_CONSTANT) -> TesterReport:
    """Uniformly random directed edges; rejects on a violated edge.  The
    per-draw rejection probability is exactly |S_f^-| / (d 2^(d-1))."""
    schedule = edge_schedule(dimension(oracle.domain, "edge_tester"), epsilon=epsilon,
                             budget_constant=budget_constant)
    return run_trials(oracle, schedule, [seed])[0]


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

    ``run(d) -> Schedule``, such as ``partial(pair_schedule, epsilon=...,
    r=...)``, gives the tester's trial on f's d-cube.  Trial t draws from
    ``derive_seed(seed, t)`` exactly as the one-trial tester would, and
    the trials run as chunks of stacked schedules (`run_trials`), each
    chunk one pick pass and one counted lookup.  A chunk holds at most
    `poset.row_chunks`' budget in bytes, a trial being
    `Schedule.trial_bytes` wide: 11 trials at d = 16 and epsilon = 0.5.
    ``jobs`` workers run whole chunks.  Results are identical for any job
    count and any chunking, since each trial depends on its seed alone.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    schedule = run(dimension(f.domain, "measure_rejection"))
    seeds = [derive_seed(seed, t) for t in range(trials)]
    chunks = [seeds[rows] for rows in row_chunks(trials, schedule.trial_bytes)]
    reports = [report for chunk in parallel_map(functools.partial(_run_chunk, f, schedule),
                                                chunks, jobs) for report in chunk]
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


def _run_chunk(f: ValuedFunction, schedule: Schedule, seeds: list) -> list[TesterReport]:
    return run_trials(CountingOracle(f), schedule, seeds)
