import math
import random
import re
from collections import Counter
from functools import partial
from itertools import combinations

import numpy as np
import pytest

from conftest import RecordingOracle
from monocube import poset, testers
from monocube.funcs import (CountingOracle, ValuedFunction, anti_dictator,
                            random_function, random_monotone)
from monocube.poset import hypercube
from monocube.seeds import derive_seed
from monocube.testers import (edge_draws, edge_schedule, edge_tester, measure_rejection,
                              pair_draws, pair_schedule, pair_tester, repetitions,
                              run_trials, tau_schedule, wilson_interval)


def test_tau_schedule():
    assert tau_schedule(1) == [1]
    assert tau_schedule(2) == [1]
    assert tau_schedule(4) == [1]
    assert tau_schedule(16) == [1, 2]
    assert tau_schedule(64) == [1, 2]
    assert tau_schedule(256) == [1, 2, 4]


def test_repetitions_scale():
    base = repetitions(16, 0.5, 2, 4)
    assert base == math.ceil(4 * min(2 * 4 / 0.25, 32) * 5)
    doubled = repetitions(16, 0.5, 2, 8)
    assert doubled == 2 * base


def test_config_validation():
    oracle = CountingOracle(anti_dictator(3))
    with pytest.raises(ValueError, match=r"^epsilon must lie in \(0,1\)$"):
        pair_tester(oracle, 0, epsilon=0.0, r=2)
    with pytest.raises(ValueError, match="^image size r must be >= 1$"):
        pair_tester(oracle, 0, epsilon=0.5, r=0)
    with pytest.raises(ValueError, match="^budget_constant must be positive$"):
        pair_tester(oracle, 0, epsilon=0.5, r=2, budget_constant=0)
    # epsilon**2 underflows to 0.0: refused like any count that is not finite
    with pytest.raises(ValueError, match=r"^epsilon 1e-200 and budget_constant 4\.0 give no "):
        pair_tester(oracle, 0, epsilon=1e-200, r=2)
    assert oracle.query_count == 0


@pytest.mark.parametrize("budget", [0, -3.0, math.nan, math.inf, 1e308])
@pytest.mark.parametrize("tester", [partial(pair_tester, r=2), edge_tester],
                         ids=["pair_tester", "edge_tester"])
def test_budget_constant_must_be_positive(tester, budget):
    # an infinite budget, or a finite one whose draw count overflows, is
    # refused as a usage error too
    oracle = CountingOracle(anti_dictator(6))
    message = ("budget_constant must be positive" if not budget > 0 else
               f"epsilon 0.5 and budget_constant {budget} give no finite draw count")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tester(oracle, 0, epsilon=0.5, budget_constant=budget)
    assert oracle.query_count == 0


def draw_table(pairs, settings):
    """(b, tau, x, y) rows of a ``pair_draws`` array, in schedule order."""
    return [(b, tau, x, y) for (b, tau), rows in zip(settings, pairs.tolist())
            for x, y in rows]


def b_coordinates(x, b, d):
    """The bits of the coordinates where x has bit b."""
    return x if b else ~x & ((1 << d) - 1)


def test_pair_draws_x_uniform():
    # 5 sigma per cell over 10^6 draws
    d = 4
    settings = [(b, tau) for b in (0, 1) for tau in (1, 2)]
    pairs = pair_draws(np.random.default_rng(7), d, settings, 250_000)
    counts = np.bincount(pairs[..., 0].ravel(), minlength=16)
    draws = pairs[..., 0].size
    expect = draws / 16
    sigma = math.sqrt(draws * (1 / 16) * (15 / 16))
    assert len(counts) == 16
    assert all(abs(c - expect) < 5 * sigma for c in counts.tolist())


@pytest.mark.parametrize("d,settings", [(1, [(0, 1), (1, 1)]),
                                        (4, [(0, 1), (1, 1), (0, 2), (1, 2)])],
                         ids=["d1", "d4"])
def test_pair_draws_degenerate_exactly_without_tau_b_coordinates(d, settings):
    pairs = pair_draws(np.random.default_rng(d), d, settings, 4000)
    seen = set()
    for (b, tau, x, y) in draw_table(pairs, settings):
        assert (y == x) == (b_coordinates(x, b, d).bit_count() < tau)
        seen.add((b, x, y))
    if d == 1:
        assert seen == {(0, 0, 1), (0, 1, 1), (1, 1, 0), (1, 0, 0)}


def test_pair_draws_flip_uniform_tau_subsets():
    # for each (b, tau) and x, y - x flips tau of x's b-coordinates, each of
    # the C(m, tau) subsets equally often (5 sigma per cell)
    d = 4
    for b in (0, 1):
        for tau in (1, 2):
            pairs = pair_draws(np.random.default_rng(10 * b + tau), d, [(b, tau)], 200_000)
            cells = Counter()
            per_x = Counter()
            for (_, _, x, y) in draw_table(pairs, [(b, tau)]):
                per_x[x] += 1
                if y == x:
                    continue
                flip = x ^ y
                assert flip.bit_count() == tau
                assert flip & b_coordinates(x, b, d) == flip
                assert (x & y) == (y if b else x)  # b = 0 goes up, b = 1 down
                cells[x, flip] += 1
            for x, total in per_x.items():
                m = b_coordinates(x, b, d).bit_count()
                if m < tau:
                    continue
                p = 1 / math.comb(m, tau)
                subsets = [sum(1 << i for i in c)
                           for c in combinations(range(d), tau)
                           if all(b_coordinates(x, b, d) >> i & 1 for i in c)]
                assert len(subsets) == math.comb(m, tau)
                sigma = math.sqrt(total * p * (1 - p))
                for flip in subsets:
                    assert abs(cells[x, flip] - total * p) <= 5 * sigma


def test_edge_draws_uniform():
    # each of the d 2^(d-1) directed edges equally often, 5 sigma per cell
    d = 4
    edges = edge_draws(np.random.default_rng(3), d, 320_000)
    counts = Counter(map(tuple, edges.tolist()))
    cover = {(x, x | 1 << i) for x in range(1 << d) for i in range(d) if not x >> i & 1}
    assert set(counts) == cover and len(cover) == d << (d - 1)
    draws, p = len(edges), 1 / len(cover)
    sigma = math.sqrt(draws * p * (1 - p))
    assert all(abs(c - draws * p) < 5 * sigma for c in counts.values())


def test_pair_tester_accepts_monotone():
    for seed in range(25):
        f = random_monotone(hypercube(6), 5, seed)
        rep = pair_tester(CountingOracle(f), seed, epsilon=0.4, r=5)
        assert rep.verdict == "accept"
        assert rep.witness is None


def test_pair_tester_witness_is_genuine():
    f = anti_dictator(6)
    rep = pair_tester(CountingOracle(f), 3, epsilon=0.5, r=2)
    assert rep.verdict == "reject"
    x, y, fx, fy = rep.witness
    assert f.values[x] == fx and f.values[y] == fy
    assert (x & y) in (x, y)  # comparable
    low, high = (x, y) if (x & y) == x else (y, x)
    assert f.values[low] > f.values[high]


def test_pair_tester_query_accounting():
    f = random_function(hypercube(5), 4, 2)
    oracle = RecordingOracle(f)
    rep = pair_tester(oracle, 11, epsilon=0.3, r=4)
    draws = sum(s["draws"] for s in rep.per_setting.values())
    assert rep.queries == oracle.query_count == len(oracle.log)
    # regenerate the schedule to count degenerate draws: 2 queries per
    # distinct pair, 1 per y = x draw
    settings = [(b, tau) for b in (0, 1) for tau in tau_schedule(5)]
    pairs = pair_draws(np.random.default_rng(11), 5, settings, repetitions(5, 0.3, 4, 4.0))
    degenerate = int(np.count_nonzero(pairs[..., 0] == pairs[..., 1]))
    total = pairs[..., 0].size
    assert total == draws
    assert rep.queries == 2 * (total - degenerate) + degenerate


def reference_report(f, schedule):
    """Evaluate a (b, tau, x, y) schedule one pair at a time: the verdict,
    the first violating pair in schedule order with its values, per-setting
    counts, and the query log (x, then y only when y != x)."""
    log, witness, per_setting = [], None, {}
    for (b, tau, x, y) in schedule:
        stats = per_setting.setdefault((b, tau), {"draws": 0, "violations": 0})
        stats["draws"] += 1
        log.append(x)
        if y == x:
            continue
        log.append(y)
        fx, fy = f.values[x], f.values[y]
        if (fx > fy if b == 0 else fx < fy):
            stats["violations"] += 1
            witness = witness or (x, y, fx, fy)
    return ("reject" if witness else "accept"), witness, per_setting, log


@pytest.mark.parametrize("d,seed", [(1, 0), (3, 1), (6, 2), (9, 3)])
def test_pair_tester_matches_pairwise_reference(d, seed):
    values = [(x * 7 % 5) + (0.5 if x % 4 == 1 else 0) for x in range(1 << d)]
    f = ValuedFunction(hypercube(d), tuple(values))
    settings = [(b, tau) for b in (0, 1) for tau in tau_schedule(d)]
    schedule = draw_table(
        pair_draws(np.random.default_rng(seed), d, settings, repetitions(d, 0.3, 4, 0.5)),
        settings)
    oracle = RecordingOracle(f)
    rep = pair_tester(oracle, seed, epsilon=0.3, r=4, budget_constant=0.5)
    verdict, witness, per_setting, log = reference_report(f, schedule)
    assert (rep.verdict, rep.witness, rep.per_setting) == (verdict, witness, per_setting)
    assert oracle.log == log
    assert rep.queries == oracle.query_count == len(log)


def test_pair_tester_replay_identical_queries():
    f = random_function(hypercube(7), 3, 0)
    g = random_monotone(hypercube(7), 3, 1)
    of = RecordingOracle(f)
    og = RecordingOracle(g)
    pair_tester(of, 99, epsilon=0.4, r=3)
    pair_tester(og, 99, epsilon=0.4, r=3)
    assert of.log == og.log


def test_pair_tester_d1_per_draw_rate():
    # per-draw rejection probability of the single-edge instance is 1/2
    f = ValuedFunction(hypercube(1), (1, 0))
    draws = 10_000
    pairs = pair_draws(np.random.default_rng(5), 1, [(0, 1)], draws)[0]
    hits = sum(f.values[x] > f.values[y] for x, y in pairs.tolist())
    sigma = math.sqrt(draws * 0.25)
    assert abs(hits - draws / 2) < 3 * sigma


def test_edge_tester_examples():
    mono = random_monotone(hypercube(5), 4, 8)
    assert edge_tester(CountingOracle(mono), 0, epsilon=0.5).verdict == "accept"

    single = ValuedFunction(hypercube(1), (1, 0))
    rep = edge_tester(CountingOracle(single), 1, epsilon=0.5)
    stats = rep.per_setting[(0, 1)]
    assert stats["violations"] == stats["draws"]  # the only edge is violated

    f = anti_dictator(8)
    rep = edge_tester(CountingOracle(f), 2, epsilon=0.1, budget_constant=20)
    stats = rep.per_setting[(0, 1)]
    rate = stats["violations"] / stats["draws"]
    sigma = math.sqrt((1 / 8) * (7 / 8) / stats["draws"])
    assert abs(rate - 1 / 8) < 5 * sigma


def test_measure_rejection_monotone_zero():
    f = random_monotone(hypercube(5), 6, 4)
    m = measure_rejection(f, partial(pair_schedule, epsilon=0.5, r=6),
                          trials=50, seed=13)
    assert m.rejections == 0 and m.rate == 0.0


@pytest.mark.parametrize("run", [partial(pair_schedule, epsilon=0.5, r=2, budget_constant=0.5),
                                 partial(edge_schedule, epsilon=0.5, budget_constant=0.5)],
                         ids=["pair_tester", "edge_tester"])
def test_measure_rejection_parallel_matches_serial(monkeypatch, run):
    # three trials a chunk: seven chunks, so two workers run different ones
    monkeypatch.setattr(poset, "PAIR_CHUNK", 3 * run(6).trial_bytes)
    f = anti_dictator(6)
    serial = measure_rejection(f, run, trials=20, seed=3, jobs=1)
    parallel = measure_rejection(f, run, trials=20, seed=3, jobs=2)
    assert serial == parallel


def nearly_monotone(d, seed):
    """A random monotone function with a few vertices above the bottom set
    below every value: some trials meet a violation, some do not."""
    f = random_monotone(hypercube(d), 4, seed)
    values = list(f.values)
    for v in random.Random(seed).sample(range(1, 1 << d), 1 + (1 << d) // 8192):
        values[v] = 0
    return ValuedFunction(f.domain, tuple(values))


def record_chunks(monkeypatch):
    """Each chunk `measure_rejection` runs, as its oracle's query count and
    its reports, in the order run."""
    chunks = []

    def recording(oracle, schedule, seeds):
        reports = run_trials(oracle, schedule, seeds)
        chunks.append((oracle.query_count, reports))
        return reports

    monkeypatch.setattr(testers, "run_trials", recording)
    return chunks


@pytest.mark.parametrize("d", [1, 2, 5, 16])
@pytest.mark.parametrize("tester, schedule", [(pair_tester, pair_schedule),
                                              (edge_tester, edge_schedule)],
                         ids=["pair_tester", "edge_tester"])
def test_chunked_trials_match_the_one_trial_testers(monkeypatch, tester, schedule, d):
    f = nearly_monotone(d, d)
    params = {"epsilon": 0.5, **({"r": len(f.levels)} if tester is pair_tester else {})}
    run, trials = partial(schedule, **params), 25
    if trials * run(d).trial_bytes <= poset.PAIR_CHUNK:
        # one chunk at the real budget (all but the pair tester at d = 16):
        # shrink the budget to four trials a chunk
        monkeypatch.setattr(poset, "PAIR_CHUNK", 4 * run(d).trial_bytes)
    chunks = record_chunks(monkeypatch)
    m = measure_rejection(f, run, trials, seed=7)
    sizes = [len(reports) for _, reports in chunks]
    assert len(sizes) >= 3 and sum(sizes) == trials and sizes[-1] < sizes[0]
    if tester is pair_tester and d == 16:
        assert sizes == [11, 11, 3]
    reports = [report for _, chunk in chunks for report in chunk]
    alone = [tester(CountingOracle(f), derive_seed(7, t), **params) for t in range(trials)]
    assert reports == alone  # verdict, queries, witness and per_setting, trial by trial
    assert all(queries == sum(r.queries for r in chunk) for queries, chunk in chunks)
    assert m.rejections == sum(r.rejected for r in alone)
    assert m.mean_queries == math.fsum(r.queries for r in alone) / trials


def test_a_chunk_queries_its_trials_in_turn():
    # the one lookup of a chunk issues each trial's queries in the order
    # the one-trial tester issues them
    f = nearly_monotone(6, 1)
    schedule = pair_schedule(6, epsilon=0.3, r=len(f.levels))
    seeds = [derive_seed(3, t) for t in range(5)]
    chunk = RecordingOracle(f)
    reports = run_trials(chunk, schedule, seeds)
    log = []
    for seed in seeds:
        alone = RecordingOracle(f)
        pair_tester(alone, seed, epsilon=0.3, r=len(f.levels))
        log += alone.log
    assert chunk.log == log
    assert chunk.query_count == sum(r.queries for r in reports) == len(log)


def test_wilson_interval_basics():
    low, high = wilson_interval(50, 100)
    assert low < 0.5 < high
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] == 1.0
