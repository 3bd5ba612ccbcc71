import math
import random
from functools import partial

import pytest

from monocube.funcs import (CountingOracle, ValuedFunction, anti_dictator,
                            random_function, random_monotone)
from monocube.poset import hypercube
from monocube.testers import (TesterConfig, edge_tester, measure_rejection,
                              pair_tester, repetitions, run_pair_tester,
                              sample_pair, tau_schedule, wilson_interval)


def test_tau_schedule():
    assert tau_schedule(1) == [1]
    assert tau_schedule(2) == [1]
    assert tau_schedule(4) == [1]
    assert tau_schedule(16) == [1, 2]
    assert tau_schedule(64) == [1, 2]
    assert tau_schedule(256) == [1, 2, 4]


def test_repetitions_scale():
    base = repetitions(TesterConfig(epsilon=0.5, d=16, r=2))
    assert base == math.ceil(4 * min(2 * 4 / 0.25, 32) * 5)
    doubled = repetitions(TesterConfig(epsilon=0.5, d=16, r=2, budget_constant=8))
    assert doubled == 2 * base


def test_config_validation():
    with pytest.raises(ValueError):
        TesterConfig(epsilon=0.0, d=4, r=2)
    with pytest.raises(ValueError):
        TesterConfig(epsilon=0.5, d=4, r=0)
    with pytest.raises(ValueError):
        TesterConfig(epsilon=0.5, d=4, r=2, budget_constant=0)


def test_sample_pair_d1():
    rng = random.Random(0)
    seen = set()
    for _ in range(100):
        x, y = sample_pair(0, 1, 1, rng)
        seen.add((x, y))
        if x == 0:
            assert y == 1
        else:
            assert y == 1  # S empty: y = x = 1
    assert seen == {(0, 1), (1, 1)}


def test_sample_pair_directions_and_distance():
    rng = random.Random(1)
    for _ in range(2000):
        x, y = sample_pair(0, 2, 4, rng)
        assert (x & y) == x  # x below y
        if y != x:
            assert (x ^ y).bit_count() == 2
            assert bin(x).count("1") + 2 == bin(y).count("1")
    for _ in range(2000):
        x, y = sample_pair(1, 1, 4, rng)
        assert (y & x) == y  # x above y
        if y != x:
            assert (x ^ y).bit_count() == 1


def test_sample_pair_x_uniform():
    # chi-square style check at 5 sigma per cell over 10^6 draws
    rng = random.Random(7)
    d = 4
    counts = [0] * 16
    draws = 1_000_000
    for _ in range(draws):
        x, _ = sample_pair(0, 1, d, rng)
        counts[x] += 1
    expect = draws / 16
    sigma = math.sqrt(draws * (1 / 16) * (15 / 16))
    for c in counts:
        assert abs(c - expect) < 5 * sigma


def test_pair_tester_accepts_monotone():
    for seed in range(25):
        f = random_monotone(hypercube(6), 5, seed)
        rep = pair_tester(CountingOracle(f),
                          TesterConfig(epsilon=0.4, d=6, r=5, seed=seed))
        assert rep.verdict == "accept"
        assert rep.witness is None


def test_pair_tester_witness_is_genuine():
    f = anti_dictator(6)
    rep = pair_tester(CountingOracle(f), TesterConfig(epsilon=0.5, d=6, r=2, seed=3))
    assert rep.verdict == "reject"
    x, y, fx, fy = rep.witness
    assert f.values[x] == fx and f.values[y] == fy
    assert (x & y) in (x, y)  # comparable
    low, high = (x, y) if (x & y) == x else (y, x)
    assert f.values[low] > f.values[high]


def test_pair_tester_query_accounting():
    f = random_function(hypercube(5), 4, 2)
    cfg = TesterConfig(epsilon=0.3, d=5, r=4, seed=11)
    oracle = CountingOracle(f, record=True)
    rep = pair_tester(oracle, cfg)
    draws = sum(s["draws"] for s in rep.per_setting.values())
    assert rep.queries == oracle.query_count == len(oracle.log)
    # regenerate the schedule to count degenerate draws: 2 queries per
    # distinct pair, 1 per y = x draw
    from monocube.testers import repetitions, tau_schedule
    rng = random.Random(cfg.seed)
    degenerate = 0
    total = 0
    for b in (0, 1):
        for tau in tau_schedule(cfg.d):
            for _ in range(repetitions(cfg)):
                x, y = sample_pair(b, tau, cfg.d, rng)
                degenerate += x == y
                total += 1
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
    cfg = TesterConfig(epsilon=0.3, d=d, r=4, budget_constant=0.5, seed=seed)
    rng = random.Random(seed)
    schedule = [(b, tau, *sample_pair(b, tau, d, rng))
                for b in (0, 1) for tau in tau_schedule(d)
                for _ in range(repetitions(cfg))]
    oracle = CountingOracle(f, record=True)
    rep = pair_tester(oracle, cfg)
    verdict, witness, per_setting, log = reference_report(f, schedule)
    assert (rep.verdict, rep.witness, rep.per_setting) == (verdict, witness, per_setting)
    assert oracle.log == log
    assert rep.queries == oracle.query_count == len(log)


def test_pair_tester_replay_identical_queries():
    cfg = dict(epsilon=0.4, d=7, r=3, seed=99)
    f = random_function(hypercube(7), 3, 0)
    g = random_monotone(hypercube(7), 3, 1)
    of = CountingOracle(f, record=True)
    og = CountingOracle(g, record=True)
    pair_tester(of, TesterConfig(**cfg))
    pair_tester(og, TesterConfig(**cfg))
    assert of.log == og.log


def test_pair_tester_d1_per_draw_rate():
    # per-draw rejection probability of the single-edge instance is 1/2
    f = ValuedFunction(hypercube(1), (1, 0))
    rng = random.Random(5)
    draws = 10_000
    hits = 0
    for _ in range(draws):
        x, y = sample_pair(0, 1, 1, rng)
        hits += f.values[x] > f.values[y]
    sigma = math.sqrt(draws * 0.25)
    assert abs(hits - draws / 2) < 3 * sigma


def test_edge_tester_examples():
    mono = random_monotone(hypercube(5), 4, 8)
    assert edge_tester(CountingOracle(mono), 0.5, 5, seed=0).verdict == "accept"

    single = ValuedFunction(hypercube(1), (1, 0))
    rep = edge_tester(CountingOracle(single), 0.5, 1, seed=1)
    stats = rep.per_setting[(0, 1)]
    assert stats["violations"] == stats["draws"]  # the only edge is violated

    f = anti_dictator(8)
    rep = edge_tester(CountingOracle(f), 0.1, 8, budget_constant=20, seed=2)
    stats = rep.per_setting[(0, 1)]
    rate = stats["violations"] / stats["draws"]
    sigma = math.sqrt((1 / 8) * (7 / 8) / stats["draws"])
    assert abs(rate - 1 / 8) < 5 * sigma


def test_measure_rejection_monotone_zero():
    f = random_monotone(hypercube(5), 6, 4)
    m = measure_rejection(f, partial(run_pair_tester, epsilon=0.5, d=5, r=6),
                          trials=50, seed=13)
    assert m.rejections == 0 and m.rate == 0.0


def test_measure_rejection_parallel_matches_serial():
    f = anti_dictator(6)
    run = partial(run_pair_tester, epsilon=0.5, d=6, r=2, budget_constant=0.5)
    serial = measure_rejection(f, run, trials=20, seed=3, jobs=1)
    parallel = measure_rejection(f, run, trials=20, seed=3, jobs=2)
    assert serial == parallel


def test_wilson_interval_basics():
    low, high = wilson_interval(50, 100)
    assert low < 0.5 < high
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] == 1.0
