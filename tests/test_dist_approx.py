import math
from fractions import Fraction
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import RecordingOracle
from monocube import dist_approx
from monocube.dist_approx import (BLOCK, Estimate, approx_distance,
                                  approx_mono, capture,
                                  hoeffding_samples, mu_estimate, mu_exact,
                                  rate_schedule, sqrt_d_log_d,
                                  violated_fraction_estimate, _violated)
from monocube.funcs import (CountingOracle, ValuedFunction, anti_dictator,
                            index_dtype, random_function, random_monotone)
from monocube.isoperimetry import violation_profile
from monocube.oracles import exact_distance
from monocube.poset import hypercube
from monocube.seeds import derive_seed
from proof_checks import RED, bucket_profile, u_degree_coloring, violated_edges


def all_subsets(d):
    coords = range(1, d + 1)
    return chain.from_iterable(combinations(coords, k) for k in range(d + 1))


def test_capture_trivia():
    f = ValuedFunction(hypercube(1), (1, 0))
    assert not capture(f, 0, [])
    assert capture(f, 0, [1])
    assert capture(f, 1, [1])
    with pytest.raises(ValueError):
        capture(f, 0, [2])


def test_capture_condition_two_blocks():
    # edge along coordinate 2 at x=0 is violated, but its far endpoint has
    # a violated edge along coordinate 1, so S={1,2} captures nothing at 0
    f = ValuedFunction(hypercube(2), (3, 3, 2, 1))
    assert not capture(f, 0, [1, 2])
    assert capture(f, 0, [2])  # isolation holds once coordinate 1 leaves S
    assert capture(f, 2, [1, 2])  # via i=2 down to vertex 0


def brute_capture(values, x, S):
    """The capture event read off its definition, one edge at a time."""
    def violated(u, bit):  # the edge between u and u^bit, lower end first
        lo, hi = (u, u ^ bit) if not u & bit else (u ^ bit, u)
        return values[lo] > values[hi]

    bits = [1 << (i - 1) for i in S]
    return any(violated(x, b) and not any(violated(x ^ b, c) for c in bits if c != b)
               for b in bits)


@st.composite
def function_and_set(draw):
    d = draw(st.integers(1, 6))
    values = draw(st.lists(st.integers(0, 4) | st.sampled_from([0.5, 2.5, -1.0]),
                           min_size=1 << d, max_size=1 << d))
    S = draw(st.sets(st.integers(1, d)))
    return ValuedFunction(hypercube(d), tuple(values)), sorted(S)


@given(function_and_set())
@settings(max_examples=150, deadline=None)
def test_capture_agrees_with_definition(case):
    f, S = case
    brute = [brute_capture(f.values, x, S) for x in range(f.n)]
    assert [capture(f, x, S) for x in range(f.n)] == brute
    assert mu_exact(f, S) == Fraction(sum(brute), f.n)


def test_violated_matches_its_definition():
    # every (rank of u, rank of v, u is the upper end) combination
    fu, fv, up = (a.ravel() for a in np.meshgrid([0, 1, 2], [0, 1, 2], [False, True]))
    expected = [(a > b) if not u else (b > a) for a, b, u in zip(fu, fv, up)]
    assert _violated(fu, fv, up).tolist() == expected


def test_mu_exact_examples():
    mono = random_monotone(hypercube(4), 3, 0)
    for S in ([1], [2, 4], [1, 2, 3, 4]):
        assert mu_exact(mono, S) == 0
    f = ValuedFunction(hypercube(1), (1, 0))
    assert mu_exact(f, [1]) == 1


def test_mu_lower_bounds_distance_exhaustively():
    for seed in range(12):
        f = random_function(hypercube(4), 4, seed)
        eps = exact_distance(f).epsilon
        for S in all_subsets(4):
            assert eps >= mu_exact(f, S) / 2


def test_hoeffding_samples_example():
    assert hoeffding_samples(0.1, 0.05) == 185


def test_mu_estimate_monotone_exact_zero():
    f = random_monotone(hypercube(5), 4, 9)
    oracle = CountingOracle(f)
    est = mu_estimate(oracle, [1, 3], 0.2, 0.1, seed=5)
    assert est.value == 0.0
    assert oracle.query_count == est.samples * (1 + 2 + 1)  # x, two flips, one pair


@pytest.mark.parametrize("S", [[5], [9], [0]])
def test_mu_estimate_checks_its_coordinates(S):
    oracle = CountingOracle(random_function(hypercube(4), 3, 0))
    with pytest.raises(ValueError, match=rf"^coordinate {S[0]} out of range 1\.\.4$"):
        mu_estimate(oracle, S, 0.2, 0.1, seed=0)
    assert oracle.query_count == 0


def test_estimator_query_logs():
    f = random_function(hypercube(5), 4, 3)
    S = [1, 3, 4]
    oracle = RecordingOracle(f)
    est = mu_estimate(oracle, S, 0.025, 0.1, seed=8)
    assert est.samples > BLOCK  # spans more than one evaluation block
    rng = np.random.default_rng(8)
    bits = [1 << (i - 1) for i in S]
    want = []
    for lo in range(0, est.samples, BLOCK):
        for x in rng.integers(0, 32, size=min(BLOCK, est.samples - lo),
                              dtype=index_dtype(32)).tolist():
            want += [x, *(x ^ b for b in bits),
                     *(x ^ a ^ b for a, b in combinations(bits, 2))]
    assert oracle.log == want
    assert oracle.query_count == len(want)

    oracle = RecordingOracle(f)
    est = violated_fraction_estimate(oracle, 0.025, 0.1, seed=9)
    rng = np.random.default_rng(9)
    want = []
    for lo in range(0, est.samples, BLOCK):
        m = min(BLOCK, est.samples - lo)
        coords = rng.integers(0, 5, size=m, dtype=index_dtype(32)).tolist()
        for i, x in zip(coords, rng.integers(0, 32, size=m, dtype=index_dtype(32)).tolist()):
            x &= ~(1 << i)
            want += [x, x | 1 << i]
    assert oracle.log == want
    assert oracle.query_count == len(want)


def test_mu_estimate_calibration_quick():
    hits = 0
    reps = 30
    for rep in range(reps):
        f = random_function(hypercube(5), 3, 100 + rep)
        S = [1, 2, 5]
        exact = float(mu_exact(f, S))
        est = mu_estimate(CountingOracle(f), S, additive_error=0.1,
                          failure_prob=0.05, seed=rep)
        hits += abs(est.value - exact) <= 0.1
    assert hits >= reps - 2


def test_violated_fraction_estimate():
    mono = random_monotone(hypercube(5), 4, 2)
    assert violated_fraction_estimate(CountingOracle(mono), 0.1, 0.05, 0).value == 0.0

    single = ValuedFunction(hypercube(1), (1, 0))
    assert violated_fraction_estimate(CountingOracle(single), 0.1, 0.05, 1).value == 1.0

    f = anti_dictator(8)
    est = violated_fraction_estimate(CountingOracle(f), 0.02, 0.01, 3)
    assert abs(est.value - 1 / 8) <= 0.02


def test_rate_schedule_and_log_guard():
    assert rate_schedule(9) == [1, 2, 4, 8]
    assert rate_schedule(1) == [1]
    assert sqrt_d_log_d(1) == 1.0
    assert sqrt_d_log_d(4) == pytest.approx(math.sqrt(8))


def test_approx_mono_monotone_close_any_seed():
    for seed in range(10):
        f = random_monotone(hypercube(5), 4, seed)
        rep = approx_mono(CountingOracle(f), seed, epsilon=0.3)
        assert rep.verdict == "close"
        assert rep.edge_estimate.value == 0.0
        assert all(est.value == 0.0 for (_, _, est) in rep.mu_estimates)


def test_approx_mono_far_instance():
    f = anti_dictator(9)
    far = 0
    for trial in range(10):
        rep = approx_mono(CountingOracle(f), derive_seed(1, trial), epsilon=0.4)
        far += rep.verdict == "far"
    assert far >= 8


def test_approx_mono_replay_identical_queries():
    f = random_function(hypercube(5), 4, 0)
    g = random_monotone(hypercube(5), 4, 1)
    of = RecordingOracle(f)
    og = RecordingOracle(g)
    approx_mono(of, 77, epsilon=0.3)
    approx_mono(og, 77, epsilon=0.3)
    assert of.log == og.log


@pytest.mark.parametrize("on_threshold", ["edge", "mu"])
def test_approx_mono_estimate_on_its_threshold_is_far(monkeypatch, on_threshold):
    d, epsilon, c_prime = 5, 0.3, 0.7
    L = sqrt_d_log_d(d)
    edge_thr = 3.0 * epsilon / (4.0 * L)
    mu_thr = 3.0 * c_prime * epsilon / (4.0 * L)

    def estimator(value):
        return lambda *args: Estimate(value, samples=0, additive_error=0.0, failure_prob=0.0)
    monkeypatch.setattr(dist_approx, "violated_fraction_estimate",
                        estimator(edge_thr if on_threshold == "edge" else 0.0))
    monkeypatch.setattr(dist_approx, "mu_estimate",
                        estimator(mu_thr if on_threshold == "mu" else 0.0))
    rep = approx_mono(CountingOracle(random_monotone(hypercube(d), 3, 0)), 0,
                      epsilon=epsilon, c_prime=c_prime)
    assert (rep.edge_threshold, rep.mu_threshold) == (edge_thr, mu_thr)
    assert rep.verdict == "far"
    assert rep.triggered_by == ("edge-fraction" if on_threshold == "edge" else "mu at t=1")


def test_approx_mono_config_validation():
    oracle = CountingOracle(anti_dictator(3))
    with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, 1/2\]$"):
        approx_mono(oracle, 0, epsilon=0.6)
    for c_prime in (0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^c_prime must be positive and finite$"):
            approx_mono(oracle, 0, epsilon=0.3, c_prime=c_prime)
    assert oracle.query_count == 0
    approx_mono(oracle, 0, epsilon=0.5)  # top search level is admitted


@pytest.mark.parametrize("c_prime, why", [
    (1e-200, r"additive error \S+ and failure probability \S+ give no finite sample count"),
    (1e10, r"additive_error and failure_prob must lie in \(0,1\)")], ids=["tiny", "huge"])
def test_a_c_prime_without_a_sample_count_is_refused_before_any_query(c_prime, why):
    # the mu error squares to 0.0, or reaches 1: refused by name before the
    # edge estimate queries anything
    oracle = CountingOracle(anti_dictator(3))
    with pytest.raises(ValueError, match=rf"^c_prime {c_prime} leaves the mu estimates "
                                         rf"no sample count \({why}\)$"):
        approx_mono(oracle, 0, epsilon=0.3, c_prime=c_prime)
    assert oracle.query_count == 0
    with pytest.raises(ValueError, match=rf"^{why}$"):
        hoeffding_samples(0.3 * c_prime / (4 * sqrt_d_log_d(3)), 0.1)


def test_approx_distance_single_edge():
    f = ValuedFunction(hypercube(1), (1, 0))
    rep = approx_distance(CountingOracle(f), alpha=0.25, seed=4)
    assert rep.epsilon_hat == 0.5
    assert not rep.promise_violation


def test_approx_distance_monotone_promise_violation():
    f = random_monotone(hypercube(4), 4, 6)
    rep = approx_distance(CountingOracle(f), alpha=0.2, seed=0)
    assert rep.promise_violation
    assert rep.epsilon_hat == 0.2


def test_approx_distance_alpha_above_half():
    # the tolerant tester caps at 1/2; a higher promise still gets one level
    f = ValuedFunction(hypercube(1), (1, 0))
    rep = approx_distance(CountingOracle(f), alpha=0.8, seed=1)
    assert rep.epsilon_hat == 0.5
    assert len(rep.levels) == 1


def test_approx_distance_anti_dictator():
    f = anti_dictator(9)
    rep = approx_distance(CountingOracle(f), alpha=0.1, seed=8)
    assert rep.epsilon_hat in (0.5, 0.25)
    assert not rep.promise_violation


def test_u_degree_coloring():
    mono = random_monotone(hypercube(3), 4, 0)
    assert len(u_degree_coloring(mono).red) == 0

    single = ValuedFunction(hypercube(1), (1, 0))
    col = u_degree_coloring(single)
    assert col.red.tolist() == [True]  # tie goes to the lower endpoint

    # upper endpoint incident on two violated edges, lowers on one each
    f = ValuedFunction(hypercube(2), (1, 2, 2, 0))
    profile = violation_profile(f)
    assert violated_edges(profile) == ((1, 3), (2, 3))
    col = u_degree_coloring(f)
    assert col.red.tolist() == [False, False]


def test_u_degree_coloring_counts_edges_once():
    for seed in range(10):
        f = random_function(hypercube(5), 5, seed)
        col = u_degree_coloring(f)
        col.validate_for(violation_profile(f))
        assert len(col.red) == violation_profile(f).num_violated


def test_bucket_profile_monotone_empty():
    prof = bucket_profile(random_monotone(hypercube(4), 3, 3))
    assert prof.blocks == {}
    assert prof.bucketed_vertices == 0


def test_bucket_profile_anti_dictator():
    prof = bucket_profile(anti_dictator(4))
    assert set(prof.blocks) == {(1, 1)}
    assert prof.blocks[(1, 1)] == 4  # half of the 8 lower endpoints per parity


def test_bucket_profile_ranges_and_average():
    for seed in range(12):
        f = random_function(hypercube(5), 5, 50 + seed)
        prof = bucket_profile(f)
        profile = violation_profile(f)
        col = u_degree_coloring(f)
        from monocube.isoperimetry import colored_counts
        red, blue = colored_counts(col)
        counts = red if prof.side[1] == RED else blue
        for (t, s), cnt in prof.blocks.items():
            assert t >= s >= 1
            assert cnt > 0
        # recheck the dyadic membership vertex by vertex
        total = profile.total.tolist()
        for x in range(f.domain.n):
            parity = "even" if x.bit_count() % 2 == 0 else "odd"
            if parity == prof.side[0] and counts[x] >= 1:
                t = 1 << (total[x].bit_length() - 1)
                s = 1 << (counts[x].bit_length() - 1)
                assert t <= total[x] < 2 * t
                assert s <= counts[x] < 2 * s
                assert prof.blocks[(t, s)] >= 1
        # the selected (parity, color) carries at least a quarter of the mass
        total = sum(prof.side_sums.values())
        assert prof.selected_sum >= total / 4 - 1e-12


def test_distance_lower_bound_via_edge_fraction():
    for seed in range(20):
        f = random_function(hypercube(5), 5, seed)
        eps = exact_distance(f).epsilon
        frac = Fraction(violation_profile(f).num_violated, f.domain.num_edges)
        assert eps >= frac / 2
