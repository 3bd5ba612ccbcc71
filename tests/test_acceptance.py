"""Acceptance suite.

Each test implements one numbered acceptance criterion at its stated
tolerance and prints one PASS/FAIL line (run with `pytest -s` to see the
lines stream).  Expected values are either trivial, derived from the
independent oracles in `monocube.oracles` and `poset_oracles`, or
statistical with explicit sigma margins.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from conftest import RecordingOracle
from monocube.decomposition import decompose, edge_bound_check, robust_chain_check
from monocube.dist_approx import (approx_mono, mu_estimate,
                                  mu_exact)
from monocube.funcs import (CountingOracle, ValuedFunction, anti_dictator,
                            random_function, random_monotone)
from monocube.hard_instances import (LowerBoundSpec, cap_set,
                                     lower_bound_function,
                                     violation_witness_count, witness_matching)
from monocube.isoperimetry import (EdgeColoring, dist_to_const_fraction,
                                   undirected_objective, violation_profile)
from monocube.oracles import exact_distance, is_monotone
from monocube.poset import hypercube
from monocube.seeds import derive_seed
from monocube.testers import pair_draws, pair_tester
from poset_oracles import exact_distance_bruteforce
from proof_checks import boolean_variance, median_threshold

SUITE_SEED = 20240
SUITE_SIZE = 500
TWO_SQRT_TWO = 2 * math.sqrt(2)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


@pytest.fixture(scope="module")
def suite():
    """500 random functions, d in 2..6, r in 2..8, deterministic."""
    rng = random.Random(SUITE_SEED)
    out = []
    for idx in range(SUITE_SIZE):
        d = rng.randint(2, 6)
        r = rng.randint(2, 8)
        out.append(random_function(hypercube(d), r, derive_seed(SUITE_SEED, idx)))
    return out


@pytest.fixture(scope="module")
def suite_certs(suite):
    return [exact_distance(f) for f in suite]


def test_criterion_01_exact_oracle_agreement(suite, suite_certs):
    with criterion("01 exact-oracle-agreement"):
        for f, cert in zip(suite, suite_certs):
            if f.domain.d <= 4:
                assert cert.cover_size == exact_distance_bruteforce(f)
            assert is_monotone(cert.repaired)
            hamming = sum(a != b for a, b in zip(cert.repaired.values, f.values))
            assert hamming == cert.cover_size


def test_criterion_02_decomposition_certificate(suite):
    with criterion("02 theorem-3-certificate"):
        checked = 0
        for f in suite:
            if is_monotone(f):
                continue
            dec = decompose(f)
            assert dec.certificate.all_ok, dec.certificate.failures()
            checked += 1
        assert checked > 0
        print(f"  ({checked} non-monotone instances)", end=" ")


def test_criterion_03_robust_chain(suite):
    with criterion("03 robust-chain"):
        rng = np.random.default_rng(derive_seed(SUITE_SEED, 3))
        done = 0
        for f in suite:
            if done >= 100 or f.domain.d > 5 or is_monotone(f):
                continue
            col = EdgeColoring.random(violation_profile(f), rng)
            rep = robust_chain_check(decompose(f), col)
            assert rep.ordering_ok, rep.detail
            assert rep.epsilon_sum >= rep.epsilon_f / 2  # exact rationals
            done += 1
        assert done == 100


def test_criterion_04_edge_bound(suite):
    with criterion("04 edge-bound"):
        for f in suite:
            rep = edge_bound_check(f)
            assert rep.holds          # |S_f^-| >= eps * 2^(d-1)
            assert rep.stronger_holds  # |S_f^-| >= eps * 2^d


def test_criterion_05_one_sided_error():
    with criterion("05 tester-1-sidedness"):
        rng = random.Random(derive_seed(SUITE_SEED, 5))
        rejections = 0
        for run_idx in range(10_000):
            d = rng.randint(1, 12)
            r = rng.randint(1, 16)
            f = random_monotone(hypercube(d), r, derive_seed(SUITE_SEED, 50, run_idx))
            rep = pair_tester(CountingOracle(f), derive_seed(SUITE_SEED, 51, run_idx),
                              epsilon=0.5, r=r)
            rejections += rep.rejected
        assert rejections == 0


def test_criterion_06_tester_power():
    with criterion("06 tester-power"):
        f = anti_dictator(16)
        rejected = 0
        for trial in range(100):
            rep = pair_tester(CountingOracle(f), derive_seed(SUITE_SEED, 6, trial),
                              epsilon=0.5, r=2, budget_constant=4.0)
            rejected += rep.rejected
        assert rejected >= 60
        print(f"  (anti-dictator d=16: {rejected}/100 rejections)", end=" ")

        single = ValuedFunction(hypercube(1), (1, 0))
        rng = np.random.default_rng(derive_seed(SUITE_SEED, 61))
        draws = 10_000
        hits = sum(single.values[x] > single.values[y]
                   for (x, y) in pair_draws(rng, 1, [(0, 1)], draws)[0].tolist())
        sigma = math.sqrt(draws * 0.25)
        assert abs(hits - draws / 2) < 3 * sigma


def test_criterion_07_capture_mu():
    with criterion("07 capture-mu"):
        # calibration: estimate within additive error in >= 95% of 200 reps
        additive = 0.1
        within = 0
        reps = 200
        for rep_idx in range(reps):
            d = 2 + rep_idx % 5
            r = 2 + rep_idx % 7
            f = random_function(hypercube(d), r, derive_seed(SUITE_SEED, 7, rep_idx))
            rng = random.Random(derive_seed(SUITE_SEED, 71, rep_idx))
            S = [i for i in range(1, d + 1) if rng.random() < 0.5] or [1]
            est = mu_estimate(CountingOracle(f), S, additive_error=additive,
                              failure_prob=0.05,
                              seed=derive_seed(SUITE_SEED, 72, rep_idx))
            within += abs(est.value - float(mu_exact(f, S))) <= additive
        assert within >= 0.95 * reps
        print(f"  (calibration {within}/{reps})", end=" ")

        # lb-on-dist, exhaustive over all S at d <= 4
        from itertools import chain, combinations
        for idx in range(40):
            d = 2 + idx % 3
            f = random_function(hypercube(d), 4, derive_seed(SUITE_SEED, 73, idx))
            eps = exact_distance(f).epsilon
            for k in range(d + 1):
                for S in combinations(range(1, d + 1), k):
                    assert eps >= mu_exact(f, S) / 2
            frac = Fraction(violation_profile(f).num_violated, f.domain.num_edges)
            assert eps >= frac / 2


def close_construction():
    """Boolean weight threshold on d=9 with eight weight-6 points lowered:
    distance 8/512 < 0.02 from monotone, verified exactly in criterion 8."""
    dom = hypercube(9)
    values = [1 if x.bit_count() >= 5 else 0 for x in range(dom.n)]
    for u in [x for x in range(dom.n) if x.bit_count() == 6][:8]:
        values[u] = 0
    return ValuedFunction(dom, tuple(values))


def test_criterion_08_approx_mono():
    with criterion("08 approx-mono"):
        # monotone inputs land on close with probability 1
        for idx in range(20):
            f = random_monotone(hypercube(6), 5, derive_seed(SUITE_SEED, 8, idx))
            rep = approx_mono(CountingOracle(f), derive_seed(SUITE_SEED, 81, idx),
                              epsilon=0.4)
            assert rep.verdict == "close"

        far_f = anti_dictator(9)
        fars = 0
        for trial in range(100):
            rep = approx_mono(CountingOracle(far_f), derive_seed(SUITE_SEED, 82, trial),
                              epsilon=0.4)
            fars += rep.verdict == "far"
        assert fars >= 67  # >= 2/3 of 100
        print(f"  (far instance: {fars}/100 far)", end=" ")

        near = close_construction()
        eps = exact_distance(near).epsilon
        assert eps <= Fraction(2, 100)
        closes = 0
        for trial in range(100):
            rep = approx_mono(CountingOracle(near), derive_seed(SUITE_SEED, 83, trial),
                              epsilon=0.4)
            closes += rep.verdict == "close"
        assert closes >= 67
        print(f"(near instance: {closes}/100 close)", end=" ")


def test_criterion_09_lower_bound_family():
    with criterion("09 lower-bound-family"):
        spec = LowerBoundSpec(9, 7, 1)
        f = lower_bound_function(spec)
        M = witness_matching(spec)
        for (x, y) in M.pairs:
            assert f.values[x] > f.values[y]

        rng = random.Random(derive_seed(SUITE_SEED, 9))
        for _ in range(10_000):
            size = rng.randint(1, 10)
            c = rng.randint(1, 4)
            Q = [rng.getrandbits(25) for _ in range(size)]
            assert len(cap_set(Q, c)) <= c * (len(set(Q)) - 1)

        for _ in range(1_000):
            Q = [rng.getrandbits(9) for _ in range(20)]
            count = violation_witness_count(Q, spec)  # raises if >= w|Q|
            assert count < spec.width * len(Q)

        eps_lower = Fraction(len(M), 2 ** (spec.d + 1))
        assert eps_lower >= Fraction(15, 100)
        print(f"  (|M| = {len(M)}, eps >= {float(eps_lower):.3f})", end=" ")


def test_criterion_10_undirected_inequalities():
    with criterion("10 undirected-inequalities"):
        rng = random.Random(derive_seed(SUITE_SEED, 10))
        for idx in range(1000):
            d = rng.randint(1, 8)
            r = rng.randint(1, 8)
            f = random_function(hypercube(d), r, derive_seed(SUITE_SEED, 101, idx))
            lhs = undirected_objective(f)
            dist_f = dist_to_const_fraction(f)
            assert lhs >= float(dist_f) / TWO_SQRT_TWO - 1e-12

            res = median_threshold(f)
            h = res.h
            assert undirected_objective(h) >= \
                math.sqrt(2) * float(boolean_variance(h)) - 1e-12
            assert dist_to_const_fraction(h) >= dist_f / 2  # exact rationals
            pf = violation_profile(f)
            ph = violation_profile(h)
            assert (ph.undirected <= pf.undirected).all()


def test_criterion_11_nonadaptive_replay():
    with criterion("11 nonadaptive-replay"):
        d = 8
        f = random_function(hypercube(d), 5, 1)
        g = random_monotone(hypercube(d), 3, 2)
        of = RecordingOracle(f)
        og = RecordingOracle(g)
        pair_tester(of, 12345, epsilon=0.4, r=5)
        pair_tester(og, 12345, epsilon=0.4, r=5)
        assert of.log == og.log

        f5 = random_function(hypercube(5), 6, 3)
        g5 = random_monotone(hypercube(5), 2, 4)
        of = RecordingOracle(f5)
        og = RecordingOracle(g5)
        approx_mono(of, 777, epsilon=0.3)
        approx_mono(og, 777, epsilon=0.3)
        assert of.log == og.log
