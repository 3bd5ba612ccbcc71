import gc
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from monocube import isoperimetry
from monocube.funcs import (ValuedFunction, anti_dictator, random_function,
                            random_monotone, weight_function)
from monocube.isoperimetry import (EdgeColoring, directed_objective,
                                   dist_to_const, profile_dump,
                                   robust_objective, undirected_objective,
                                   violation_profile)
from monocube.poset import DomainSizeError, PosetDomain, hypercube
import proof_checks
from conftest import decreasing_chain
from proof_checks import (PersistenceDecompositionReport, boolean_variance,
                          check_good_graph, is_persistent,
                          persistence_decomposition_check,
                          persistence_probability, persistence_probability_mc,
                          threshold, violated_edges, weight_band)

TWO_SQRT_TWO = 2 * math.sqrt(2)


def test_profile_monotone_zero():
    f = weight_function(4)
    p = violation_profile(f)
    assert violated_edges(p) == ()
    assert set(p.out.tolist()) == {0} and set(p.total.tolist()) == {0}


def test_profile_anti_dictator_d2():
    p = violation_profile(anti_dictator(2))
    assert set(violated_edges(p)) == {(0, 1), (2, 3)}
    assert p.num_violated == 2


def test_profile_single_edge():
    p = violation_profile(ValuedFunction(hypercube(1), (1, 0)))
    assert violated_edges(p) == ((0, 1),)
    assert p.out.tolist() == [1, 0]
    assert p.total.tolist() == [1, 1]


def test_profile_count_identities():
    for seed in range(30):
        f = random_function(hypercube(5), 5, seed)
        p = violation_profile(f)
        assert p.out.sum() == p.num_violated
        assert p.total.sum() == 2 * p.num_violated


def test_directed_objective_examples():
    assert directed_objective(weight_function(5)) == 0.0
    for d in (1, 2, 4, 6):
        assert directed_objective(anti_dictator(d)) == pytest.approx(0.5, abs=1e-15)
    assert directed_objective(ValuedFunction(hypercube(1), (1, 0))) == 0.5


def test_robust_objective_examples():
    f = anti_dictator(3)
    p = violation_profile(f)
    assert robust_objective(f, EdgeColoring.all_red(p)) == directed_objective(f)
    assert robust_objective(f, EdgeColoring(p, [False] * p.num_violated)) == pytest.approx(0.5)
    mono = random_monotone(hypercube(4), 3, 1)
    assert robust_objective(mono, EdgeColoring.all_red(violation_profile(mono))) == 0.0


def test_robust_objective_validates_coloring():
    f = anti_dictator(2)
    p = violation_profile(f)
    assert violated_edges(p) == ((0, 1), (2, 3))
    with pytest.raises(ValueError):
        EdgeColoring(p, [True])  # not total
    with pytest.raises(ValueError):
        EdgeColoring(p, [True, False, True])  # extra edge


@pytest.mark.parametrize("m", [0, 1, 2, 3, 17, 295, 1000])
def test_random_coloring_is_the_per_edge_draw(m):
    profile = violation_profile(decreasing_chain(m + 1))
    assert profile.num_violated == m
    for seed in range(300):
        col = EdgeColoring.random(profile, np.random.default_rng(seed))
        assert np.array_equal(col.red, np.random.default_rng(seed).random(m) < 0.5)


def test_coloring_conservation():
    rng = np.random.default_rng(0)
    for seed in range(40):
        f = random_function(hypercube(5), 6, seed)
        p = violation_profile(f)
        col = EdgeColoring.random(p, rng)
        red = int(col.red.sum())
        blue = len(col.red) - red
        from monocube.isoperimetry import colored_counts
        rc, bc = colored_counts(col)
        assert sum(rc) == red and sum(bc) == blue
        assert sum(rc) + sum(bc) == p.num_violated


def test_undirected_objective_examples():
    assert undirected_objective(ValuedFunction(hypercube(3), (7,) * 8)) == 0.0
    assert undirected_objective(ValuedFunction(hypercube(1), (0, 1))) == 0.5
    for seed in range(20):
        f = random_function(hypercube(5), 4, seed)
        p = violation_profile(f)
        recount = sum(1 for (x, y) in f.domain.cover_edges()
                      if f.values[x] != f.values[y])
        assert p.undirected.sum() == recount


def test_dist_to_const_examples():
    assert dist_to_const(ValuedFunction(hypercube(2), (3, 3, 3, 3))) == 0.0
    assert dist_to_const(anti_dictator(5)) == 0.5
    assert dist_to_const(ValuedFunction(hypercube(2), (1, 1, 1, 5))) == 0.25


def test_threshold_objective_containment():
    for seed in range(25):
        f = random_function(hypercube(5), 6, seed)
        base = directed_objective(f)
        for t in sorted(set(f.values)):
            assert directed_objective(threshold(f, t)) <= base + 1e-15


def test_parity_split_partitions_violations():
    for seed in range(20):
        f = random_function(hypercube(6), 5, seed)
        p = violation_profile(f)
        edges = violated_edges(p)
        even = [e for e in edges if e[0].bit_count() % 2 == 0]
        odd = [e for e in edges if e[0].bit_count() % 2 == 1]
        assert len(even) + len(odd) == p.num_violated
        for (x, y) in edges:
            assert x.bit_count() % 2 != y.bit_count() % 2


def test_undirected_inequality_random_suite():
    for seed in range(100):
        f = random_function(hypercube(6), 4, seed)
        assert undirected_objective(f) >= dist_to_const(f) / TWO_SQRT_TWO - 1e-12


def test_boolean_talagrand_variance_form():
    for seed in range(60):
        h = random_function(hypercube(6), 2, seed)
        h = ValuedFunction(h.domain, tuple(v - 1 for v in h.values))
        lhs = undirected_objective(h)
        assert lhs >= math.sqrt(2) * float(boolean_variance(h)) - 1e-12


# -- good graphs ------------------------------------------------------------------


def test_good_graph_perfect_matching():
    A, B = [0, 1, 2], [10, 11, 12]
    edges = [(0, 10), (1, 11), (2, 12)]
    assert check_good_graph(A, B, edges, K=3, delta=1) == "both"


def test_good_graph_star_is_neither():
    # the B side has degree exactly 1 = delta, but the single A vertex has
    # degree 3 > 2*delta, so the right-good condition (c) fails too
    assert check_good_graph([0], [1, 2, 3], [(0, 1), (0, 2), (0, 3)],
                            K=3, delta=1) == "neither"


def test_good_graph_right_good():
    # two A-vertices of degree 2 <= 2*delta, four B-vertices of degree 1
    edges = [(0, 10), (0, 11), (1, 12), (1, 13)]
    assert check_good_graph([0, 1], [10, 11, 12, 13], edges,
                            K=4, delta=1) == "right-good"
    assert check_good_graph([0, 1], [10, 11, 12, 13], edges,
                            K=2, delta=2) == "left-good"


def test_good_graph_empty_and_errors():
    assert check_good_graph([0], [1], [], K=1, delta=1) == "neither"
    with pytest.raises(ValueError):
        check_good_graph([0], [1], [(0, 5)], K=1, delta=1)


# -- persistence -------------------------------------------------------------------


def test_persistence_monotone_weight_function():
    f = weight_function(5)
    for tau in (1, 2):
        for x in (0, 3, 7):
            assert persistence_probability(f, x, tau, "right") == 0
            assert not is_persistent(f, x, tau, "right")


def test_persistence_constant():
    f = ValuedFunction(hypercube(4), (2,) * 16)
    assert persistence_probability(f, 5, 2, "right") == 1
    assert persistence_probability(f, 5, 2, "left") == 1
    assert is_persistent(f, 5, 2, "right")


def test_persistence_anti_dictator_bottom():
    f = anti_dictator(5)
    assert persistence_probability(f, 0, 1, "right") == 1


def test_persistence_degenerate_tau():
    f = anti_dictator(3)
    # x = 7 has no free 0-coordinates: right walk degenerates to y = x
    assert persistence_probability(f, 7, 1, "right") == 1


def test_persistence_exact_vs_monte_carlo():
    f = random_function(hypercube(6), 4, 5)
    exact = persistence_probability(f, 0, 2, "right")
    mc = persistence_probability_mc(f, 0, 2, "right", samples=4000, seed=9)
    assert abs(mc.probability - float(exact)) < 5 * max(mc.std_error, 0.01)


def test_persistence_enumeration_cap():
    f = random_function(hypercube(8), 3, 0)
    with pytest.raises(DomainSizeError):
        persistence_probability(f, 0, 4, "right", enumeration_cap=10)


def walk_endpoint(x, coordinates, direction):
    """The endpoint of a walk that sets (right) or clears (left) each
    coordinate, one bit at a time."""
    for i in coordinates:
        x = x | 1 << i if direction == "right" else x & ~(1 << i)
    return x


def persists(f, x, y, direction):
    return f.values[y] <= f.values[x] if direction == "right" else f.values[y] >= f.values[x]


def test_persistence_walk_matches_the_per_direction_walk():
    """Exact and Monte Carlo persistence equal the per-direction bit walk,
    the Monte Carlo estimate draw for draw from the same stream."""
    f = ValuedFunction(hypercube(5), tuple(random.Random(4).choice([0, 1, 1.0, 2, 2.5, 3])
                                           for _ in range(32)))
    for direction in ("right", "left"):
        for x in range(32):
            free = proof_checks.free_coordinates(x, 5, direction)
            for tau in (1, 2, 3):
                if tau > len(free):
                    continue
                good = sum(persists(f, x, walk_endpoint(x, T, direction), direction)
                           for T in itertools.combinations(free, tau))
                assert persistence_probability(f, x, tau, direction) \
                    == Fraction(good, math.comb(len(free), tau))
                rng = random.Random(x)
                good = sum(persists(f, x, walk_endpoint(x, rng.sample(free, tau), direction),
                                    direction) for _ in range(40))
                assert persistence_probability_mc(f, x, tau, direction, 40, x).probability \
                    == good / 40


def test_persistence_left_right_symmetry():
    f = random_function(hypercube(4), 5, 12)
    g = ValuedFunction(f.domain, tuple(-f.values[x ^ 0b1111] for x in range(16)))
    # mirroring the cube and negating swaps the two directions
    for x in range(16):
        assert persistence_probability(f, x, 1, "right") == \
            persistence_probability(g, x ^ 0b1111, 1, "left")


def test_persistence_decomposition_check_examples():
    f = random_function(hypercube(3), 2, 4)
    rep = persistence_decomposition_check(f, tau=1)
    assert isinstance(rep, PersistenceDecompositionReport)
    assert rep.pointwise_match
    assert rep.union_bound_holds

    zero = ValuedFunction(hypercube(3), (0,) * 8)
    for x in range(8):
        assert is_persistent(zero, x, 1, "right")


def test_persistence_decomposition_check_random():
    for seed in range(5):
        f = random_function(hypercube(4), 3, seed)
        for direction in ("right", "left"):
            rep = persistence_decomposition_check(f, tau=1, direction=direction)
            assert rep.pointwise_match, rep.mismatches
            assert rep.union_bound_holds


def test_weight_band_sane():
    lo, hi = weight_band(16)
    assert lo < 8 < hi
    assert hi - lo == pytest.approx(4 * math.sqrt(16 * 4))


def test_profile_dump_keys():
    dump = profile_dump(anti_dictator(3))
    for key in ("I_minus", "U_minus", "I_undirected", "objective_directed",
                "objective_robust", "objective_undirected", "dist_const"):
        assert key in dump
    assert dump["objective_directed"] == pytest.approx(0.5)


def test_profile_dump_robust_objective_is_all_red():
    for seed in range(10):
        f = random_function(hypercube(5), 6, seed)
        all_red = EdgeColoring.all_red(violation_profile(f))
        assert profile_dump(f)["objective_robust"] == robust_objective(f, all_red)


@pytest.mark.parametrize("enabled", [True, False])
def test_profile_dump_leaves_the_collector_as_it_found_it(enabled):
    f = random_function(hypercube(4), 4, 5)
    expected = profile_dump(f)
    if not enabled:
        gc.disable()
    try:
        assert profile_dump(f) == expected
        assert gc.isenabled() == enabled
    finally:
        gc.enable()


def test_profile_dump_restores_the_collector_when_the_build_raises(monkeypatch):
    def failing_stack(*args, **kwargs):
        assert not gc.isenabled()  # the build runs with the collector paused
        raise MemoryError("edge list")

    monkeypatch.setattr(isoperimetry.np, "stack", failing_stack)
    with pytest.raises(MemoryError, match="edge list"):
        profile_dump(random_function(hypercube(4), 4, 5))
    assert gc.isenabled()


def test_profile_dump_edge_lists_skip_the_young_generations():
    f = random_function(hypercube(12), 8, 5)
    gc.collect()  # so that no collection older than generation 0 falls due during the dump
    edges = profile_dump(f)["violated_edges"]
    assert gc.isenabled() and len(edges) > 10_000
    young = {id(obj) for gen in (0, 1) for obj in gc.get_objects(generation=gen)}
    assert not any(id(edge) in young for edge in edges)


def test_profile_dump_ends_share_one_int_per_vertex():
    f = random_function(hypercube(12), 8, 5)
    edges = profile_dump(f)["violated_edges"]
    assert len({id(end) for edge in edges for end in edge}) <= f.domain.n


@pytest.mark.parametrize("caller_froze", [True, False])
@pytest.mark.parametrize("build_raises", [True, False])
def test_profile_dump_keeps_the_freeze_count(monkeypatch, caller_froze, build_raises):
    f = random_function(hypercube(4), 4, 5)
    if build_raises:
        def failing_stack(*args, **kwargs):
            raise MemoryError("edge list")
        monkeypatch.setattr(isoperimetry.np, "stack", failing_stack)
    held = [[]]  # a tracked object that the caller freezes
    if caller_froze:
        gc.freeze()
    frozen = gc.get_freeze_count()
    try:
        if build_raises:
            with pytest.raises(MemoryError, match="edge list"):
                profile_dump(f)
        else:
            profile_dump(f)
        assert gc.get_freeze_count() == frozen
        assert any(obj is held for obj in gc.get_objects()) != caller_froze
    finally:
        gc.unfreeze()


def brute_profile(f, edges):
    """The per-edge loop over an explicit edge list: violated edges, the
    directed, total and undirected counts."""
    n = f.domain.n
    out, total, undirected, violated = [0] * n, [0] * n, [0] * n, []
    for (x, y) in edges:
        vx, vy = f.values[x], f.values[y]
        if vx > vy:
            violated.append((x, y))
            out[x] += 1
            total[x] += 1
            total[y] += 1
            undirected[x] += 1
        elif vx < vy:
            undirected[y] += 1
    return tuple(violated), tuple(out), tuple(total), tuple(undirected)


MIXED_VALUES = st.integers(0, 4) | st.sampled_from([0.5, 1.0, 2.5, 3.0, -1.0])


@st.composite
def function_with_edges(draw):
    """A function with int and float values on a hypercube (d = 1..6) or a
    random DAG, and the domain's edge list written out independently."""
    if draw(st.booleans()):
        d = draw(st.integers(1, 6))
        domain = hypercube(d)
        edges = [(x, x | 1 << i) for x in range(1 << d) for i in range(d)
                 if not x >> i & 1]
    else:
        n = draw(st.integers(1, 12))
        order = draw(st.permutations(range(n)))
        picks = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3 * n))
        edges = sorted({(order[min(a, b)], order[max(a, b)]) for a, b in picks if a != b})
        domain = PosetDomain("dag", n=n, edges=edges)
    values = draw(st.lists(MIXED_VALUES, min_size=domain.n, max_size=domain.n))
    return ValuedFunction(domain, tuple(values)), edges


@given(function_with_edges())
@example((ValuedFunction(PosetDomain("dag", n=1), (2.5,)), []))
@example((ValuedFunction(PosetDomain("dag", n=4), (3, 1.0, 2.5, 1)), []))
@settings(max_examples=200, deadline=None)
def test_profile_agrees_with_edge_loop(case):
    f, edges = case
    assert f.domain.cover_edges() == edges
    p = violation_profile(f)
    assert (violated_edges(p), tuple(p.out.tolist()), tuple(p.total.tolist()),
            tuple(p.undirected.tolist())) == brute_profile(f, edges)
    assert violation_profile(f) is p
    n = f.domain.n
    violated, out, total, undirected = brute_profile(f, edges)
    dump = profile_dump(f)
    assert dump["violated_edges"] == [list(e) for e in violated]
    assert (dump["I_minus"], dump["U_minus"], dump["I_undirected"]) \
        == (list(out), list(total), list(undirected))
    directed = math.fsum(math.sqrt(c) for c in out) / n
    assert dump["objective_directed"] == directed == dump["objective_robust"]
    assert dump["objective_undirected"] == math.fsum(math.sqrt(c) for c in undirected) / n


def test_validate_for_rejects_another_functions_coloring():
    f = ValuedFunction(hypercube(2), (1, 2, 2, 0))   # violates (1, 3), (2, 3)
    g = ValuedFunction(hypercube(2), (2, 1, 1, 2))   # violates (0, 1), (0, 2)
    col = EdgeColoring.all_red(violation_profile(f))
    assert violation_profile(g).num_violated == len(col.red)
    with pytest.raises(ValueError):
        col.validate_for(violation_profile(g))
    with pytest.raises(ValueError):
        robust_objective(g, col)
    # a profile with the same violated edges, computed separately, is accepted
    same = ValuedFunction(hypercube(2), (5, 6, 6, 4))
    assert violation_profile(same) is not violation_profile(f)
    assert robust_objective(same, col) == robust_objective(f, col)


def fsum_root_means(counts, n):
    """The definition `isoperimetry._root_means` must equal bit for bit:
    math.fsum over each run's n correctly rounded roots, over n."""
    counts = list(counts)
    return [math.fsum(map(math.sqrt, counts[start:start + n])) / n
            for start in range(0, len(counts), n)]


@pytest.mark.parametrize("seed", range(12))
def test_root_means_equal_the_fsum_definition(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.choice([1, 2, 3, 64, 1000, 1 << 16])) if seed else 1 << 16
    runs = 1 if seed % 3 == 0 else int(rng.integers(2, 5 if n > 1000 else 40))
    top = int(rng.choice([1, 16, 300, (1 << 20) - 1]))
    counts = rng.integers(0, top + 1, size=runs * n)
    if seed % 2:  # mostly-zero runs, as a chain's restricted counts are
        counts[rng.random(runs * n) < 0.97] = 0
    assert isoperimetry._root_means(counts, n) == fsum_root_means(counts.tolist(), n)


def test_exact_roots_are_the_scaled_roots():
    high, low = isoperimetry._exact_roots(5000)
    assert len(high) == len(low) == 5001 and low.max() < 2**32
    assert all(Fraction(math.sqrt(c)) * 2**52 == (h << 32) + lo
               for c, (h, lo) in enumerate(zip(high.tolist(), low.tolist())))


def test_star_dag_grows_the_root_table(monkeypatch):
    # the centre is below every leaf and violates all n - 1 edges, a count
    # past the table's first length
    monkeypatch.setattr(isoperimetry, "_roots", isoperimetry._root_table(256))
    n = 3000
    star = PosetDomain("dag", n=n, edges=[(0, v) for v in range(1, n)])
    f = ValuedFunction(star, (1,) + (0,) * (n - 1))
    assert violation_profile(f).out.max() == n - 1
    assert directed_objective(f) == math.sqrt(n - 1) / n == fsum_root_means(
        violation_profile(f).out.tolist(), n)[0]
    col = EdgeColoring(violation_profile(f), [True, False] * ((n - 1) // 2) + [True])
    red, blue = isoperimetry.colored_counts(col)
    assert robust_objective(f, col) == sum(fsum_root_means(red + blue, n))
    assert len(isoperimetry._roots[0]) == 4096
