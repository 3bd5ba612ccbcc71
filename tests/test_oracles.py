import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import decreasing_chain
from monocube.cli import _verify_instance
from monocube.funcs import (ValuedFunction, anti_dictator, random_function,
                            random_monotone, threshold, weight_function)
from monocube.isoperimetry import undirected_objective, violation_profile
from monocube.oracles import (DistanceCertificate, boolean_variance,
                              enumerate_matchings_check,
                              exact_distance, exact_distance_bruteforce,
                              exact_distances,
                              is_monotone, median_threshold, mvc_branch_bound,
                              violated_pairs, worst_coloring, _repair)
from monocube import poset
from monocube.poset import DomainSizeError, PosetDomain, hypercube
from monocube.seeds import derive_seed


def test_is_monotone_examples():
    assert is_monotone(ValuedFunction(hypercube(3), (4,) * 8))
    assert not is_monotone(ValuedFunction(hypercube(1), (1, 0)))
    assert is_monotone(weight_function(5))


def test_exact_distance_trivia():
    mono = random_monotone(hypercube(4), 5, 3)
    cert = exact_distance(mono)
    assert cert.epsilon == 0 and cert.vertex_cover == frozenset()
    assert cert.repaired.values == mono.values

    cert = exact_distance(ValuedFunction(hypercube(1), (1, 0)))
    assert cert.epsilon == Fraction(1, 2)
    assert cert.cover_size == 1


def test_exact_distance_anti_dictator():
    cert = exact_distance(anti_dictator(3))
    assert cert.epsilon == Fraction(1, 2)
    assert exact_distance_bruteforce(anti_dictator(3)) == 4


def test_exact_distance_decreasing_chain():
    f = decreasing_chain(5)
    cert = exact_distance(f)
    # keep one vertex, rewrite the other four
    assert cert.cover_size == 4
    assert exact_distance_bruteforce(f) == 4
    assert mvc_branch_bound(f) == 4


@pytest.mark.parametrize("seed", range(40))
def test_exact_distance_vs_bruteforce(seed):
    rng = random.Random(seed)
    d = rng.choice([2, 3, 4])
    f = random_function(hypercube(d), rng.choice([2, 3, 5, 8]), seed)
    cert = exact_distance(f)
    assert cert.cover_size == exact_distance_bruteforce(f)
    assert is_monotone(cert.repaired)
    changed = sum(a != b for a, b in zip(cert.repaired.values, f.values))
    assert changed == cert.cover_size


@pytest.mark.parametrize("seed", range(20))
def test_koenig_vs_branch_and_bound(seed):
    rng = random.Random(1000 + seed)
    d = rng.choice([3, 4, 5, 6])
    r = rng.choice([2, 3, 6])
    f = random_function(hypercube(d), r, 1000 + seed)
    assert exact_distance(f).cover_size == mvc_branch_bound(f)


def test_exact_distance_boolean_large():
    # Boolean inputs ride the bipartite fast path well past 64 vertices
    f = random_function(hypercube(8), 2, 7)
    cert = exact_distance(f)
    assert is_monotone(cert.repaired)
    assert cert.cover_size == mvc_branch_bound(f)


def test_exact_distance_pair_budget():
    # non-Boolean d=7 (2059 comparable pairs) solves, with its certificate
    f = random_function(hypercube(7), 5, 0)
    cert = exact_distance(f)
    assert is_monotone(cert.repaired)
    assert all(x in cert.vertex_cover or y in cert.vertex_cover
               for (x, y) in violated_pairs(f).tolist())
    assert {x for x in range(128) if cert.repaired.values[x] != f.values[x]} \
        == cert.vertex_cover
    assert cert.epsilon == Fraction(cert.cover_size, 128)
    assert cert.cover_size == mvc_branch_bound(f)
    # edgeless DAGs: n(n-1)/2 bounds the pairs, 1448 is the largest n admitted
    for n in (1024, 1448):
        edgeless = ValuedFunction(PosetDomain("dag", n=n), (0,) * n)
        assert exact_distance(edgeless).epsilon == 0
    # a monotone input gets its zero certificate from the cover edges alone
    assert exact_distance(ValuedFunction(PosetDomain("dag", n=1449), (1,) * 1449)).epsilon == 0
    over = PosetDomain("dag", n=1449, edges=[(0, 1)])
    with pytest.raises(DomainSizeError, match="1049076 comparable pairs"):
        exact_distance(ValuedFunction(over, (1,) + (0,) * 1448))
    assert over._up is None  # refused before any mask was built


def counting_solves(monkeypatch):
    """Record every function `DistanceCertificate.of_all` solves; `of` is
    its batch of one."""
    solved = []
    solve = DistanceCertificate.of_all.__func__

    def recording(cls, fs):
        solved.extend(fs)
        return solve(cls, fs)

    monkeypatch.setattr(DistanceCertificate, "of_all", classmethod(recording))
    return solved


def test_exact_distance_is_solved_once_per_function(monkeypatch):
    solved = counting_solves(monkeypatch)
    f = random_function(hypercube(5), 4, 7)
    cert = exact_distance(f)
    assert exact_distance(f) is cert
    assert solved == [f]
    # an equal function is a new object with its own cache
    g = ValuedFunction(f.domain, f.values)
    assert exact_distance(g) == cert and exact_distance(g) is not cert
    assert len(solved) == 2


def test_verify_instance_solves_f_once(monkeypatch):
    """The instance, its decomposition certificate and its edge bound all
    read one solve of f; each Boolean part is solved once as well."""
    solved = counting_solves(monkeypatch)
    d, r, master, index = 5, 4, 3, 0
    row = _verify_instance((d, r, master, index, 2, 2))
    assert row["ok"] and not row["monotone"]
    f = random_function(hypercube(d), r, derive_seed(master, index))
    assert [g.values for g in solved].count(f.values) == 1
    parts = solved[1:]
    assert parts and all(g.is_boolean() for g in parts)
    assert len({id(g) for g in parts}) == len(parts)


def batch_domain(spec):
    kind, size, seed = spec
    if kind == "cube":
        return PosetDomain("hypercube", d=size)
    rng = random.Random(seed)
    order = list(range(size))
    rng.shuffle(order)
    edges = {(order[a], order[b]) for a, b in
             (sorted(rng.sample(range(size), 2)) for _ in range(seed * size))}
    return PosetDomain("dag", n=size, edges=edges)


BATCH_DOMAINS = [("cube", 1, 0), ("cube", 3, 0), ("cube", 5, 0),
                 ("dag", 7, 2), ("dag", 40, 3), ("dag", 1, 0), ("dag", 6, 0)]


@pytest.mark.parametrize("spec", BATCH_DOMAINS, ids=lambda s: "-".join(map(str, s)))
@pytest.mark.parametrize("chunk", [None, 1, 37, 500])
def test_batch_solve_matches_single_solves(spec, chunk, monkeypatch):
    """Monotone, non-monotone, constant, Boolean and mixed int/float rows
    solved as one stack give each row's own certificate, field by field,
    also when the stack is split into chunks of a few rows."""
    domain = batch_domain(spec)
    n = domain.n
    values = [(1,) * n, tuple(range(n)), tuple(range(n, 0, -1)),
              random_monotone(domain, 3, 1).values]
    rng = random.Random(n)
    for _ in range(6):
        values.append(tuple(rng.choice([0, 1, 1.0, 2, 2.5, 3]) for _ in range(n)))
        values.append(tuple(rng.choice([0, 1]) for _ in range(n)))
    singles = [DistanceCertificate.of(ValuedFunction(domain, v)) for v in values]
    if chunk is not None:
        monkeypatch.setattr(poset, "PAIR_CHUNK", chunk)
    batch = DistanceCertificate.of_all([ValuedFunction(domain, v) for v in values])
    assert len(batch) == len(values)
    for v, one, many in zip(values, singles, batch):
        assert many.epsilon == one.epsilon and many.vertex_cover == one.vertex_cover
        assert [repr(x) for x in many.repaired.values] == [repr(x) for x in one.repaired.values]
        assert many.repaired.values == v if not one.vertex_cover else is_monotone(many.repaired)
        if n <= 20:
            f = ValuedFunction(domain, v)
            assert many.cover_size == exact_distance_bruteforce(f)


def test_exact_distances_caches_each_certificate(monkeypatch):
    """Unsolved functions are solved in one batch and cached; solved ones
    are read from their cache."""
    domain = hypercube(4)
    fs = [random_function(domain, r, seed) for r, seed in ((2, 1), (3, 2), (4, 3))]
    first = exact_distance(fs[0])
    solved = counting_solves(monkeypatch)
    certs = exact_distances(fs)
    assert solved == fs[1:]
    assert certs[0] is first and all(f.exact_distance is c for f, c in zip(fs, certs))
    assert exact_distances(fs) == certs and solved == fs[1:]
    assert exact_distances([]) == []
    with pytest.raises(ValueError, match="one domain"):
        DistanceCertificate.of_all([fs[0], anti_dictator(3)])


def test_cover_certifies_violations():
    for seed in range(15):
        f = random_function(hypercube(4), 4, 500 + seed)
        cert = exact_distance(f)
        for (x, y) in violated_pairs(f).tolist():
            assert x in cert.vertex_cover or y in cert.vertex_cover


def test_matching_sandwich():
    # any maximal matching M of the violation graph: |M| <= cover <= 2|M|
    for seed in range(25):
        f = random_function(hypercube(5), 5, seed)
        pairs = violated_pairs(f).tolist()
        used = set()
        maximal = 0
        for (x, y) in pairs:
            if x not in used and y not in used:
                used.update((x, y))
                maximal += 1
        cover = exact_distance(f).cover_size
        assert maximal <= cover <= 2 * maximal


def test_enumerate_matchings_examples():
    assert enumerate_matchings_check(random_monotone(hypercube(3), 3, 1)) == (0, 0)
    assert enumerate_matchings_check(ValuedFunction(hypercube(1), (2, 1))) == (1, 1)
    f = ValuedFunction(hypercube(2), (2, 0, 1, 1))
    assert enumerate_matchings_check(f) == (2, 1)


def test_enumerate_matchings_cap():
    with pytest.raises(DomainSizeError):
        enumerate_matchings_check(random_function(hypercube(5), 3, 0))


def test_worst_coloring_single_edge():
    f = ValuedFunction(hypercube(1), (1, 0))
    col, val = worst_coloring(f, mode="exhaustive")
    assert val == pytest.approx(0.5)


def test_worst_coloring_greedy_vs_exhaustive():
    for seed in range(8):
        f = random_function(hypercube(3), 3, seed)
        if violation_profile(f).num_violated > 12:
            continue
        _, exh = worst_coloring(f, mode="exhaustive")
        _, grd = worst_coloring(f, mode="greedy", restarts=4, seed=seed)
        assert grd >= exh - 1e-12


def test_worst_coloring_anti_dictator():
    _, val = worst_coloring(anti_dictator(3), mode="exhaustive")
    assert val > 0
    # robust inequality: even the worst coloring keeps a positive share of eps
    eps = float(exact_distance(anti_dictator(3)).epsilon)
    assert val >= 0.2 * eps  # observed constant, recorded not asserted from theory


def test_worst_coloring_cap():
    f = anti_dictator(6)  # 32 violated edges
    with pytest.raises(DomainSizeError):
        worst_coloring(f, mode="exhaustive")


def test_median_threshold_examples():
    const = ValuedFunction(hypercube(2), (4, 4, 4, 4))
    res = median_threshold(const)
    assert len(set(res.h.values)) == 1

    balanced = ValuedFunction(hypercube(2), (0, 1, 1, 0))
    res = median_threshold(balanced)
    assert sorted(res.h.values) == [0, 0, 1, 1]

    f = ValuedFunction(hypercube(2), (1, 2, 2, 3))
    res = median_threshold(f)
    assert res.median == 2 and res.case == 2
    assert res.h.values == (0, 1, 1, 1)


def test_median_threshold_guarantees():
    from monocube.isoperimetry import dist_to_const_fraction, violation_profile
    for seed in range(60):
        f = random_function(hypercube(5), 6, seed)
        res = median_threshold(f)
        assert dist_to_const_fraction(res.h) >= dist_to_const_fraction(f) / 2
        pf = violation_profile(f)
        ph = violation_profile(res.h)
        for x in range(f.domain.n):
            assert ph.undirected_counts[x] <= pf.undirected_counts[x]
        assert undirected_objective(res.h) <= undirected_objective(f) + 1e-12


def test_boolean_variance():
    h = ValuedFunction(hypercube(2), (0, 1, 1, 1))
    assert boolean_variance(h) == Fraction(3, 16)
    with pytest.raises(ValueError):
        boolean_variance(ValuedFunction(hypercube(1), (1, 2)))


def test_exact_distance_keeps_recursion_limit():
    f = threshold(random_function(hypercube(10), 2, 5), 1)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert exact_distance(f).cover_size > 0
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(saved)


def scan_repair(f, cover):
    """The repair by its definition, one kept vertex at a time: g(z) is the
    first largest f(x) over kept x <= z in vertex order, else the first
    smallest kept value."""
    kept = [x for x in range(f.n) if x not in cover]
    fallback = min(f.values[x] for x in kept)
    out = []
    for z in range(f.n):
        best = None
        for x in kept:
            if f.domain.reaches(x, z) and (best is None or f.values[x] > best):
                best = f.values[x]
        out.append(fallback if best is None else best)
    return out


@st.composite
def function_and_cover(draw):
    """Values where 1 and 1.0 (and 2 and 2.0) tie, on a hypercube or a
    random DAG, with any cover that keeps at least one vertex."""
    if draw(st.booleans()):
        domain = hypercube(draw(st.integers(1, 5)))
    else:
        n = draw(st.integers(1, 12))
        order = draw(st.permutations(range(n)))
        picks = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3 * n))
        domain = PosetDomain("dag", n=n, edges=[(order[min(a, b)], order[max(a, b)])
                                                for a, b in picks if a != b])
    values = draw(st.lists(st.sampled_from([0, 1, 1.0, 2, 2.0, 3]),
                           min_size=domain.n, max_size=domain.n))
    cover = draw(st.sets(st.integers(0, domain.n - 1), max_size=domain.n - 1))
    return ValuedFunction(domain, tuple(values)), frozenset(cover)


@given(function_and_cover())
@settings(max_examples=200, deadline=None)
def test_repair_matches_its_definition(case):
    f, cover = case
    expected = scan_repair(f, cover)
    source = _repair(f.domain, f.ranks[None], [cover])[0]
    assert [repr(f.values[x]) for x in source.tolist()] == [repr(v) for v in expected]
    cert = exact_distance(f)
    if cert.vertex_cover:
        assert [repr(v) for v in cert.repaired.values] \
            == [repr(v) for v in scan_repair(f, cert.vertex_cover)]


@st.composite
def function_on_any_domain(draw):
    """Small-integer values on a hypercube (d = 1..6) or a random DAG,
    edgeless DAGs and n = 1 included."""
    if draw(st.booleans()):
        domain = hypercube(draw(st.integers(1, 6)))
    else:
        n = draw(st.integers(1, 12))
        order = draw(st.permutations(range(n)))
        picks = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3 * n))
        domain = PosetDomain("dag", n=n, edges=[(order[min(a, b)], order[max(a, b)])
                                                for a, b in picks if a != b])
    values = draw(st.lists(st.sampled_from([0, 1, 1.0, 2, 3]),
                           min_size=domain.n, max_size=domain.n))
    return ValuedFunction(domain, tuple(values))


@given(function_on_any_domain())
@example(ValuedFunction(PosetDomain("dag", n=1), (2,)))
@example(ValuedFunction(PosetDomain("dag", n=4), (3, 2, 1, 0)))
@example(ValuedFunction(hypercube(1), (1, 0)))
@settings(max_examples=200, deadline=None)
def test_violated_pairs_matches_its_definition(f):
    """The pair arrays list exactly the violated comparable pairs, in the
    (x, y) order of the O(n^2) scan."""
    n = f.domain.n
    expected = [(x, y) for x in range(n) for y in range(n)
                if x != y and f.values[x] > f.values[y] and f.domain.reaches(x, y)]
    assert list(map(tuple, violated_pairs(f).tolist())) == expected
