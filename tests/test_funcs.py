import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import RecordingOracle
from monocube.funcs import (FunctionFormatError, ValuedFunction, anti_dictator,
                            canonical_rank, random_function, random_monotone,
                            read_function, weight_function, write_function)
from monocube.decomposition import decompose
from monocube.hard_instances import LowerBoundSpec, lower_bound_function
from monocube.isoperimetry import violation_profile
from monocube.oracles import exact_distance, is_monotone
from monocube.poset import DomainSizeError, PosetDomain, hypercube
from proof_checks import threshold, violated_edges


def test_length_and_finiteness_checked():
    with pytest.raises(ValueError, match=r"^3 values for a domain with 4 vertices$"):
        ValuedFunction(hypercube(2), (1, 2, 3))
    with pytest.raises(ValueError):
        ValuedFunction(hypercube(1), (1.0, float("inf")))
    # a float subclass is a float
    assert ValuedFunction(hypercube(1), (np.float64(0.5), 1)).levels == (0.5, 1)


def test_validation_names_the_first_offender(tmp_path):
    nan, inf = float("nan"), float("inf")
    for values, bad in (((1, 2.5, nan, inf), "nan"), ((inf, 1.0, nan, 0), "inf"),
                        ((np.float64(1), 3, np.float64(-inf), 1), "np.float64(-inf)")):
        with pytest.raises(ValueError, match=rf"^non-finite value {re.escape(bad)}$"):
            ValuedFunction(hypercube(2), values)
    # ints are finite at any size and finite floats pass; a bool is not a
    # number of the file format, and is refused before any finiteness fault
    ValuedFunction(hypercube(2), (10**400, 1, 0.5, -10**400))
    with pytest.raises(ValueError, match=r"^non-numeric value True$"):
        ValuedFunction(hypercube(2), (10**400, True, nan, -10**400))
    path = tmp_path / "f.json"
    path.write_text('{"d": 2, "values": [1, 2.0, true, "a"]}')
    with pytest.raises(FunctionFormatError, match="non-numeric value True$"):
        read_function(str(path))
    path.write_text('{"d": 1, "values": [1, NaN]}')
    with pytest.raises(FunctionFormatError, match="non-finite value nan$"):
        read_function(str(path))


@pytest.mark.parametrize("bad, shown", [(True, "True"), ("a", "'a'"), (None, "None"),
                                        (np.int64(3), "np.int64(3)")],
                         ids=["bool", "str", "None", "numpy-int64"])
def test_the_constructor_refuses_a_value_that_is_not_a_number(bad, shown):
    # the first offender is named, before a non-finite value that precedes it
    with pytest.raises(ValueError) as exc:
        ValuedFunction(hypercube(2), (float("inf"), 1, bad, "b"))
    assert str(exc.value) == f"non-numeric value {shown}"


def test_image_size_examples():
    assert len(ValuedFunction(hypercube(2), (5, 5, 5, 5)).levels) == 1
    assert len(anti_dictator(4).levels) == 2
    assert len(weight_function(3).levels) == 4


def test_canonical_rank_examples():
    f = ValuedFunction(hypercube(2), (3.5, -1, 3.5, 7))
    assert canonical_rank(f).values == (2, 1, 2, 3)
    g = ValuedFunction(hypercube(2), (2, 1, 3, 4))
    assert canonical_rank(g).values == (2, 1, 3, 4)


def test_canonical_rank_preserves_violations():
    f = random_function(hypercube(4), 6, 99)
    before = violated_edges(violation_profile(f))
    after = violated_edges(violation_profile(canonical_rank(f)))
    assert before == after


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32),
                min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_canonical_rank_preserves_comparisons(values):
    f = ValuedFunction(hypercube(2), tuple(values))
    g = canonical_rank(f)
    for x in range(4):
        for y in range(4):
            want = (f.values[x] > f.values[y]) - (f.values[x] < f.values[y])
            got = (g.values[x] > g.values[y]) - (g.values[x] < g.values[y])
            assert want == got


def _old_canonical_rank(values):
    """The values relabelled 1..r through a dict over their sorted set."""
    rank = {v: i + 1 for i, v in enumerate(sorted(set(values)))}
    return tuple(rank[v] for v in values)


@pytest.mark.parametrize("d,r,seed", [(d, r, seed) for d in (1, 3, 6, 9)
                                      for r in (1, 2, 5, 300) for seed in (0, 11)])
def test_generators_rank_as_the_value_constructor(d, r, seed):
    """Each generator, and `canonical_rank` of each, gives the same values
    (by repr) and the same levels and ranks (dtype included) as the value
    constructor on the table the generator describes, tabulated here in
    Python."""
    dom = hypercube(d)
    dag = PosetDomain("dag", n=7, edges=[(0, 1), (1, 2), (0, 3), (3, 4), (5, 6)])
    n = dom.n
    draws = [int(v) for v in np.random.default_rng(seed).integers(1, r + 1, size=n)]
    base = np.random.default_rng(seed).integers(1, r + 1, size=n)
    dag_base = np.random.default_rng(seed).integers(1, r + 1, size=dag.n)
    cases = [(random_function(dom, r, seed), draws),
             (random_monotone(dom, r, seed), dom.down_max(base).tolist()),
             (random_function(dag, r, seed),
              [int(v) for v in np.random.default_rng(seed).integers(1, r + 1, size=dag.n)]),
             (random_monotone(dag, r, seed), dag.down_max(dag_base).tolist()),
             (anti_dictator(d), [1 - (x & 1) for x in range(n)]),
             (weight_function(d), [x.bit_count() for x in range(n)])]
    if d in (1, 9):
        for width in (1, 2 * math.isqrt(d) + 1):
            spec = LowerBoundSpec(d, width, 1 + seed % d)
            cases.append((lower_bound_function(spec), [spec.value_at(x) for x in range(n)]))
    cases += [(canonical_rank(f), _old_canonical_rank(values)) for f, values in cases]
    for f, values in cases:
        ref = ValuedFunction(f.domain, tuple(values))
        assert list(map(repr, f.values)) == list(map(repr, ref.values))
        assert f.levels == ref.levels and list(map(repr, f.levels)) == list(map(repr, ref.levels))
        assert f.ranks.dtype == ref.ranks.dtype and np.array_equal(f.ranks, ref.ranks)
        assert f.ranks.dtype == np.min_scalar_type(len(f.levels) - 1)  # the narrowest


def test_every_function_holds_read_only_ranks(tmp_path):
    f = random_function(hypercube(4), 5, 1)
    path = str(tmp_path / "f.json")
    write_function(f, path)
    parts = [fi for (fi, _) in decompose(f).components]
    cert = exact_distance(f)
    functions = [f, ValuedFunction(hypercube(2), (1, 2.0, 2, -0.0)),
                 random_monotone(hypercube(3), 4, 2), anti_dictator(3), weight_function(3),
                 lower_bound_function(LowerBoundSpec(9, 7, 1)), canonical_rank(f),
                 read_function(path), cert.repaired, *parts]
    assert parts
    for g in functions:
        assert not g.ranks.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            g.ranks[0] = 0
    assert not cert.source.flags.writeable and cert.source.dtype == np.uint8


def test_threshold_examples():
    f = ValuedFunction(hypercube(2), (1, 4, 2, 3))
    assert threshold(f, 4).values == (0, 0, 0, 0)
    assert threshold(f, 0).values == (1, 1, 1, 1)
    d1 = ValuedFunction(hypercube(1), (2, 1))
    h = threshold(d1, 1)
    assert h.values == (1, 0)
    assert violated_edges(violation_profile(h)) == ((0, 1),)


def test_threshold_violations_contained():
    f = random_function(hypercube(5), 6, 3)
    base = set(violated_edges(violation_profile(f)))
    for t in sorted(set(f.values)):
        assert set(violated_edges(violation_profile(threshold(f, t)))) <= base


def test_random_function_determinism():
    dom = hypercube(5)
    assert random_function(dom, 4, 11).values == random_function(dom, 4, 11).values
    assert random_function(dom, 1, 0).values == tuple([1] * 32)


def test_random_function_frequencies():
    # 10^4 samples of 16 values each at r=3: per-value totals within
    # 5 sigma of N/3
    dom = hypercube(4)
    counts = {1: 0, 2: 0, 3: 0}
    samples = 10_000
    for seed in range(samples // 100):
        f = random_function(dom, 3, seed)
        for v in f.values:
            counts[v] += 1
    total = (samples // 100) * 16
    sigma = math.sqrt(total * (1 / 3) * (2 / 3))
    for v in (1, 2, 3):
        assert abs(counts[v] - total / 3) < 5 * sigma


def test_random_monotone_is_monotone():
    for seed in range(100):
        f = random_monotone(hypercube(5), 4, seed)
        assert is_monotone(f)
        assert violation_profile(f).num_violated == 0
    assert random_monotone(hypercube(3), 1, 5).values == tuple([1] * 8)


def test_random_monotone_on_dag():
    dom = PosetDomain("dag", n=5, edges=[(0, 1), (1, 2), (0, 3), (3, 4)])
    for seed in range(20):
        assert is_monotone(random_monotone(dom, 5, seed))


@pytest.mark.parametrize("generate", [lambda: random_function(hypercube(21), 2, 0),
                                      lambda: random_monotone(hypercube(21), 2, 0),
                                      lambda: anti_dictator(21),
                                      lambda: weight_function(21)],
                         ids=["random_function", "random_monotone", "anti_dictator",
                              "weight_function"])
def test_generators_refuse_a_table_over_the_budget(generate):
    with pytest.raises(DomainSizeError, match="value-table budget"):
        generate()


def test_roundtrip_hypercube(tmp_path):
    f = random_function(hypercube(3), 5, 2)
    path = tmp_path / "f.json"
    write_function(f, str(path))
    g = read_function(str(path))
    assert g.values == f.values
    assert g.domain.kind == "hypercube" and g.domain.d == 3


def test_roundtrip_dag(tmp_path):
    dom = PosetDomain("dag", n=4, edges=[(0, 1), (1, 3), (0, 2)])
    f = random_function(dom, 3, 8)
    path = tmp_path / "g.json"
    write_function(f, str(path))
    g = read_function(str(path))
    assert g.values == f.values
    assert g.domain.kind == "dag"
    assert set(g.domain.cover_edges()) == set(dom.cover_edges())


def test_read_function_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"d": 3, "values": [1] * 7}))
    with pytest.raises(FunctionFormatError):
        read_function(str(p))
    p.write_text(json.dumps({"d": 1, "values": [1, "x"]}))
    with pytest.raises(FunctionFormatError):
        read_function(str(p))
    p.write_text("{not json")
    with pytest.raises(FunctionFormatError):
        read_function(str(p))


def test_counting_oracle_exact():
    f = random_function(hypercube(3), 4, 0)
    oracle = RecordingOracle(f)
    for k, x in enumerate([0, 3, 3, 7, 1]):
        assert oracle.lookup_ranks(np.array(x)) == f.ranks[x]
        assert oracle.query_count == k + 1
    assert oracle.log == [0, 3, 3, 7, 1]
    block = np.array([[2, 5], [2, 0]])
    assert oracle.lookup_ranks(block).tolist() == [[f.ranks[2], f.ranks[5]],
                                                   [f.ranks[2], f.ranks[0]]]
    assert oracle.query_count == 9
    assert oracle.log == [0, 3, 3, 7, 1, 2, 5, 2, 0]


def test_read_function_shares_the_hypercube(tmp_path):
    for name, seed in (("a.json", 1), ("b.json", 2)):
        write_function(random_function(hypercube(4), 3, seed), str(tmp_path / name))
    a = read_function(str(tmp_path / "a.json"))
    b = read_function(str(tmp_path / "b.json"))
    assert a.domain is b.domain is hypercube(4)
