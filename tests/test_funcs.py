import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monocube.funcs import (CountingOracle, FunctionFormatError, ValuedFunction,
                            anti_dictator, canonical_rank, image_size,
                            random_function, random_monotone, read_function,
                            threshold, weight_function, write_function)
from monocube.isoperimetry import violation_profile
from monocube.oracles import is_monotone
from monocube.poset import PosetDomain, hypercube


def test_length_and_finiteness_checked():
    with pytest.raises(ValueError):
        ValuedFunction(hypercube(2), (1, 2, 3))
    with pytest.raises(ValueError):
        ValuedFunction(hypercube(1), (1.0, float("inf")))


def test_validation_names_the_first_offender(tmp_path):
    nan, inf = float("nan"), float("inf")
    for values, bad in (((1, 2.5, nan, inf), "nan"), ((inf, 1.0, nan, 0), "inf"),
                        ((np.float64(1), 3, np.float64(-inf), 1), "np.float64(-inf)")):
        with pytest.raises(ValueError, match=rf"^non-finite value {re.escape(bad)}$"):
            ValuedFunction(hypercube(2), values)
    # ints are finite at any size, bools are ints, and finite floats pass
    ValuedFunction(hypercube(2), (10**400, True, 0.5, -10**400))
    path = tmp_path / "f.json"
    path.write_text('{"d": 2, "values": [1, 2.0, true, "a"]}')
    with pytest.raises(FunctionFormatError, match="non-numeric value True$"):
        read_function(str(path))
    path.write_text('{"d": 1, "values": [1, NaN]}')
    with pytest.raises(FunctionFormatError, match="non-finite value nan$"):
        read_function(str(path))


def test_image_size_examples():
    assert image_size(ValuedFunction(hypercube(2), (5, 5, 5, 5))) == 1
    assert image_size(anti_dictator(4)) == 2
    assert image_size(weight_function(3)) == 4


def test_canonical_rank_examples():
    f = ValuedFunction(hypercube(2), (3.5, -1, 3.5, 7))
    assert canonical_rank(f).values == (2, 1, 2, 3)
    g = ValuedFunction(hypercube(2), (2, 1, 3, 4))
    assert canonical_rank(g).values == (2, 1, 3, 4)


def test_canonical_rank_preserves_violations():
    f = random_function(hypercube(4), 6, 99)
    before = violation_profile(f).violated_edges
    after = violation_profile(canonical_rank(f)).violated_edges
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


def test_threshold_examples():
    f = ValuedFunction(hypercube(2), (1, 4, 2, 3))
    assert threshold(f, 4).values == (0, 0, 0, 0)
    assert threshold(f, 0).values == (1, 1, 1, 1)
    d1 = ValuedFunction(hypercube(1), (2, 1))
    h = threshold(d1, 1)
    assert h.values == (1, 0)
    assert violation_profile(h).violated_edges == ((0, 1),)


def test_threshold_violations_contained():
    f = random_function(hypercube(5), 6, 3)
    base = set(violation_profile(f).violated_edges)
    for t in sorted(set(f.values)):
        assert set(violation_profile(threshold(f, t)).violated_edges) <= base


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
    oracle = CountingOracle(f, record=True)
    for k, x in enumerate([0, 3, 3, 7, 1]):
        assert oracle.lookup_ranks(np.array(x)) == f.ranks[x]
        assert oracle.query_count == k + 1
    assert oracle.log == [0, 3, 3, 7, 1]
    block = np.array([[2, 5], [2, 0]])
    assert oracle.lookup_ranks(block).tolist() == [[f.ranks[2], f.ranks[5]],
                                                   [f.ranks[2], f.ranks[0]]]
    assert oracle.query_count == 9
    assert oracle.log == [0, 3, 3, 7, 1, 2, 5, 2, 0]
    oracle.reset()
    assert oracle.query_count == 0 and oracle.log == []


def test_read_function_shares_the_hypercube(tmp_path):
    for name, seed in (("a.json", 1), ("b.json", 2)):
        write_function(random_function(hypercube(4), 3, seed), str(tmp_path / name))
    a = read_function(str(tmp_path / "a.json"))
    b = read_function(str(tmp_path / "b.json"))
    assert a.domain is b.domain is hypercube(4)
