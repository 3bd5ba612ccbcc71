import random

import pytest
from hypothesis import given, settings, strategies as st

from monocube.hard_instances import (LowerBoundSpec, cap_set,
                                     lower_bound_function, violation_witness_count,
                                     witness_matching, witness_matching_size)
from monocube.oracles import exact_distance, violated_pairs


def test_spec_validation():
    LowerBoundSpec(9, 7, 1)
    LowerBoundSpec(25, 11, 25)
    with pytest.raises(ValueError):
        LowerBoundSpec(8, 7, 1)  # even
    with pytest.raises(ValueError):
        LowerBoundSpec(15, 7, 1)  # odd but not a square
    with pytest.raises(ValueError):
        LowerBoundSpec(9, 5, 1)  # 5 does not divide 7
    with pytest.raises(ValueError):
        LowerBoundSpec(9, 7, 10)  # coordinate out of range


def test_block_geometry_d9():
    spec = LowerBoundSpec(9, 7, 1)
    assert spec.width == 1
    assert spec.band_low == 1 and (spec.d - 1) // 2 + spec.sqrt_d == 7
    assert list(spec.dip_levels) == [1, 2, 3, 4, 5, 6]
    assert [spec.block_index(l) for l in spec.dip_levels] == [1, 2, 3, 4, 5, 6]


def test_value_examples_d9():
    spec = LowerBoundSpec(9, 7, 1)
    f = lower_bound_function(spec)
    x_high = 0b1111111110  # coordinate 1 clear, |x_{-1}| = 8 (d=9 -> bits 0..8)
    x_high = sum(1 << i for i in range(1, 9))  # bits 2..9 set: |x_{-1}| = 8
    assert f.values[x_high] == 7
    assert f.values[0] == 1
    # lowest dip level with x_1 = 0: one set bit outside coordinate 1
    x_low_block = 1 << 3
    assert f.values[x_low_block] == 2


def test_image_inside_declared_range():
    for i in (1, 5, 9):
        f = lower_bound_function(LowerBoundSpec(9, 7, i))
        assert set(f.values) <= set(range(1, 8))
    assert len(lower_bound_function(LowerBoundSpec(9, 7, 1)).levels) == 7
    # d = 25 sampled pointwise (the full table is 2^25 entries)
    spec = LowerBoundSpec(25, 11, 5)
    rng = random.Random(3)
    values = {spec.value_at(rng.getrandbits(25)) for _ in range(20000)}
    assert values <= set(range(1, 12))


def test_witness_matching_fully_violated():
    spec = LowerBoundSpec(9, 7, 3)
    f = lower_bound_function(spec)
    M = witness_matching(spec)
    assert len(M) == witness_matching_size(spec) == 246
    bit = 1 << (spec.i - 1)
    for (x, y) in M.pairs:
        assert y == x | bit and not x & bit
        assert f.values[x] > f.values[y]
    assert len(M) / 2 ** spec.d >= 0.3


def test_violations_are_local_exhaustive_d9():
    # every violated comparable pair differs on at most w coordinates,
    # one of which is i -- checked for every family member at d = 9
    spec_d, spec_r = 9, 7
    for i in range(1, spec_d + 1):
        spec = LowerBoundSpec(spec_d, spec_r, i)
        f = lower_bound_function(spec)
        w = spec.width
        for (x, y) in violated_pairs(f).tolist():
            diff = x ^ y
            assert diff.bit_count() <= w
            assert diff & (1 << (i - 1))


def test_matching_lower_bound_on_distance():
    # disjoint violated pairs force a cover at least as large
    spec = LowerBoundSpec(9, 7, 1)
    M = witness_matching(spec)
    eps_lb = len(M) / 2 ** (spec.d + 1)
    assert eps_lb >= 0.15
    # each pair of M needs its own change, so eps >= |M| / 2^d on every member
    for r in (1, 7):
        for i in range(1, 10):
            spec = LowerBoundSpec(9, r, i)
            assert exact_distance(lower_bound_function(spec)).cover_size >= \
                witness_matching_size(spec)


def test_cap_set_examples():
    assert cap_set([5], 2) == set()
    assert cap_set([0b000, 0b111], 2) == {1, 2}
    assert cap_set([0b000, 0b111], 5) == {1, 2, 3}
    assert cap_set([0b100, 0b010, 0b001], 1) == {1, 2}


@given(st.lists(st.integers(min_value=0, max_value=2 ** 25 - 1),
                min_size=1, max_size=12),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=300, deadline=None)
def test_cap_set_bound(points, c):
    assert len(cap_set(points, c)) <= c * (len(set(points)) - 1)


def test_violation_witness_count_examples():
    spec = LowerBoundSpec(9, 7, 1)
    assert violation_witness_count([5], spec) == 0
    # the two endpoints of a dip edge of member i witness that member
    M = witness_matching(LowerBoundSpec(9, 7, 4))
    x, y = M.pairs[len(M.pairs) // 2]
    assert violation_witness_count([x, y], spec) >= 1


def test_violation_witness_count_random():
    spec = LowerBoundSpec(9, 7, 1)
    rng = random.Random(11)
    for _ in range(50):
        Q = [rng.randrange(512) for _ in range(20)]
        count = violation_witness_count(Q, spec)
        assert count < spec.width * len(Q)


def test_d25_construction_sane():
    # 2^25 points is too large to tabulate; evaluate pointwise instead
    spec = LowerBoundSpec(25, 11, 13)
    assert spec.width == 1
    assert witness_matching_size(spec) / 2 ** 25 >= 0.3
    bit = 1 << (spec.i - 1)
    rng = random.Random(0)
    checked = 0
    while checked < 200:
        x = rng.getrandbits(25) & ~bit
        if x.bit_count() not in spec.dip_levels:
            continue
        assert spec.value_at(x) > spec.value_at(x | bit)
        checked += 1
    # plateau values on both sides
    assert spec.value_at((1 << 25) - 1) == 11
    assert spec.value_at(0) == 1
