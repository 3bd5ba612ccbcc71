import math
import random
from fractions import Fraction

import pytest

from monocube.decomposition import (Matching, decompose,
                                    decomposition_dump, edge_bound_check,
                                    max_weight_min_card_matching, merge_pairs,
                                    robust_chain_check, verify_decomposition)
from monocube.funcs import (ValuedFunction, anti_dictator, canonical_rank,
                            random_function, random_monotone)
from monocube.isoperimetry import EdgeColoring, robust_objective, violation_profile
from monocube.oracles import enumerate_matchings_check, exact_distance, is_monotone
from monocube import poset
from monocube.poset import hypercube
from poset_oracles import conflict, position_relative_to


def matching_weight(f, matching):
    ranked = canonical_rank(f)
    return sum(ranked.values[s] - ranked.values[t] for (s, t) in matching.pairs)


def test_matching_trivia():
    assert max_weight_min_card_matching(random_monotone(hypercube(3), 4, 0)).pairs == ()
    m = max_weight_min_card_matching(ValuedFunction(hypercube(1), (2, 1)))
    assert m.pairs == ((0, 1),)


def test_matching_spec_example():
    f = ValuedFunction(hypercube(2), (2, 0, 1, 1))
    m = max_weight_min_card_matching(f)
    assert m.pairs == ((0, 1),)
    assert matching_weight(f, m) == 2


@pytest.mark.parametrize("seed", range(50))
def test_matching_optimality_small(seed):
    rng = random.Random(seed)
    d = rng.choice([2, 3])
    f = random_function(hypercube(d), rng.choice([2, 3, 4, 6]), seed)
    m = max_weight_min_card_matching(f)
    best_w, best_c = enumerate_matchings_check(f)
    assert (matching_weight(f, m), len(m)) == (best_w, best_c)


def test_matching_pairs_all_violated():
    for seed in range(20):
        f = random_function(hypercube(5), 5, seed)
        m = max_weight_min_card_matching(f)
        for (s, t) in m.pairs:
            assert f.domain.reaches(s, t) and f.values[s] > f.values[t]


def test_matching_maximal_bound():
    # |M| >= eps(f) * n / 2 since a max-weight matching is maximal
    for seed in range(20):
        f = random_function(hypercube(4), 5, seed)
        m = max_weight_min_card_matching(f)
        eps = exact_distance(f).epsilon
        assert Fraction(len(m)) >= eps * f.domain.n / 2


def test_matching_validation():
    with pytest.raises(ValueError):
        Matching(((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        Matching(((0, 0),))


def test_conflict_examples(diamond_dag):
    dom = diamond_dag
    assert conflict(dom, (frozenset({0}), frozenset({4})),
                    (frozenset({1}), frozenset({5})))  # both sweep through m=3
    assert not conflict(dom, (frozenset({0}), frozenset({4})),
                        (frozenset({2}), frozenset({6})))
    with pytest.raises(ValueError):
        conflict(dom, (frozenset({0}), frozenset({4})),
                 (frozenset({0}), frozenset({5})))


def test_merge_pairs_figure_case(diamond_dag):
    # pairs (a,x), (b,y) conflict at the shared midpoint; (c,z) stays alone
    m = Matching(((0, 4), (1, 5), (2, 6)))
    part = merge_pairs(diamond_dag, m)
    blocks = {(tuple(sorted(S)), tuple(sorted(T))) for (S, T) in part.blocks}
    assert blocks == {((0, 1), (4, 5)), ((2,), (6,))}


def test_merge_pairs_trivia(diamond_dag):
    single = merge_pairs(diamond_dag, Matching(((0, 4),)))
    assert len(single) == 1
    disjoint = merge_pairs(diamond_dag, Matching(((0, 4), (2, 6))))
    assert len(disjoint) == 2


def test_merge_termination_and_disjointness():
    for seed in range(25):
        f = random_function(hypercube(5), 6, seed)
        m = max_weight_min_card_matching(f)
        part = merge_pairs(f.domain, m)
        assert 0 < len(part) <= len(m) or len(m) == 0
        masks = [f.domain.sweeping_graph(S, T).vertex_mask for (S, T) in part.blocks]
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                assert not masks[i] & masks[j]


def test_decompose_non_boolean_d7():
    # the matching and the certificate's exact solves share one pair budget
    dec = decompose(random_function(hypercube(7), 5, 0))
    assert dec.certificate.all_ok


def test_components_d1():
    f = ValuedFunction(hypercube(1), (2, 1))
    dec = decompose(f)
    assert dec.k == 1
    fi, graph = dec.components[0]
    assert fi.values == (1, 0)
    assert graph.vertices == {0, 1}


def test_components_source_sink_values():
    for seed in range(15):
        f = random_function(hypercube(4), 5, seed)
        if is_monotone(f):
            continue
        dec = decompose(f, verify=False)
        for (fi, graph) in dec.components:
            for s in graph.source_set:
                assert fi.values[s] == 1
            for t in graph.sink_set:
                assert fi.values[t] == 0


def test_components_above_rule():
    # a vertex strictly above a component's graph gets value 1
    f = random_function(hypercube(4), 4, 3)
    dec = decompose(f, verify=False)
    for (fi, graph) in dec.components:
        for z in range(f.domain.n):
            pos = position_relative_to(f.domain, z, graph)
            if pos == "above":
                assert fi.values[z] == 1
            elif pos in ("below", "neither"):
                assert fi.values[z] == 0


def test_decompose_monotone():
    dec = decompose(random_monotone(hypercube(4), 5, 2))
    assert dec.monotone and dec.k == 0 and dec.certificate is None


def test_decompose_anti_dictator_d2():
    f = anti_dictator(2)
    dec = decompose(f)
    assert dec.certificate.all_ok
    total_parts = sum(dec.certificate.violated_parts)
    assert total_parts <= dec.certificate.violated_f
    assert 2 * dec.certificate.epsilon_sum >= Fraction(1, 2)


def test_lemma_property_of_pairs():
    # every ordered (source, sink) pair within a block is violated by f
    for seed in range(30):
        f = random_function(hypercube(5), 6, 100 + seed)
        if is_monotone(f):
            continue
        dec = decompose(f, verify=False)
        for (S, T) in dec.partition.blocks:
            for s in S:
                for t in T:
                    if f.domain.reaches(s, t):
                        assert f.values[s] > f.values[t]


def test_verify_catches_corruption():
    f = random_function(hypercube(3), 4, 17)
    assert not is_monotone(f)
    dec = decompose(f)
    assert dec.certificate.all_ok
    fi, graph = dec.components[0]
    flipped = list(fi.values)
    s = next(iter(graph.source_set))
    flipped[s] = 0  # a block source must carry value 1
    from monocube.decomposition import Decomposition
    corrupted = Decomposition(
        dec.matching, dec.partition,
        ((ValuedFunction(f.domain, tuple(flipped)), graph),) + dec.components[1:],
        None, False)
    cert = verify_decomposition(f, corrupted)
    assert not cert.all_ok
    assert any(witness for (_, witness) in cert.failures())


def escaped_edge_witness(f, dec):
    """The first part edge outside S_f^- cap E(H_i), scanned part by part:
    the per-part formulation of the violations_contained check."""
    for idx, (fi, graph) in enumerate(dec.components):
        for (x, y) in violation_profile(fi).violated_edges:
            if not (x in graph.vertices and y in graph.vertices and f.values[x] > f.values[y]):
                return f"component {idx}: edge {(x, y)} escapes S_f^- cap E(H_{idx})"
    return ""


@pytest.mark.parametrize("chunk", [None, 1, 100])
def test_violations_contained_names_the_first_escaped_edge(chunk, monkeypatch):
    from monocube.decomposition import Decomposition
    if chunk is not None:
        monkeypatch.setattr(poset, "PAIR_CHUNK", chunk)
    rng = random.Random(8)
    failed = 0
    for seed in range(30):
        f = random_function(hypercube(4), 4, 900 + seed)
        if is_monotone(f):
            continue
        dec = decompose(f, verify=False)
        parts = list(dec.components)
        for idx in rng.sample(range(dec.k), min(2, dec.k)):
            values = tuple(rng.choice((0, 1)) for _ in range(f.n))
            parts[idx] = (ValuedFunction(f.domain, values), parts[idx][1])
        corrupted = Decomposition(dec.matching, dec.partition, tuple(parts), None, False)
        cert = verify_decomposition(f, corrupted)
        (ok, witness), = [(ok, w) for (name, ok, w) in cert.checks
                          if name == "violations_contained"]
        assert witness == escaped_edge_witness(f, corrupted) and ok == (not witness)
        assert list(cert.violated_parts) == [violation_profile(fi).num_violated
                                             for (fi, _) in parts]
        failed += not ok
    assert failed > 10


def test_chain_check_single_edge():
    f = ValuedFunction(hypercube(1), (2, 1))
    col = EdgeColoring.all_red(violation_profile(f))
    rep = robust_chain_check(f, col)
    assert rep.values == (0.5, 0.5, 0.5, 0.5)
    assert rep.ordering_ok and rep.distance_ok


def test_chain_check_monotone():
    f = random_monotone(hypercube(3), 3, 0)
    rep = robust_chain_check(f, EdgeColoring.all_red(violation_profile(f)))
    assert rep.values == (0.0, 0.0, 0.0, 0.0)
    assert rep.ordering_ok and rep.distance_ok


def test_chain_check_rejects_a_part_violating_an_edge_f_does_not():
    f = ValuedFunction(hypercube(2), (1, 0, 1, 1))   # violates (0, 1) only
    dec = decompose(f)
    graph = dec.components[0][1]
    part = ValuedFunction(f.domain, (1, 1, 0, 1))    # violates (0, 2)
    from monocube.decomposition import Decomposition
    corrupted = Decomposition(dec.matching, dec.partition, ((part, graph),),
                              dec.certificate, False)
    with pytest.raises(ValueError):
        robust_chain_check(f, EdgeColoring.all_red(violation_profile(f)), corrupted)


def test_chain_check_random_suite():
    rng = random.Random(0)
    for seed in range(40):
        f = random_function(hypercube(4), 5, 300 + seed)
        if is_monotone(f):
            continue
        col = EdgeColoring.random(violation_profile(f), rng)
        rep = robust_chain_check(f, col)
        assert rep.ordering_ok and rep.distance_ok, rep.detail


def chain_values_per_part(f, col, dec):
    """The chain's four values one mask at a time, counted in Python: the
    per-part formulation the batched check replaced, kept as its reference.
    ``math.sqrt`` and ``np.sqrt`` both round correctly, so the values agree
    bit for bit."""
    profile = violation_profile(f)
    edges = list(zip(profile.lower.tolist(), profile.upper.tolist(), col.red.tolist()))
    n = f.n

    def objective(keep):
        red, blue = [0] * n, [0] * n
        for (x, y, is_red), kept in zip(edges, keep):
            if kept:
                if is_red:
                    red[x] += 1
                else:
                    blue[y] += 1
        return (math.fsum(map(math.sqrt, red)) / n
                + math.fsum(map(math.sqrt, blue)) / n)

    vertex_sets = [graph.vertices for (_, graph) in dec.components]
    inside = [[x in vs and y in vs for (x, y, _) in edges] for vs in vertex_sets]
    inherited = [[fi.values[x] > fi.values[y] for (x, y, _) in edges]
                 for (fi, _) in dec.components]
    union = [any(column) for column in zip(*inside)]
    return (objective([True] * len(edges)), objective(union),
            math.fsum(map(objective, inside)), math.fsum(map(objective, inherited)))


def chain_cases():
    rng = random.Random(5)
    for seed in range(60):
        d, r = rng.randint(1, 6), rng.randint(2, 8)
        yield random_function(hypercube(d), r, 700 + seed)
    yield from (anti_dictator(4), ValuedFunction(hypercube(2), (2, 0, 1, 1)))


@pytest.mark.parametrize("chunk", [None, 1, 37])
def test_chain_values_match_the_per_part_formulation(chunk, monkeypatch, diamond_dag):
    if chunk is not None:
        monkeypatch.setattr(poset, "PAIR_CHUNK", chunk)
    rng = random.Random(6)
    cases = list(chain_cases()) + [ValuedFunction(diamond_dag, (5, 1, 3, 4, 0, 2, 1))]
    checked = 0
    for f in cases:
        if is_monotone(f):
            continue
        dec = decompose(f)
        profile = violation_profile(f)
        for col in (EdgeColoring.random(profile, rng), EdgeColoring.all_red(profile),
                    EdgeColoring.all_blue(profile)):
            rep = robust_chain_check(f, col, dec)
            expected = chain_values_per_part(f, col, dec)
            assert [v.hex() for v in rep.values] == [v.hex() for v in expected]
            assert robust_objective(f, col).hex() == expected[0].hex()
            checked += 1
    assert checked > 100


def test_edge_bound_examples():
    rep = edge_bound_check(anti_dictator(4))
    assert rep.violated == 8 and rep.cover_size == 8
    assert rep.holds and rep.stronger_holds

    mono = random_monotone(hypercube(4), 4, 1)
    rep = edge_bound_check(mono)
    assert rep.violated == 0 and rep.cover_size == 0
    assert rep.holds and rep.stronger_holds


def test_edge_bound_random_suite():
    for seed in range(40):
        f = random_function(hypercube(5), 5, seed)
        rep = edge_bound_check(f)
        assert rep.holds and rep.stronger_holds


def test_dump_shape():
    f = random_function(hypercube(3), 4, 17)
    dec = decompose(f)
    doc = decomposition_dump(f, dec)
    assert doc["k"] == dec.k
    assert doc["certificate"]["all_ok"]
    assert len(doc["components"]) == dec.k


def test_decompose_on_dag(diamond_dag):
    # the decomposition is defined for any DAG poset, not just hypercubes
    f = ValuedFunction(diamond_dag, (5, 1, 3, 4, 0, 2, 1))
    if not is_monotone(f):
        dec = decompose(f)
        assert dec.certificate.all_ok
