import gc
import math
import random
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monocube.decomposition import (Matching, build_components, decompose,
                                    decomposition_dump, edge_bound_check,
                                    max_weight_min_card_matching, merge_pairs,
                                    robust_chain_check, verify_decomposition)
from monocube.funcs import (ValuedFunction, anti_dictator, canonical_rank,
                            random_function, random_monotone)
from monocube.isoperimetry import EdgeColoring, robust_objective, violation_profile
from monocube.oracles import exact_distance, is_monotone, violated_cover_edges, violated_pairs
from monocube import poset
from monocube.poset import PosetDomain, hypercube
from poset_oracles import (component_values, conflict, enumerate_matchings_check,
                           merge_pairs_rescan, position_relative_to,
                           shared_vertex_pairwise)
from proof_checks import violated_edges
from test_dag_domains import random_dag


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


LEVELS = (0, 1, 1.0, 1.5, 2, 3.25, 4)  # ints and floats, 1 and 1.0 tied


def small_matching_input(seed):
    """A hypercube function at d <= 4, or a function with mixed int and
    float values on a random or edgeless DAG with n <= 16."""
    rng = random.Random(seed)
    kind = rng.choice(["hypercube", "dag", "edgeless"])
    if kind == "hypercube":
        return random_function(hypercube(rng.choice([2, 3, 4])), rng.choice([2, 3, 4, 6]), seed)
    n = rng.randint(1, 16)
    domain = random_dag(n, rng.choice([0.1, 0.25, 0.5]) if kind == "dag" else 0, rng)
    levels = rng.sample(LEVELS, rng.randint(2, len(LEVELS)))
    return ValuedFunction(domain, tuple(rng.choice(levels) for _ in range(n)))


@pytest.mark.parametrize("seed", range(50))
def test_matching_optimality_small(seed):
    f = small_matching_input(seed)
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


def test_matching_leaves_no_graph_with_edges_behind():
    """networkx's graph caches views that point back at it, so it outlives
    the call until a collection; with the collector paused, every graph
    made by the call must already be empty.  Only a Boolean input builds
    one."""
    f = random_function(hypercube(6), 2, 3)
    gc.collect()
    gc.disable()
    try:
        before = {id(g) for g in gc.get_objects() if isinstance(g, nx.Graph)}
        matching = max_weight_min_card_matching(f)
        left = [g for g in gc.get_objects()
                if isinstance(g, nx.Graph) and id(g) not in before and g.number_of_edges()]
    finally:
        gc.enable()
    assert len(matching) > 0
    assert left == []


def test_non_boolean_matching_does_not_call_networkx(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("networkx's blossom was called")

    monkeypatch.setattr(nx, "max_weight_matching", refuse)
    for f in (random_function(hypercube(6), 3, 3), random_function(hypercube(5), 8, 1),
              small_matching_input(11)):
        assert f.ranks.max() > 1 and len(max_weight_min_card_matching(f)) > 0


def plain_graph_matching(f):
    """networkx's blossom on a plain `nx.Graph` of the violated pairs, with
    the edges in pair order and each pair weighing (n+1)*gap - 1."""
    pairs = violated_pairs(f)
    ranks = f.ranks.astype(np.int64)
    weights = (f.domain.n + 1) * (ranks[pairs[:, 0]] - ranks[pairs[:, 1]]) - 1
    graph = nx.Graph()
    graph.add_weighted_edges_from(zip(*pairs.T.tolist(), weights.tolist()))
    return tuple(sorted((a, b) if ranks[a] > ranks[b] else (b, a)
                        for (a, b) in nx.max_weight_matching(graph)))


@st.composite
def matching_inputs(draw):
    """Hypercube functions at d <= 6 with r in {2, 3, 8}, and functions on
    random and edgeless DAGs."""
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(["hypercube", "dag", "edgeless"]))
    if kind == "hypercube":
        return random_function(hypercube(draw(st.integers(1, 6))),
                               draw(st.sampled_from([2, 3, 8])), seed)
    n = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.05, 0.2, 0.5])) if kind == "dag" else 0
    return random_function(random_dag(n, density, random.Random(seed)),
                           draw(st.integers(2, 8)), seed)


@given(matching_inputs())
@settings(max_examples=120, deadline=None)
def test_matching_is_networkx_on_a_plain_graph(f):
    """A Boolean input's matching is networkx's own; any other input's is
    an optimum of the same (weight, cardinality), of violated pairs."""
    matching = max_weight_min_card_matching(f)
    reference = plain_graph_matching(f)
    if f.ranks.max() <= 1:
        assert matching.pairs == reference
    else:
        assert (matching_weight(f, matching), len(matching)) \
            == (matching_weight(f, Matching(reference)), len(reference))
        assert all(f.domain.reaches(s, t) and f.values[s] > f.values[t]
                   for (s, t) in matching.pairs)


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
    graphs = merge_pairs(diamond_dag, m)
    blocks = {(tuple(sorted(g.source_set)), tuple(sorted(g.sink_set))) for g in graphs}
    assert blocks == {((0, 1), (4, 5)), ((2,), (6,))}


def test_merge_pairs_trivia(diamond_dag):
    single = merge_pairs(diamond_dag, Matching(((0, 4),)))
    assert len(single) == 1
    disjoint = merge_pairs(diamond_dag, Matching(((0, 4), (2, 6))))
    assert len(disjoint) == 2


def random_matching(domain, rng, near=False):
    """A random matching of comparable pairs, in random order: the pairs
    are scanned shuffled, and each one disjoint from those kept is kept
    until a random size is reached.  With ``near``, only pairs whose ids
    differ by less than 8 are used, which gives smaller graphs and so
    more blocks."""
    lower, upper = domain.pair_arrays
    if near:
        close = upper.astype(int) - lower < 8
        lower, upper = lower[close], upper[close]
    size = rng.randint(0, domain.n // 2)
    used, pairs = set(), []
    for k in rng.sample(range(len(lower)), len(lower)):
        if len(pairs) == size:
            break
        s, t = int(lower[k]), int(upper[k])
        if not {s, t} & used:
            used |= {s, t}
            pairs.append((s, t))
    return Matching(tuple(pairs))


def block_sets(graphs):
    return tuple((g.source_set, g.sink_set) for g in graphs)


MERGE_DOMAINS = ([hypercube(d) for d in range(1, 8)]
                 + [random_dag(n, 4 / n, random.Random(n)) for n in (5, 12, 30, 60)]
                 + [PosetDomain("dag", n=6)])


def merge_cases(domain, rng):
    """Random matchings of comparable pairs and the solver's matchings of
    random functions on one domain."""
    cases = [random_matching(domain, rng, near) for near in (False, True) for _ in range(6)]
    cases += [max_weight_min_card_matching(random_function(domain, r, seed))
              for r, seed in ((2, 1), (5, 2), (9, 3))]
    return cases


@pytest.mark.parametrize("domain", MERGE_DOMAINS, ids=repr)
def test_merge_pairs_matches_the_rescan(domain):
    """The one-pass merge gives the rescan's blocks in the rescan's order,
    each with its own sweeping graph."""
    rng = random.Random(domain.n)
    for matching in merge_cases(domain, rng):
        graphs = merge_pairs(domain, matching)
        assert block_sets(graphs) == merge_pairs_rescan(domain, matching)
        for g in graphs:
            assert g.vertex_mask == domain.sweeping_graph(g.source_set, g.sink_set).vertex_mask


def test_merge_pairs_matches_the_rescan_on_the_diamond(diamond_dag):
    rng = random.Random(7)
    for matching in merge_cases(diamond_dag, rng) + [Matching(((1, 5), (2, 6), (0, 4)))]:
        assert block_sets(merge_pairs(diamond_dag, matching)) \
            == merge_pairs_rescan(diamond_dag, matching)


@pytest.mark.parametrize("domain", MERGE_DOMAINS, ids=repr)
def test_merge_pairs_ignores_the_pair_order(domain):
    """Shuffling the matched pairs gives the same set of blocks."""
    rng = random.Random(domain.n + 1)
    for matching in merge_cases(domain, rng):
        blocks = set(block_sets(merge_pairs(domain, matching)))
        for _ in range(3):
            shuffled = Matching(tuple(rng.sample(matching.pairs, len(matching))))
            assert set(block_sets(merge_pairs(domain, shuffled))) == blocks


def test_merge_termination_and_disjointness():
    for seed in range(25):
        f = random_function(hypercube(5), 6, seed)
        m = max_weight_min_card_matching(f)
        graphs = merge_pairs(f.domain, m)
        assert 0 < len(graphs) <= len(m) or len(m) == 0
        masks = [f.domain.sweeping_graph(g.source_set, g.sink_set).vertex_mask
                 for g in graphs]
        assert masks == [g.vertex_mask for g in graphs]
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


COMPONENT_DOMAINS = ([hypercube(d) for d in range(1, 8)]
                     + [random_dag(n, 6 / n, random.Random(n)) for n in (2, 9, 40, 120)]
                     + [PosetDomain("dag", n=n) for n in (1, 7)])


@pytest.mark.parametrize("domain", COMPONENT_DOMAINS, ids=repr)
def test_components_match_the_per_vertex_rule(domain):
    """The bitmask unions give every block's part exactly as the
    per-vertex rule does, with Python int values."""
    for r, seed in ((2, 1), (4, 2), (9, 3)):
        f = random_function(domain, r, seed)
        graphs = merge_pairs(domain, max_weight_min_card_matching(f))
        assert len(graphs) or is_monotone(f)
        for fi, graph in build_components(f, graphs):
            assert fi.values == component_values(f, graph)
            assert {type(v) for v in fi.values} <= {int}


def test_components_source_sink_values():
    for seed in range(15):
        f = random_function(hypercube(4), 5, seed)
        if is_monotone(f):
            continue
        dec = decompose(f)
        for (fi, graph) in dec.components:
            for s in graph.source_set:
                assert fi.values[s] == 1
            for t in graph.sink_set:
                assert fi.values[t] == 0


def test_components_above_rule():
    # a vertex strictly above a component's graph gets value 1
    f = random_function(hypercube(4), 4, 3)
    dec = decompose(f)
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
        dec = decompose(f)
        for (_, graph) in dec.components:
            for s in graph.source_set:
                for t in graph.sink_set:
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
        f, dec.matching,
        ((ValuedFunction(f.domain, tuple(flipped)), graph),) + dec.components[1:])
    cert = verify_decomposition(corrupted)
    assert not cert.all_ok
    assert any(witness for (_, witness) in cert.failures())


def unviolated_pair_witness(f, dec):
    """The first ordered (source, sink) pair of a block that f does not
    violate, scanned pair by pair: the per-pair formulation of the
    block_pairs_violated check."""
    for idx, (_, graph) in enumerate(dec.components):
        for s in graph.source_set:
            for t in graph.sink_set:
                if f.domain.reaches(s, t) and not f.values[s] > f.values[t]:
                    return (f"component {idx}: ordered pair ({s},{t}) has "
                            f"f({s}) = {f.values[s]} <= f({t}) = {f.values[t]}")
    return ""


def block_pairs_witness(cert):
    (ok, witness), = [(ok, w) for (name, ok, w) in cert.checks
                      if name == "block_pairs_violated"]
    assert ok == (not witness)
    return witness


def test_block_pairs_violated_names_an_ordered_unviolated_pair():
    from monocube.decomposition import Decomposition
    f = ValuedFunction(hypercube(2), (1, 0, 1, 1))   # violates (0, 1) only
    dec = decompose(f)
    assert block_pairs_witness(dec.certificate) == ""
    part, graph = dec.components[0]
    # sink 2 lies above source 0, and f(2) = f(0)
    widened = f.domain.sweeping_graph(graph.source_set, graph.sink_set | {2})
    corrupted = Decomposition(f, dec.matching, ((part, widened),))
    assert block_pairs_witness(verify_decomposition(corrupted)) \
        == "component 0: ordered pair (0,2) has f(0) = 1 <= f(2) = 1"


def test_block_pairs_violated_matches_the_per_pair_formulation():
    from monocube.decomposition import Decomposition
    rng = random.Random(9)
    domains = [hypercube(4)] + [random_dag(n, 0.3, rng) for n in (8, 12, 16)]
    failed = 0
    for seed in range(40):
        domain = domains[seed % len(domains)]
        f = random_function(domain, 4, 1200 + seed)
        if is_monotone(f):
            continue
        dec = decompose(f)
        parts = list(dec.components)
        for idx in rng.sample(range(dec.k), min(2, dec.k)):
            part, graph = parts[idx]
            extra = rng.sample(sorted(set(range(f.n)) - graph.source_set), 2)
            parts[idx] = (part, domain.sweeping_graph(graph.source_set,
                                                      graph.sink_set | set(extra)))
        corrupted = Decomposition(f, dec.matching, tuple(parts))
        witness = block_pairs_witness(verify_decomposition(corrupted))
        assert witness == unviolated_pair_witness(f, corrupted)
        failed += bool(witness)
    assert failed > 10


def escaped_edge_witness(f, dec):
    """The first part edge outside S_f^- cap E(H_i), scanned part by part:
    the per-part formulation of the violations_contained check."""
    for idx, (fi, graph) in enumerate(dec.components):
        for (x, y) in violated_edges(violation_profile(fi)):
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
        dec = decompose(f)
        parts = list(dec.components)
        for idx in rng.sample(range(dec.k), min(2, dec.k)):
            values = tuple(rng.choice((0, 1)) for _ in range(f.n))
            parts[idx] = (ValuedFunction(f.domain, values), parts[idx][1])
        corrupted = Decomposition(f, dec.matching, tuple(parts))
        cert = verify_decomposition(corrupted)
        (ok, witness), = [(ok, w) for (name, ok, w) in cert.checks
                          if name == "violations_contained"]
        assert witness == escaped_edge_witness(f, corrupted) and ok == (not witness)
        assert list(cert.violated_parts) == [violation_profile(fi).num_violated
                                             for (fi, _) in parts]
        failed += not ok
    assert failed > 10


def disjoint_witness(cert):
    (ok, witness), = [(ok, w) for (name, ok, w) in cert.checks
                      if name == "graphs_disjoint"]
    assert ok == (not witness)
    return witness


def test_graphs_disjoint_matches_the_pairwise_scan():
    """One part's graph widened by a source and a sink of another part's
    block meets that part's graph, and maybe others; the witness is the
    pair the scan over every pair of graphs names."""
    from monocube.decomposition import Decomposition
    rng = random.Random(12)
    domains = ([hypercube(d) for d in range(2, 7)]
               + [random_dag(n, 0.3, rng) for n in (8, 16, 30)])
    failed = 0
    for seed in range(40):
        domain = domains[seed % len(domains)]
        f = random_function(domain, 4, 1600 + seed)
        if is_monotone(f):
            continue
        dec = decompose(f)
        assert disjoint_witness(dec.certificate) == ""
        parts = list(dec.components)
        if dec.k > 1:
            i, j = rng.sample(range(dec.k), 2)
            (part, graph), other = parts[i], parts[j][1]
            parts[i] = (part, domain.sweeping_graph(
                graph.source_set | {rng.choice(sorted(other.source_set))},
                graph.sink_set | {rng.choice(sorted(other.sink_set))}))
        corrupted = Decomposition(f, dec.matching, tuple(parts))
        witness = disjoint_witness(verify_decomposition(corrupted))
        assert witness == shared_vertex_pairwise(corrupted.components)
        failed += bool(witness)
    assert failed > 10


def test_graphs_disjoint_names_the_first_graph_then_its_first_partner():
    """H_0 meets H_3 and H_1 meets H_2.  The pairwise scan names (0, 3); a
    scan for the first graph meeting an earlier one would name (1, 2)."""
    from monocube.decomposition import Decomposition
    domain = PosetDomain("dag", n=6, edges=[(0, 1), (1, 5), (2, 3), (3, 4)])
    f = ValuedFunction(domain, (0,) * 6)
    graphs = [domain.sweeping_graph(*st) for st in (({0}, {1}), ({2}, {3}),
                                                    ({3}, {4}), ({1}, {5}))]
    assert [sorted(g.vertices) for g in graphs] == [[0, 1], [2, 3], [3, 4], [1, 5]]
    dec = Decomposition(f, Matching(()), tuple((f, graph) for graph in graphs))
    assert disjoint_witness(verify_decomposition(dec)) == "H_0 and H_3 share vertex 1"
    assert shared_vertex_pairwise(dec.components) == "H_0 and H_3 share vertex 1"


def test_chain_check_single_edge():
    f = ValuedFunction(hypercube(1), (2, 1))
    col = EdgeColoring.all_red(violation_profile(f))
    rep = robust_chain_check(decompose(f), col)
    assert rep.values == (0.5, 0.5, 0.5, 0.5)
    assert rep.ordering_ok and rep.distance_ok


def test_chain_check_monotone():
    f = random_monotone(hypercube(3), 3, 0)
    rep = robust_chain_check(decompose(f), EdgeColoring.all_red(violation_profile(f)))
    assert rep.values == (0.0, 0.0, 0.0, 0.0)
    assert rep.ordering_ok and rep.distance_ok


def test_chain_check_rejects_a_part_violating_an_edge_f_does_not():
    f = ValuedFunction(hypercube(2), (1, 0, 1, 1))   # violates (0, 1) only
    dec = decompose(f)
    graph = dec.components[0][1]
    part = ValuedFunction(f.domain, (1, 1, 0, 1))    # violates (0, 2)
    from monocube.decomposition import Decomposition
    corrupted = Decomposition(f, dec.matching, ((part, graph),))
    with pytest.raises(ValueError, match="^a part violates 1 edges that f does not violate$"):
        robust_chain_check(corrupted, EdgeColoring.all_red(violation_profile(f)))


def test_chain_check_builds_its_masks_once_per_decomposition(monkeypatch):
    from monocube import decomposition
    f = random_function(hypercube(4), 5, 301)
    dec = decompose(f)
    calls = []
    monkeypatch.setattr(decomposition, "violated_cover_edges",
                        lambda *args: calls.append(args) or violated_cover_edges(*args))
    rng = random.Random(2)
    reports = [robust_chain_check(dec, EdgeColoring.random(violation_profile(f), rng))
               for _ in range(3)]
    assert len(calls) == 1
    assert all(rep.ordering_ok and rep.distance_ok for rep in reports)


def test_chain_check_random_suite():
    rng = random.Random(0)
    for seed in range(40):
        f = random_function(hypercube(4), 5, 300 + seed)
        if is_monotone(f):
            continue
        col = EdgeColoring.random(violation_profile(f), rng)
        rep = robust_chain_check(decompose(f), col)
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
            rep = robust_chain_check(dec, col)
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
    doc = decomposition_dump(dec)
    assert doc["k"] == dec.k
    assert doc["certificate"]["all_ok"]
    assert len(doc["components"]) == dec.k


def test_decompose_on_dag(diamond_dag):
    # the decomposition is defined for any DAG poset, not just hypercubes
    f = ValuedFunction(diamond_dag, (5, 1, 3, 4, 0, 2, 1))
    if not is_monotone(f):
        dec = decompose(f)
        assert dec.certificate.all_ok
