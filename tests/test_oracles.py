import random
import sys
from fractions import Fraction
from functools import lru_cache

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import decreasing_chain
from monocube.cli import _verify_instance
from monocube.decomposition import Decomposition, decompose, robust_chain_check
from monocube.funcs import (ValuedFunction, anti_dictator, random_function,
                            random_monotone, weight_function)
from monocube.isoperimetry import EdgeColoring, greedy_descent, robust_objective, \
    undirected_objective, violation_profile, worst_coloring
from monocube.oracles import (exact_distance, is_monotone, max_gain_matching,
                              solve_covers, violated_pairs, _repair)
from monocube import decomposition, oracles, poset
from monocube.poset import DomainSizeError, PosetDomain, hypercube
from monocube.seeds import derive_seed
from poset_oracles import (enumerate_matchings_check, exact_distance_bruteforce,
                           mvc_branch_bound)
from proof_checks import boolean_variance, median_threshold, threshold


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
    assert "up_masks" not in vars(over)  # refused before any mask was built


def counting_solves(monkeypatch):
    """Record the rank rows and labels of every `solve_covers` call, the
    solver's re-solves of failing rows included.  The name is patched in
    `oracles`, where `exact_distance` and the solver itself look it up,
    and in `decomposition`, where `Decomposition.epsilons` does."""
    calls = []

    def recording(domain, ranks, label, solve=oracles.solve_covers):
        calls.append((ranks.copy(), label.copy()))
        return solve(domain, ranks, label)

    for module in (oracles, decomposition):
        monkeypatch.setattr(module, "solve_covers", recording)
    return calls


def is_whole_row(call, f):
    """True iff a recorded call is f alone, every vertex labelled 0."""
    ranks, label = call
    return np.array_equal(ranks, f.ranks[None]) and not label.any()


def test_exact_distance_is_solved_once_per_function(monkeypatch):
    calls = counting_solves(monkeypatch)
    f = random_function(hypercube(5), 4, 7)
    cert = exact_distance(f)
    assert exact_distance(f) is cert and vars(f)["exact_distance"] is cert
    assert len(calls) == 1 and is_whole_row(calls[0], f)
    # an equal function is a new object with its own cache
    g = ValuedFunction(f.domain, f.values)
    assert exact_distance(g) == cert and exact_distance(g) is not cert
    # the arrays are not compared by ==
    assert np.array_equal(exact_distance(g).source, cert.source)
    assert np.array_equal(exact_distance(g).ranks, cert.ranks)
    assert len(calls) == 2


def test_repaired_function_is_built_only_when_read(monkeypatch):
    """A Boolean decomposition solves f and every part but builds no
    repaired function; a read builds it once, and a monotone input's
    repair has its values."""
    built = []
    init, of_ranks = ValuedFunction.__init__, ValuedFunction.of_ranks.__func__
    monkeypatch.setattr(ValuedFunction, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    monkeypatch.setattr(ValuedFunction, "of_ranks",
                        classmethod(lambda cls, *args: built.append(of_ranks(cls, *args))
                                    or built[-1]))
    f = random_function(hypercube(8), 2, 0)
    dec = decompose(f)
    assert dec.certificate.all_ok and len(built) == 1 + dec.k
    # f's certificate is cached, unbuilt; the parts carry none
    cert = vars(f)["exact_distance"]
    assert "repaired" not in vars(cert)
    assert not any("exact_distance" in vars(fi) for (fi, _) in dec.components)
    assert cert.repaired is cert.repaired and len(built) == 2 + dec.k
    assert is_monotone(cert.repaired)
    assert cert.repaired.values == tuple(f.values[s] for s in cert.source)
    mono = random_monotone(hypercube(4), 3, 2)
    assert exact_distance(mono).repaired.values == mono.values


def part_labels(dec):
    """Each vertex's first part graph, -1 off every graph, scanned vertex
    by vertex."""
    return np.array([next((i for i, (_, graph) in enumerate(dec.components)
                           if x in graph.vertices), -1) for x in range(dec.f.n)])


def test_verify_instance_solves_f_once(monkeypatch):
    """f is solved alone and every Boolean part in one union solve, which
    the row's epsilon, the decomposition certificate, the chain checks
    and the edge bound all read."""
    calls = counting_solves(monkeypatch)
    d, r, master, index = 5, 4, 3, 0
    row = _verify_instance((d, r, master, index, 2, 2))
    assert row["ok"] and not row["monotone"]
    f = random_function(hypercube(d), r, derive_seed(master, index))
    dec = decompose(f)
    parts = [fi.values for (fi, _) in dec.components]
    assert len(calls) == 2 and is_whole_row(calls[0], f)
    ranks, label = calls[1]
    assert [tuple(row) for row in ranks.tolist()] == parts
    assert parts and all(set(values) <= {0, 1} for values in parts)
    assert np.array_equal(label, part_labels(dec))
    assert row["epsilon"] == str(exact_distance(f).epsilon)


def test_verify_instance_solves_a_monotone_f_from_its_cover_edges(monkeypatch):
    d, r, master = 3, 2, 0
    index = next(i for i in range(100) if is_monotone(
        random_function(hypercube(d), r, derive_seed(master, i))))
    calls = counting_solves(monkeypatch)
    compared = []
    monkeypatch.setattr(poset.PosetDomain, "pair_arrays",
                        property(lambda domain: compared.append(domain)))
    row = _verify_instance((d, r, master, index, 3, 3))
    assert row["monotone"] and row["ok"] and row["epsilon"] == "0"
    assert calls == [] and not compared


def test_decomposition_certificate_is_solved_when_read(monkeypatch):
    """`decompose` solves nothing; reading the certificate solves f, then
    every part in one union solve, which the chain check then reads; a
    decomposition whose certificate was never read gives the same chain,
    bit for bit."""
    calls = counting_solves(monkeypatch)
    f = random_function(hypercube(5), 4, 11)
    dec = decompose(f)
    assert calls == [] and "certificate" not in vars(dec)
    assert dec.certificate.all_ok
    assert len(calls) == 2 and is_whole_row(calls[0], f)
    assert np.array_equal(calls[1][0], [fi.ranks for (fi, _) in dec.components])
    col = EdgeColoring.random(violation_profile(f), np.random.default_rng(3))
    chain = robust_chain_check(dec, col)
    assert len(calls) == 2
    g = ValuedFunction(f.domain, f.values)
    unread = decompose(g)
    fresh = robust_chain_check(unread, EdgeColoring(violation_profile(g), col.red))
    assert "certificate" not in vars(unread)
    assert [v.hex() for v in fresh.values] == [v.hex() for v in chain.values]
    assert (fresh.epsilon_f, fresh.epsilon_sum) == (chain.epsilon_f, chain.epsilon_sum)
    assert (fresh.ordering_ok, fresh.distance_ok, fresh.detail) \
        == (chain.ordering_ok, chain.distance_ok, chain.detail)


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


def solve_alone(f):
    """`solve_covers` of f alone, every vertex labelled 0: its cover and
    its repair."""
    (cover,), source = solve_covers(f.domain, f.ranks[None], np.zeros(f.n, np.int32))
    return cover, source


@pytest.mark.parametrize("spec", BATCH_DOMAINS, ids=lambda s: "-".join(map(str, s)))
@pytest.mark.parametrize("chunk", [None, 1, 37, 500])
def test_batch_solve_matches_single_solves(spec, chunk, monkeypatch):
    """Monotone, non-monotone, constant, Boolean and mixed int/float rows
    solved as one stack, under labels that leave many of their violated
    pairs out, get a minimum cover each, the size of the row's own solve;
    also when the rows are certified in chunks of a few rows.  A single
    row's solve gives `exact_distance`'s cover and repair."""
    domain = batch_domain(spec)
    n = domain.n
    values = [(1,) * n, tuple(range(n)), tuple(range(n, 0, -1)),
              random_monotone(domain, 3, 1).values]
    rng = random.Random(n)
    for _ in range(6):
        values.append(tuple(rng.choice([0, 1, 1.0, 2, 2.5, 3]) for _ in range(n)))
        values.append(tuple(rng.choice([0, 1]) for _ in range(n)))
    fs = [ValuedFunction(domain, v) for v in values]
    singles = [exact_distance(ValuedFunction(domain, v)) for v in values]
    if chunk is not None:
        monkeypatch.setattr(poset, "PAIR_CHUNK", chunk)
    ranks = np.array([f.ranks for f in fs])
    labels = [np.full(n, -1), np.zeros(n, dtype=int),
              np.array([rng.randrange(len(fs)) for _ in range(n)]),
              np.array([rng.randrange(-1, 3) for _ in range(n)])]
    for label in labels:
        covers, source = solve_covers(domain, ranks, label)
        assert len(covers) == len(fs) and source is None
        for f, one, cover in zip(fs, singles, covers):
            assert len(cover) == one.cover_size
            assert all(x in cover or y in cover for (x, y) in violated_pairs(f).tolist())
            if n <= 20:
                assert len(cover) == exact_distance_bruteforce(f)
    for f, one in zip(fs, singles):
        cover, source = solve_alone(f)
        assert frozenset(cover) == one.vertex_cover
        assert np.array_equal(source, one.source if one.vertex_cover else np.arange(n))


DECOMPOSED = [("cube", d, 0) for d in range(1, 9)] + [("dag", n, 3) for n in (5, 20, 60, 150)]


@pytest.mark.parametrize("chunk", [None, 1, 37])
def test_union_solve_gives_each_part_its_own_distance(chunk, monkeypatch):
    """On hypercubes d <= 8 and random DAGs, every part's distance from the
    union solve is the part's own `exact_distance`, also when the parts
    are certified a few rows per chunk.  A correct decomposition makes
    exactly two solver calls, f alone and its parts' union, and solves no
    part again."""
    if chunk is not None:
        monkeypatch.setattr(poset, "PAIR_CHUNK", chunk)
    decs = [decompose(random_function(batch_domain(spec), r, seed))
            for spec in DECOMPOSED for r, seed in ((2, 1), (3, 2), (8, 3))]
    calls = counting_solves(monkeypatch)
    solved = 0
    for dec in decs:
        if dec.monotone:
            continue
        del calls[:]
        _, eps_parts, eps_sum = dec.epsilons
        assert len(calls) == 2 and is_whole_row(calls[0], dec.f)
        assert np.array_equal(calls[1][1], part_labels(dec))
        assert eps_parts == tuple(exact_distance(fi).epsilon for (fi, _) in dec.components)
        assert eps_sum == sum(eps_parts) and 2 * eps_sum >= exact_distance(dec.f).epsilon
        solved += 1
    assert solved > 25


def koenig_cover_on_label(fi, label, i):
    """The vertices of networkx's Koenig cover of the split graph of fi's
    violated pairs with both ends labelled i."""
    graph = nx.Graph()
    top = {("L", x) for x in range(fi.n)}
    graph.add_nodes_from(top)
    graph.add_edges_from((("L", x), ("R", y)) for (x, y) in violated_pairs(fi).tolist()
                         if label[x] == label[y] == i)
    matching = nx.bipartite.hopcroft_karp_matching(graph, top)
    return {x for (_, x) in nx.bipartite.to_vertex_cover(graph, matching, top)}


def test_a_corrupted_decomposition_re_solves_only_its_failing_parts(monkeypatch):
    """Parts with random values, whose violated pairs leave their graphs,
    and graphs widened into another part's: a part is solved again alone
    iff the Koenig cover of its pairs inside its label is no minimum cover
    of all its violated pairs, and every distance is still the part's
    own."""
    rng = random.Random(36)
    calls = counting_solves(monkeypatch)
    failed = passed = 0
    for seed in range(30):
        domain = hypercube(4) if seed % 2 else batch_domain(("dag", 12, 2))
        f = random_function(domain, 4, 3600 + seed)
        if is_monotone(f):
            continue
        dec = decompose(f)
        parts = list(dec.components)
        i = rng.randrange(dec.k)
        part, graph = parts[i]
        if seed % 3 or dec.k == 1:
            parts[i] = (ValuedFunction(domain, tuple(rng.choice((0, 1)) for _ in range(f.n))),
                        graph)
        else:
            other = parts[rng.choice([j for j in range(dec.k) if j != i])][1]
            parts[i] = (part, domain.sweeping_graph(
                graph.source_set | {min(other.source_set)},
                graph.sink_set | {min(other.sink_set)}))
        corrupted = Decomposition(f, dec.matching, tuple(parts))
        label = part_labels(corrupted)
        alone = [exact_distance(ValuedFunction.of_ranks(domain, fi.levels, fi.ranks))
                 for (fi, _) in parts]
        failing = [j for j, ((fi, _), cert) in enumerate(zip(parts, alone))
                   if not ((cover := koenig_cover_on_label(fi, label, j))
                           .issuperset(x if x in cover else y
                                       for (x, y) in violated_pairs(fi).tolist())
                           and len(cover) == cert.cover_size)]
        del calls[:]
        _, eps_parts, _ = corrupted.epsilons
        assert eps_parts == tuple(cert.epsilon for cert in alone)
        again = calls[2:]
        assert all(len(ranks) == 1 and not label.any() for ranks, label in again)
        assert [ranks[0].tolist() for ranks, _ in again] \
            == [parts[j][0].ranks.tolist() for j in failing]
        failed += len(failing)
        passed += corrupted.k - len(failing)
    assert failed > 10 and passed > 10


def test_epsilons_refuses_a_part_on_another_domain():
    f = random_function(hypercube(4), 3, 2)
    dec = decompose(f)
    (fi, graph), *rest = dec.components
    dag = PosetDomain("dag", n=f.n)
    for part in [(anti_dictator(3), graph),
                 (ValuedFunction.of_ranks(dag, fi.levels, fi.ranks), graph)]:
        with pytest.raises(ValueError, match="^f and its parts must share one domain$"):
            Decomposition(f, dec.matching, (part, *rest)).epsilons


def test_a_whole_domain_row_that_fails_its_certificate_is_an_error(monkeypatch):
    """A repair that changes nothing fails every non-monotone row: a row
    of a stack is solved again alone, and a row alone on all its
    vertices raises."""
    monkeypatch.setattr(oracles, "_repair", lambda domain, ranks, cover:
                        np.broadcast_to(np.arange(domain.n), ranks.shape))
    f = random_function(hypercube(3), 3, 1)
    with pytest.raises(AssertionError, match="on all 8 vertices"):
        exact_distance(f)
    assert "exact_distance" not in vars(f)
    calls = counting_solves(monkeypatch)
    with pytest.raises(AssertionError, match="on all 8 vertices"):
        solve_covers(f.domain, np.array([f.ranks, f.ranks]), np.full(f.n, 1))
    # the first row's re-solve is the call that raises
    assert len(calls) == 1 and is_whole_row(calls[0], f)


def random_bipartite(rng, lefts, rights, density):
    """Left vertices 0..lefts-1, right vertices 0..rights-1 (the two sides
    share labels, as the solver's cells do), each left vertex listing its
    right neighbours ascending."""
    return {u: [v for v in range(rights) if rng.random() < density] for u in range(lefts)}


def disjoint_union(graphs):
    """The graphs side by side, each shifted past the labels of the ones
    before it."""
    union, offset = {}, 0
    for adj in graphs:
        union.update({offset + u: [offset + v for v in vs] for u, vs in adj.items()})
        offset += 1 + max([*adj, *(v for vs in adj.values() for v in vs)], default=0)
    return union


def bipartite_cases():
    rng = random.Random(2024)
    cases = {"empty": {}, "single-edge": {0: [0]}, "edgeless-left": {0: [], 1: []}}
    for a, b in ((1, 1), (1, 4), (4, 1), (3, 3), (5, 7)):
        cases[f"complete-{a}x{b}"] = {u: list(range(b)) for u in range(a)}
    for k in range(30):
        cases[f"random-{k}"] = random_bipartite(rng, rng.randint(1, 12), rng.randint(1, 12),
                                                rng.choice([0.1, 0.25, 0.5, 0.8]))
    for k in range(10):
        cases[f"union-{k}"] = disjoint_union(
            random_bipartite(rng, rng.randint(1, 9), rng.randint(1, 9), rng.choice([0.2, 0.5]))
            for _ in range(rng.randint(2, 6)))
    cases["union-with-complete"] = disjoint_union([cases["complete-3x3"], {0: [0]}, {},
                                                   cases["random-0"]])
    return cases


BIPARTITE_CASES = bipartite_cases()


def engine(adj, key_l=None, key_r=None, cuts=None):
    """`max_gain_matching` on a dict of neighbour lists, searched in dict
    order; by default every left key is 1 and every right key 0, so every
    pair gains 1.  ``cuts[u]``, if given, is the length of u's prefix:
    its leading edges that the engine matches first."""
    lefts = [u for u, vs in adj.items() for _ in vs]
    rights = [v for vs in adj.values() for v in vs]
    prefix = None if cuts is None else [i < cuts[u] for u, vs in adj.items()
                                        for i in range(len(vs))]
    return max_gain_matching(lefts, rights, key_l or [1] * (1 + max(adj, default=-1)),
                             key_r or [0] * (1 + max(rights, default=-1)), prefix)


def hopcroft_karp(adj, cuts=None):
    """The engine with every pair gaining 1: the matching size, and the
    left and right parts of the cover its last search reads."""
    pairs, left, right = engine(adj, cuts=cuts)
    return len(pairs), left, right


@pytest.mark.parametrize("name", BIPARTITE_CASES)
def test_hopcroft_karp_cover_matches_networkx(name):
    """The cover read off the last BFS is networkx's Koenig cover, and its
    size is the matching size."""
    adj = BIPARTITE_CASES[name]
    graph = nx.Graph()
    top = {("L", u) for u in adj}
    graph.add_nodes_from(top)
    graph.add_edges_from((("L", u), ("R", v)) for u, vs in adj.items() for v in vs)
    matching = nx.bipartite.hopcroft_karp_matching(graph, top)
    expected = nx.bipartite.to_vertex_cover(graph, matching, top)
    size, left, right = hopcroft_karp(adj)
    assert {("L", u) for u in left} | {("R", v) for v in right} == expected
    assert size == len(matching) // 2 == len(left) + len(right)


def max_matching_size(adj):
    """Maximum bipartite matching size by exhaustive search: each left
    vertex in turn stays free or takes a right vertex not yet used."""
    left = list(adj)

    @lru_cache(maxsize=None)
    def best(i, used):
        if i == len(left):
            return 0
        return max([best(i + 1, used)] + [1 + best(i + 1, used | 1 << v)
                                          for v in adj[left[i]] if not used >> v & 1])

    return best(0, 0)


def canonical_koenig_cover(adj):
    """The matching size, and the Koenig cover read off any maximum
    matching: the left vertices that every maximum matching covers, and
    the neighbours of the others.  A left vertex is missed by some
    maximum matching iff removing it keeps the maximum size."""
    size = max_matching_size(adj)
    missable = {u for u in adj
                if max_matching_size({w: vs for w, vs in adj.items() if w != u}) == size}
    return size, adj.keys() - missable, {v for u in missable for v in adj[u]}


@st.composite
def small_bipartite(draw):
    """At most 8 + 8 vertices, each neighbour list in drawn order."""
    right = draw(st.integers(1, 8))
    return {u: draw(st.lists(st.integers(0, right - 1), unique=True, max_size=right))
            for u in range(draw(st.integers(0, 8)))}


@given(small_bipartite(), st.data())
@settings(max_examples=300, deadline=None)
def test_hopcroft_karp_cover_is_the_canonical_koenig_cover(adj, data):
    """Whichever maximum matching the warm-started search ends at, its
    cover is the one every maximum matching gives, also when it first
    matches a drawn prefix of each left vertex's edges."""
    expected = canonical_koenig_cover(adj)
    assert hopcroft_karp(adj) == expected
    cuts = {u: data.draw(st.integers(0, len(vs))) for u, vs in adj.items()}
    assert hopcroft_karp(adj, cuts) == expected


def best_matching(adj, key_l, key_r):
    """The largest weight of any matching, where a pair (u, v) weighs
    key_l[u] - key_r[v], and the fewest pairs of a matching that has it:
    each left vertex in turn stays free or takes a right vertex not yet
    used."""
    left = list(adj)

    @lru_cache(maxsize=None)
    def best(i, used):  # (weight, -pairs), largest first
        if i == len(left):
            return 0, 0
        u = left[i]
        options = [best(i + 1, used)]
        for v in adj[u]:
            if not used >> v & 1:
                weight, pairs = best(i + 1, used | 1 << v)
                options.append((weight + key_l[u] - key_r[v], pairs - 1))
        return max(options)

    weight, pairs = best(0, 0)
    return weight, -pairs


@st.composite
def keyed_bipartite(draw):
    """At most 7 + 7 vertices, each neighbour list in drawn order, and an
    integer key per vertex, so gains may be zero or negative."""
    right = draw(st.integers(1, 7))
    adj = {u: draw(st.lists(st.integers(0, right - 1), unique=True, max_size=right))
           for u in draw(st.permutations(range(draw(st.integers(0, 7)))))}
    keys = st.integers(-3, 4)
    return (adj, draw(st.lists(keys, min_size=len(adj), max_size=len(adj))),
            draw(st.lists(keys, min_size=right, max_size=right)))


@given(keyed_bipartite(), st.data())
@settings(max_examples=300, deadline=None)
def test_max_gain_matching_is_the_largest_weight_with_fewest_pairs(case, data):
    """On any bipartite graph, not only split graphs of a poset, the
    engine's matching has the largest weight and, among those, the fewest
    pairs, also when it is given a drawn prefix of each left vertex's
    edges."""
    adj, key_l, key_r = case
    cuts = {u: data.draw(st.integers(0, len(vs))) for u, vs in adj.items()}
    for pairs, _, _ in (engine(adj, key_l, key_r), engine(adj, key_l, key_r, cuts)):
        assert all(v in adj[u] for (u, v) in pairs)
        assert len({u for u, _ in pairs}) == len({v for _, v in pairs}) == len(pairs)
        assert (sum(key_l[u] - key_r[v] for (u, v) in pairs), len(pairs)) \
            == best_matching(adj, key_l, key_r)


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


@pytest.mark.parametrize("make", [
    lambda: random_function(hypercube(6), 8, 1),
    lambda: random_function(hypercube(4), 3, 2),
    lambda: random_function(PosetDomain("dag", n=12, edges=[(0, v) for v in range(1, 12)]
                                        + [(v, 11) for v in range(1, 11)]), 4, 3),
], ids=["r8-d6", "r3-d4", "dag-n12"])
@pytest.mark.parametrize("seed", [5, 6])
def test_greedy_running_value_is_the_robust_objective(make, seed):
    f = make()
    col = EdgeColoring.random(violation_profile(f), np.random.default_rng(seed))
    values = []
    for val in greedy_descent(col):
        assert val == robust_objective(f, col)
        values.append(val)
    assert len(values) > 1 and values == sorted(values, reverse=True)


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
        assert (ph.undirected <= pf.undirected).all()
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


def zigzag(n):
    """The path a_0 b_0 a_1 b_1 ... a_n b_n as a bipartite graph: left a_i
    is vertex i, right b_i is vertex i, and a_i lists b_(i-1), then b_i.
    The lefts come in the order a_1 .. a_n, a_0."""
    adj = {i: [i - 1, i] for i in range(1, n + 1)}
    adj[0] = [0]
    return adj


@pytest.mark.parametrize("equal_keys, prefix", [(True, False), (True, True), (False, False)],
                         ids=["equal-keys", "equal-keys-prefix", "rank-keys"])
def test_max_gain_matching_keeps_recursion_limit(equal_keys, prefix):
    """A greedy start, or a first phase of gain 2, matches a_i to b_(i-1)
    and leaves a_0 and b_n free; the last augmenting path then runs
    through all 2n + 2 vertices, deeper than the recursion limit.  With
    every edge in the prefix, that path is found by the prefix's phases."""
    n = 3000
    key_l = [1] * (n + 1) if equal_keys else [1] + [2] * n
    adj = zigzag(n)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        pairs, _, _ = engine(adj, key_l, [0] * (n + 1),
                             {u: len(vs) for u, vs in adj.items()} if prefix else None)
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(saved)
    assert sorted(pairs) == [(i, i) for i in range(n + 1)]


def cover_edge_stacks():
    """Stacks on one domain each: random functions with 2, 3 or 8 values
    on hypercubes d = 1..8, a function with its decomposition's parts, and
    random functions on random DAGs (forward edges of a shuffled order)."""
    rng = random.Random(31)
    stacks = [[random_function(hypercube(d), r, 100 * d + seed)
               for r in (2, 3, 8) for seed in range(3)] for d in range(1, 9)]
    for d in (4, 6, 8):
        dec = decompose(random_function(hypercube(d), 8, d))
        stacks.append([dec.f, *(fi for fi, _ in dec.components)])
    for n in (1, 2, 7, 20, 60, 150):
        order = rng.sample(range(n), n)
        edges = [(order[a], order[b]) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < 3 / n]
        domain = PosetDomain("dag", n=n, edges=edges)
        stacks.append([ValuedFunction(domain, tuple(rng.randrange(r) for _ in range(n)))
                       for r in (2, 3, 8) for _ in range(3)])
    return stacks


def test_cover_edge_start_changes_no_certificate(monkeypatch):
    """Each function's solve alone, and each decomposition's union solve
    of its parts, give the same covers and repairs when the engine gets
    no cover-edge prefix, and when no pair is flagged as a cover edge, so
    every left vertex lists its pairs in pair order."""
    calls = []
    for fs in cover_edge_stacks():
        calls += [(f.domain, f.ranks[None], np.zeros(f.n, np.int32)) for f in fs]
    for d in (4, 6, 8):
        dec = decompose(random_function(hypercube(d), 8, d))
        calls.append((dec.f.domain, np.array([fi.ranks for fi, _ in dec.components]),
                      part_labels(dec)))

    def solve_all():
        return [solve_covers(*call) for call in calls]

    solved = solve_all()
    assert sum(len(cover) for covers, _ in solved for cover in covers) > 0
    unmasked_engine = oracles.max_gain_matching
    with monkeypatch.context() as mp:
        mp.setattr(oracles, "max_gain_matching", lambda *args: unmasked_engine(*args[:4]))
        unmasked = solve_all()
    with monkeypatch.context() as mp:
        mp.setattr(PosetDomain, "pair_is_cover_edge",
                   property(lambda dom: np.zeros(len(dom.pair_arrays[0]), dtype=bool)))
        in_pair_order = solve_all()
    for (covers, source), *others in zip(solved, unmasked, in_pair_order):
        for other_covers, other_source in others:
            assert covers == other_covers
            assert (source is None and other_source is None) \
                or np.array_equal(source, other_source)


def scan_repair(f, cover):
    """The repair by its definition, one vertex at a time: a kept z keeps
    f(z); a covered z gets the first largest f(x) over kept x <= z in
    vertex order, else the first smallest kept value."""
    kept = [x for x in range(f.n) if x not in cover]
    fallback = min(f.values[x] for x in kept)
    out = []
    for z in range(f.n):
        if z not in cover:
            out.append(f.values[z])
            continue
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
    covered = np.isin(np.arange(f.n), list(cover))
    source = _repair(f.domain, f.ranks[None], covered[None])[0]
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
