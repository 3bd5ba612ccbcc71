import random

import numpy as np
import pytest

from monocube import poset
from monocube.poset import (CycleError, DomainSizeError, PosetDomain,
                            build_domain, hypercube)
from poset_oracles import (comparable_pairs_walk, position_relative_to,
                           sinks_above, sources_below, sweeping_edges)


def brute_paths(domain, s, t):
    """All directed paths s -> t by DFS; returns (vertices, edges) of the
    union.  Independent oracle for sweeping graphs."""
    out = {}
    for (u, v) in domain.cover_edges():
        out.setdefault(u, []).append(v)
    vertices, edges = set(), set()

    def dfs(u, path):
        if u == t:
            vertices.update(path)
            edges.update(zip(path, path[1:]))
            return
        for v in out.get(u, []):
            dfs(v, path + [v])

    dfs(s, [s])
    return vertices, edges


def test_hypercube_edges_small():
    assert hypercube(1).cover_edges() == [(0, 1)]
    assert set(hypercube(2).cover_edges()) == {(0, 1), (0, 2), (1, 3), (2, 3)}


@pytest.mark.parametrize("d", range(1, 9))
def test_hypercube_edge_count(d):
    assert hypercube(d).num_edges == d * 2 ** (d - 1)
    assert len(hypercube(d).cover_edges()) == d * 2 ** (d - 1)


@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_edge_arrays_follow_cover_edge_order(d):
    dom = PosetDomain("hypercube", d=d)
    lower, upper = dom.edge_arrays
    assert not lower.flags.writeable and not upper.flags.writeable
    assert lower.dtype == upper.dtype == np.uint32
    assert list(zip(lower.tolist(), upper.tolist())) \
        == [(x, x | 1 << i) for x in range(1 << d) for i in range(d) if not x >> i & 1]
    assert dom.cover_edges() == list(zip(lower.tolist(), upper.tolist()))
    dag = PosetDomain("dag", n=dom.n, edges=list(reversed(dom.cover_edges())))
    assert list(zip(*(a.tolist() for a in dag.edge_arrays))) == sorted(dom.cover_edges())


def test_dag_cycle_detected():
    with pytest.raises(CycleError):
        PosetDomain("dag", n=2, edges=[(0, 1), (1, 0)])
    with pytest.raises(CycleError):
        PosetDomain("dag", n=1, edges=[(0, 0)])


def test_dag_vertex_range_checked():
    with pytest.raises(ValueError):
        PosetDomain("dag", n=2, edges=[(0, 2)])


def test_reaches_trivia(chain3):
    dom = hypercube(2)
    assert dom.reaches(0, 3)
    assert not dom.reaches(1, 2)
    assert dom.reaches(1, 1)
    assert chain3.reaches(0, 2)
    assert not chain3.reaches(2, 0)


@pytest.mark.parametrize("d", range(1, 8))
def test_reaches_agrees_with_edge_built_dag(d):
    """Bitmask containment vs reachability derived purely from the edge
    list, compared exhaustively via the up-set masks."""
    hc = hypercube(d)
    dag = PosetDomain("dag", n=hc.n, edges=hc.cover_edges())
    assert hc._up_masks() == dag._up_masks()


def test_reaches_agrees_at_d10():
    hc = hypercube(10)
    dag = PosetDomain("dag", n=hc.n, edges=hc.cover_edges())
    assert hc._up_masks() == dag._up_masks()


def random_dag(n, seed):
    """A DAG on n vertices whose topological order is a random relabelling
    of 0..n-1, with about 2n random forward edges."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for _ in range(2 * n if n > 1 else 0):
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((order[a], order[b]))
    return PosetDomain("dag", n=n, edges=edges)


PAIR_DOMAINS = ([("cube", d) for d in range(1, 9)]
                + [("dag", n, seed) for n, seed in [(2, 0), (7, 1), (40, 2), (200, 3)]]
                + [("edgeless", n) for n in (1, 2, 50)])


def pair_domain(spec):
    if spec[0] == "cube":
        return PosetDomain("hypercube", d=spec[1])
    if spec[0] == "dag":
        return random_dag(spec[1], spec[2])
    return PosetDomain("dag", n=spec[1])


@pytest.mark.parametrize("spec", PAIR_DOMAINS, ids=lambda s: "-".join(map(str, s)))
def test_pair_arrays_match_the_bitmask_walk(spec):
    """Element by element and in order, also when the comparison is split
    into chunks of a few rows (a chunk of 1 cell still takes a whole row)."""
    walk = comparable_pairs_walk(pair_domain(spec))
    for chunk in (poset.PAIR_CHUNK, 1, 37):
        dom = pair_domain(spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poset, "PAIR_CHUNK", chunk)
            lower, upper = dom.pair_arrays
        assert lower.dtype == upper.dtype == np.uint32
        assert not lower.flags.writeable and not upper.flags.writeable
        assert list(zip(lower.tolist(), upper.tolist())) == walk
        assert dom.pair_arrays[0] is lower  # cached


@pytest.mark.parametrize("spec", PAIR_DOMAINS, ids=lambda s: "-".join(map(str, s)))
def test_down_max_stack_matches_each_row(spec):
    """A (rows, n) stack gives every row's closure, each row as on its own
    and, where n is small, as its definition: the max over y <= x."""
    dom = pair_domain(spec)
    rng = np.random.default_rng(len(spec) * 1000 + dom.n)
    for dtype in (np.int64, np.uint8):
        stack = rng.integers(0, 100, size=(5, dom.n)).astype(dtype)
        out = dom.down_max(stack)
        assert out.shape == stack.shape and out.dtype == dtype
        for a, row in zip(stack, out):
            assert np.array_equal(dom.down_max(a), row)
            if dom.n <= 64:
                assert row.tolist() == [max(a[y] for y in range(dom.n) if dom.reaches(y, x))
                                        for x in range(dom.n)]
        assert np.array_equal(dom.down_max(stack[:0]), stack[:0])


def test_pair_arrays_refused_before_any_mask_is_built():
    with pytest.raises(DomainSizeError, match="1586131 comparable pairs"):
        hypercube(13).pair_arrays
    for dom in (PosetDomain("hypercube", d=13), PosetDomain("dag", n=1449, edges=[(0, 1)])):
        with pytest.raises(DomainSizeError):
            dom.pair_arrays
        assert dom._up is None and dom._down is None
        assert not {"pair_arrays", "edge_arrays"} & set(vars(dom))


def test_transitive_closure_examples(chain3):
    assert sorted(chain3.transitive_closure()) == [(0, 1), (0, 2), (1, 2)]
    assert sorted(hypercube(1).transitive_closure()) == [(0, 1)]
    assert len(hypercube(2).transitive_closure()) == 5


@pytest.mark.parametrize("d", range(1, 7))
def test_transitive_closure_count(d):
    # strict subset pairs: 3^d - 2^d, counted independently
    pairs = hypercube(d).transitive_closure()
    expected = {(x, y) for x in range(2 ** d) for y in range(2 ** d)
                if x != y and (x & y) == x}
    assert set(pairs) == expected
    assert len(pairs) == 3 ** d - 2 ** d


def test_transitive_closure_cap():
    with pytest.raises(DomainSizeError):
        hypercube(13).transitive_closure()


def test_transitive_closure_at_the_pair_budget():
    # the largest closure the budget admits: 3^12 - 2^12 pairs
    assert len(hypercube(12).transitive_closure()) == 527345


def test_sweeping_graph_examples(chain3):
    dom = hypercube(2)
    H = dom.sweeping_graph({0}, {3})
    assert H.vertices == {0, 1, 2, 3}
    assert set(sweeping_edges(H)) == set(dom.cover_edges())

    empty = dom.sweeping_graph({1}, {2})
    assert empty.vertices == frozenset()
    assert sweeping_edges(empty) == []

    Hc = chain3.sweeping_graph({0}, {1})
    assert Hc.vertices == {0, 1}
    assert sweeping_edges(Hc) == [(0, 1)]


def test_sweeping_graph_overlap_rejected():
    with pytest.raises(ValueError):
        hypercube(2).sweeping_graph({0, 1}, {1, 3})


@pytest.mark.parametrize("d,seed", [(2, 0), (3, 1), (4, 2), (5, 3), (6, 4)])
def test_sweeping_graph_matches_path_union(d, seed):
    """Vertex and edge sets equal the brute-force union of directed paths
    over all (s, t) source-sink pairs."""
    dom = hypercube(d)
    rng = random.Random(seed)
    verts = list(range(dom.n))
    S = set(rng.sample(verts, 2))
    T = set(rng.sample([v for v in verts if v not in S], 2))
    H = dom.sweeping_graph(S, T)
    vertices, edges = set(), set()
    for s in S:
        for t in T:
            vs, es = brute_paths(dom, s, t)
            vertices |= vs
            edges |= es
    assert H.vertices == vertices
    assert set(sweeping_edges(H)) == edges


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_sweeping_graph_properties(d):
    """Every inside vertex sees a source below and a sink above; no
    outside vertex is both above and below; induced edges are present."""
    dom = hypercube(d)
    rng = random.Random(d)
    for _ in range(10):
        S = set(rng.sample(range(dom.n), rng.randint(1, min(3, dom.n - 1))))
        pool = [v for v in range(dom.n) if v not in S]
        T = set(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
        H = dom.sweeping_graph(S, T)
        for z in H.vertices:
            assert sources_below(H, z)
            assert sinks_above(H, z)
        for z in range(dom.n):
            # raises if both above and below
            position_relative_to(dom, z, H)
        edge_set = set(sweeping_edges(H))
        for (x, y) in dom.cover_edges():
            if x in H.vertices and y in H.vertices:
                assert (x, y) in edge_set


def test_position_relative_to():
    dom = hypercube(2)
    H = dom.sweeping_graph({0}, {1})
    assert H.vertices == {0, 1}
    assert position_relative_to(dom, 3, H) == "above"
    # 0 < 2, so 2 sits above H({0},{1}) as well
    assert position_relative_to(dom, 2, H) == "above"
    full = dom.sweeping_graph({0}, {3})
    for z in range(4):
        assert position_relative_to(dom, z, full) == "inside"


def test_position_neither(chain3):
    H = chain3.sweeping_graph({0}, {1})
    dom = PosetDomain("dag", n=4, edges=[(0, 1), (1, 2)])
    H = dom.sweeping_graph({0}, {1})
    assert position_relative_to(dom, 3, H) == "neither"
    assert position_relative_to(dom, 2, H) == "above"


def test_build_domain_forms():
    assert build_domain(3).kind == "hypercube"
    assert build_domain({"d": 2}).n == 4
    dag = build_domain({"n": 3, "edges": [[0, 1], [1, 2]]})
    assert dag.kind == "dag" and dag.reaches(0, 2)
    with pytest.raises(ValueError):
        build_domain({"x": 1})
