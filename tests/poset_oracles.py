"""Reference implementations kept as test oracles.

Most helpers answer from per-vertex up-set / down-set bitmasks (Python
ints) a question the library answers from arrays, or that the library
only relies on.  The masks come from `reach_masks`, a depth-first walk
from every vertex over `cover_edges()`, not from the library's own
closure pass, so the library's masks can be checked against them.  The
questions are: the comparable-pair walk that
`PosetDomain.pair_arrays` replaced, the induced edges of a sweeping
graph, the sources and sinks a vertex sees, where a vertex sits
relative to a sweeping graph, whether two pairs' sweeping graphs
conflict, a block's Boolean part one vertex at a time, the block
merge by rescanning that `decomposition.merge_pairs` replaced, and the
scan over every pair of part graphs that the certificate's
graphs_disjoint check replaced.

The brute-force oracles cross-check the exact solvers independently:
the minimum vertex cover of the violation graph by sweeping all vertex
subsets and by branch and bound, and the decomposition's matching
objective by enumerating every matching.
"""

from __future__ import annotations

from functools import cache

from monocube.funcs import ValuedFunction
from monocube.oracles import violated_pairs
from monocube.poset import DomainSizeError

MATCHING_ENUM_CAP = 16


def mask_bits(mask: int) -> list[int]:
    """The set bits of ``mask``, lowest first."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


@cache
def reach_masks(domain, upward: bool = True) -> tuple[int, ...]:
    """Per vertex x, the bitmask of {y : x <= y} (upward) or of {y : y <= x},
    x included, by a depth-first walk from x along the cover edges."""
    nbrs: list[list[int]] = [[] for _ in range(domain.n)]
    for (x, y) in domain.cover_edges():
        if upward:
            nbrs[x].append(y)
        else:
            nbrs[y].append(x)
    masks = []
    for x in range(domain.n):
        seen, stack = 1 << x, [x]
        while stack:
            for v in nbrs[stack.pop()]:
                if not seen >> v & 1:
                    seen |= 1 << v
                    stack.append(v)
        masks.append(seen)
    return tuple(masks)


def comparable_pairs_walk(domain) -> list[tuple[int, int]]:
    """Every strict comparable pair (x, y), x ascending and then y
    ascending, by walking each vertex's up-set bitmask."""
    domain.check_pair_budget()
    return [(x, y) for x, mask in enumerate(reach_masks(domain))
            for y in mask_bits(mask & ~(1 << x))]


def sweeping_edges(graph) -> list[tuple[int, int]]:
    """The cover edges with both endpoints in the sweeping graph."""
    m = graph.vertex_mask
    return [(x, y) for (x, y) in graph.domain.cover_edges()
            if m >> x & 1 and m >> y & 1]


def sources_below(graph, z: int) -> frozenset[int]:
    """S(z) = {s in S : s <= z}; nonempty for every z in the graph."""
    down = reach_masks(graph.domain, upward=False)[z]
    return frozenset(s for s in graph.source_set if down >> s & 1)


def sinks_above(graph, z: int) -> frozenset[int]:
    """T(z) = {t in T : z <= t}; nonempty for every z in the graph."""
    up = reach_masks(graph.domain)[z]
    return frozenset(t for t in graph.sink_set if up >> t & 1)


def position_relative_to(domain, z: int, graph) -> str:
    """Locate z relative to a sweeping graph H.

    Returns 'inside' if z is a vertex of H, 'above' if some vertex of H is
    strictly below z, 'below' if some vertex of H is strictly above z, and
    'neither' otherwise.  A vertex outside H is never both above and below.
    """
    domain.check_vertex(z)
    if graph.vertex_mask >> z & 1:
        return "inside"
    zbit = 1 << z
    above = bool(graph.vertex_mask & reach_masks(domain, upward=False)[z] & ~zbit)
    below = bool(graph.vertex_mask & reach_masks(domain)[z] & ~zbit)
    if above and below:
        raise AssertionError(
            f"vertex {z} is both above and below the sweeping graph; "
            "this contradicts the sweeping-graph separation property")
    if above:
        return "above"
    if below:
        return "below"
    return "neither"


def conflict(domain, pair_a, pair_b) -> bool:
    """True iff the sweeping graphs of the two (sources, sinks) pairs share
    a vertex; the four sets must be pairwise disjoint."""
    sets = [frozenset(pair_a[0]), frozenset(pair_a[1]),
            frozenset(pair_b[0]), frozenset(pair_b[1])]
    for i in range(4):
        for j in range(i + 1, 4):
            if sets[i] & sets[j]:
                raise ValueError("conflict test requires four disjoint sets")
    ha = domain.sweeping_graph(sets[0], sets[1]).vertex_mask
    hb = domain.sweeping_graph(sets[2], sets[3]).vertex_mask
    return bool(ha & hb)


def component_values(f, graph) -> tuple[int, ...]:
    """A block's Boolean part by the per-vertex rule: inside H a vertex is
    1 iff its value beats every block sink it can still reach; outside, 1
    iff some vertex of H is strictly below it."""
    domain, mask = f.domain, graph.vertex_mask
    down, up = reach_masks(domain, upward=False), reach_masks(domain)
    values = []
    for z in range(domain.n):
        if mask >> z & 1:
            best = max(f.values[t] for t in graph.sink_set if up[z] >> t & 1)
            values.append(1 if f.values[z] > best else 0)
        else:
            values.append(1 if mask & down[z] & ~(1 << z) else 0)
    return tuple(values)


def merge_pairs_rescan(domain, matching) -> tuple[tuple[frozenset[int], frozenset[int]], ...]:
    """The blocks (S, T) of a matching by rescanning: scan the blocks in
    index order, merge the first two whose sweeping graphs meet into the
    earlier slot, and scan again until no two meet."""
    matching.validate_order(domain)
    blocks = []
    for (s, t) in matching.pairs:
        S, T = frozenset([s]), frozenset([t])
        blocks.append((S, T, domain.sweeping_graph(S, T).vertex_mask))
    merged = True
    while merged:
        merged = False
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if blocks[i][2] & blocks[j][2]:
                    S = blocks[i][0] | blocks[j][0]
                    T = blocks[i][1] | blocks[j][1]
                    blocks[i] = (S, T, domain.sweeping_graph(S, T).vertex_mask)
                    del blocks[j]
                    merged = True
                    break
            if merged:
                break
    return tuple((S, T) for (S, T, _) in blocks)


def shared_vertex_pairwise(components) -> str:
    """The graphs_disjoint witness of a decomposition's components: the
    first pair of part graphs H_i, H_j (i < j) in (i, j) order whose
    vertex masks meet, and their smallest shared vertex; "" if none do."""
    for i in range(len(components)):
        for j in range(i + 1, len(components)):
            shared = components[i][1].vertex_mask & components[j][1].vertex_mask
            if shared:
                return f"H_{i} and H_{j} share vertex {(shared & -shared).bit_length() - 1}"
    return ""


def exact_distance_bruteforce(f: ValuedFunction, cap: int = 20) -> int:
    """Minimum vertex cover size of the violation graph by sweeping all
    2^n vertex subsets (kept sets).  Independent of `exact_distance`."""
    n = f.domain.n
    if n > cap:
        raise DomainSizeError(f"brute force over 2^{n} subsets exceeds cap 2^{cap}")
    bad = [0] * n
    for (x, y) in violated_pairs(f).tolist():
        bad[x] |= 1 << y
        bad[y] |= 1 << x
    best = 0
    valid = bytearray(1 << n)
    valid[0] = 1
    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        if valid[rest] and not bad[v] & rest:
            valid[mask] = 1
            size = mask.bit_count()
            if size > best:
                best = size
    return n - best


def mvc_branch_bound(f: ValuedFunction) -> int:
    """Minimum vertex cover size of the violation graph by branch and
    bound on the general graph (include a max-degree vertex or all of its
    neighbours; greedy-matching lower bound for pruning).  Cross-check
    route for `exact_distance`."""
    adj: dict[int, set[int]] = {}
    for (x, y) in violated_pairs(f).tolist():
        adj.setdefault(x, set()).add(y)
        adj.setdefault(y, set()).add(x)

    best = [len(adj)]  # all touched vertices always cover

    def matching_lb(graph: dict[int, set[int]]) -> int:
        used = set()
        size = 0
        for u in sorted(graph):
            if u in used:
                continue
            for v in sorted(graph[u]):
                if v not in used:
                    used.add(u)
                    used.add(v)
                    size += 1
                    break
        return size

    def strip(graph: dict[int, set[int]], removed: set[int]) -> dict[int, set[int]]:
        out = {}
        for u, nbrs in graph.items():
            if u in removed:
                continue
            rest = nbrs - removed
            if rest:
                out[u] = rest
        return out

    def solve(graph: dict[int, set[int]], taken: int) -> None:
        # peel degree-1 vertices: take the neighbour
        while True:
            if taken + matching_lb(graph) >= best[0]:
                return
            if not graph:
                best[0] = min(best[0], taken)
                return
            deg1 = next((u for u in sorted(graph) if len(graph[u]) == 1), None)
            if deg1 is None:
                break
            v = next(iter(graph[deg1]))
            graph = strip(graph, {deg1, v})
            taken += 1
        u = max(sorted(graph), key=lambda w: len(graph[w]))
        solve(strip(graph, {u}), taken + 1)
        nbrs = set(graph[u])
        solve(strip(graph, nbrs | {u}), taken + len(nbrs))

    solve(adj, 0)
    return best[0]


def enumerate_matchings_check(f: ValuedFunction, cap: int = MATCHING_ENUM_CAP
                              ) -> tuple[int, int]:
    """Brute-force (max total rank gap, min cardinality among maximizers)
    over all matchings of violated comparable pairs.  Validates the
    decomposition's matching solver; weights are rank gaps, exactly as
    the solver's."""
    n = f.domain.n
    if n > cap:
        raise DomainSizeError(f"matching enumeration needs n <= {cap}, got {n}")
    ranks = f.ranks.tolist()
    pairs = violated_pairs(f).tolist()
    gaps = [ranks[x] - ranks[y] for (x, y) in pairs]
    best = (0, 0)  # (weight, -cardinality) maximized lexicographically

    def rec(idx: int, used: int, weight: int, card: int) -> None:
        nonlocal best
        if (weight, -card) > best:
            best = (weight, -card)
        for k in range(idx, len(pairs)):
            x, y = pairs[k]
            m = 1 << x | 1 << y
            if not used & m:
                rec(k + 1, used | m, weight + gaps[k], card + 1)

    rec(0, 0, 0, 0)
    return best[0], -best[1]
