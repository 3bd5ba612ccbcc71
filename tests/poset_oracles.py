"""Bitmask reference implementations kept as test oracles.

Each helper answers from a domain's per-vertex up-set / down-set bitmasks
(Python ints) a question the library answers from arrays, or that the
library only relies on: the comparable-pair walk that
`PosetDomain.pair_arrays` replaced, the induced edges of a sweeping
graph, the sources and sinks a vertex sees, where a vertex sits
relative to a sweeping graph, whether two pairs' sweeping graphs
conflict, and a block's Boolean part one vertex at a time.
"""

from __future__ import annotations


def mask_bits(mask: int) -> list[int]:
    """The set bits of ``mask``, lowest first."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def comparable_pairs_walk(domain) -> list[tuple[int, int]]:
    """Every strict comparable pair (x, y), x ascending and then y
    ascending, by walking each vertex's up-set bitmask."""
    domain.check_pair_budget()
    return [(x, y) for x, mask in enumerate(domain._up_masks())
            for y in mask_bits(mask & ~(1 << x))]


def sweeping_edges(graph) -> list[tuple[int, int]]:
    """The cover edges with both endpoints in the sweeping graph."""
    m = graph.vertex_mask
    return [(x, y) for (x, y) in graph.domain.cover_edges()
            if m >> x & 1 and m >> y & 1]


def sources_below(graph, z: int) -> frozenset[int]:
    """S(z) = {s in S : s <= z}; nonempty for every z in the graph."""
    down = graph.domain._down_masks()[z]
    return frozenset(s for s in graph.source_set if down >> s & 1)


def sinks_above(graph, z: int) -> frozenset[int]:
    """T(z) = {t in T : z <= t}; nonempty for every z in the graph."""
    up = graph.domain._up_masks()[z]
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
    above = bool(graph.vertex_mask & domain._down_masks()[z] & ~zbit)
    below = bool(graph.vertex_mask & domain._up_masks()[z] & ~zbit)
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
    down, up = domain._down_masks(), domain._up_masks()
    values = []
    for z in range(domain.n):
        if mask >> z & 1:
            best = max(f.values[t] for t in graph.sink_set if up[z] >> t & 1)
            values.append(1 if f.values[z] > best else 0)
        else:
            values.append(1 if mask & down[z] & ~(1 << z) else 0)
    return tuple(values)
