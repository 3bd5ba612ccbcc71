"""The hard instance family for nonadaptive 1-sided monotonicity testers.

For an odd perfect square d and an r dividing 2*sqrt(d)+1, the function
indexed by a coordinate i looks at the weight of the point with
coordinate i removed.  Far below the middle it is 1, far above it is r,
and across the middle band it climbs in blocks of w = (2 sqrt(d)+1)/r
consecutive levels, with a one-step dip on coordinate i inside each
block: level block j gives value j + (1 - x_i).

Block bookkeeping: the band of 2 sqrt(d)+1 middle levels is partitioned
into half-open blocks of exactly w levels each; blocks 1..r-1 carry the
dipped values and the top w band levels are absorbed into the r-plateau.
This keeps the image inside 1..r and keeps every violated comparable
pair confined to one block, hence differing on at most w coordinates,
one of which is i — the locality that makes the query-capture bound
work.  (Taking all r blocks as dipped would push the top block to value
r+1 and create violations against the upper plateau spanning arbitrarily
many coordinates, destroying both properties.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .decomposition import Matching
from .funcs import ValuedFunction, from_table
from .poset import hypercube


@dataclass(frozen=True)
class LowerBoundSpec:
    d: int
    r: int
    i: int  # distinguished coordinate, 1-based

    def __post_init__(self):
        root = math.isqrt(self.d)
        if self.d < 1 or self.d % 2 == 0 or root * root != self.d:
            raise ValueError(f"d = {self.d} is not an odd perfect square")
        span = 2 * root + 1
        if self.r < 1 or span % self.r != 0:
            raise ValueError(f"r = {self.r} does not divide 2*sqrt(d)+1 = {span}")
        if not 1 <= self.i <= self.d:
            raise ValueError(f"coordinate i = {self.i} out of range 1..{self.d}")

    @property
    def sqrt_d(self) -> int:
        return math.isqrt(self.d)

    @property
    def width(self) -> int:
        return (2 * self.sqrt_d + 1) // self.r

    @property
    def band_low(self) -> int:
        """Lowest middle-band level of the (d-1)-cube: (d-1)/2 - sqrt(d)."""
        return (self.d - 1) // 2 - self.sqrt_d

    @property
    def dip_levels(self) -> range:
        """Levels carrying the coordinate-i dip: blocks 1..r-1."""
        return range(self.band_low, self.band_low + (self.r - 1) * self.width)

    def block_index(self, level: int) -> int:
        """1-based block of a dip level."""
        if level not in self.dip_levels:
            raise ValueError(f"level {level} is not a dip level")
        return (level - self.band_low) // self.width + 1

    def value_at(self, x: int) -> int:
        bit = 1 << (self.i - 1)
        xi = 1 if x & bit else 0
        level = x.bit_count() - xi
        if level < self.band_low:
            return 1
        if level >= self.band_low + (self.r - 1) * self.width:
            return self.r
        return self.block_index(level) + (1 - xi)


def lower_bound_function(spec: LowerBoundSpec) -> ValuedFunction:
    dom = hypercube(spec.d)
    dom.check_table_budget()
    return from_table(dom, list(map(spec.value_at, range(dom.n))))


def witness_matching(spec: LowerBoundSpec) -> Matching:
    """The coordinate-i edges over the dip levels; every pair is violated
    (value j+1 above value j within its block)."""
    dom = hypercube(spec.d)
    bit = 1 << (spec.i - 1)
    dip = spec.dip_levels
    pairs = []
    for x in range(dom.n):
        if x & bit:
            continue
        if (x.bit_count()) in dip:
            pairs.append((x, x | bit))
    return Matching(tuple(pairs))


def witness_matching_size(spec: LowerBoundSpec) -> int:
    """|M| = number of (d-1)-bit points on the dip levels, in closed form."""
    return sum(math.comb(spec.d - 1, lvl) for lvl in spec.dip_levels)


def cap_set(Q, c: int, d: int | None = None) -> set[int]:
    """Union over pairs in Q of the first min(c, #diffs) coordinates
    (ascending, 1-based) on which the pair differs; at most c(|Q|-1)."""
    if c < 1:
        raise ValueError("c must be >= 1")
    points = sorted(set(Q))
    out: set[int] = set()
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            diff = points[a] ^ points[b]
            taken = 0
            while diff and taken < c:
                low = diff & -diff
                out.add(low.bit_length())  # 1-based coordinate
                diff ^= low
                taken += 1
    if d is not None and any(i > d for i in out):
        raise ValueError("query points exceed the stated dimension")
    return out


def violation_witness_count(Q, spec: LowerBoundSpec) -> int:
    """Number of coordinates i for which the query set contains a
    comparable pair violated by the family member at i (the spec's own i
    is ignored; all d members are scanned).  Always below w * |Q|: a
    violated pair is confined to one block, so it differs on at most w
    coordinates including i, putting i in cap_w(Q)."""
    points = sorted(set(Q))
    count = 0
    for i in range(1, spec.d + 1):
        member = LowerBoundSpec(spec.d, spec.r, i)
        values = {x: member.value_at(x) for x in points}
        found = False
        for a in range(len(points)):
            for b in range(len(points)):
                x, y = points[a], points[b]
                if x != y and (x & y) == x and values[x] > values[y]:
                    found = True
                    break
            if found:
                break
        count += found
    if points and count >= spec.width * len(points):
        raise AssertionError(
            f"violation count {count} >= w*|Q| = {spec.width * len(points)}; "
            "the locality bound failed")
    return count
