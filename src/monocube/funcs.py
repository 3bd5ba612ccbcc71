"""Real-valued functions on a poset domain.

A `ValuedFunction` is a dense, immutable assignment of finite reals to
the domain's vertices.  Comparison-based machinery (decomposition,
testers) never needs the raw values, only their order, so
`canonical_rank` relabels any function to integer ranks ``1..r`` while
preserving every violated pair, the distance to monotonicity, and the
image size.

Query-driven code evaluates whole schedules at once, so every function
also carries a cached **rank view**: ``ranks[x]`` is the index of
``values[x]`` in ``sorted(set(values))``, stored as an ndarray in the
narrowest unsigned dtype.  Ranks compare exactly as the values do, for
any mix of ints and floats, so a strict comparison on ranks decides the
same violations as one on values.  The violation profile (per-vertex
violated-edge counts, see `isoperimetry`) and the exact distance
certificate (see `oracles`) are cached the same way.

`CountingOracle` wraps a function behind a query counter (optionally a
query log) so testers can account for every lookup they make.  Its one
read, `CountingOracle.lookup_ranks`, takes an integer ndarray of
vertices of any shape, counts every element as one query, logs the
vertices in row-major order and returns their ranks in the same shape.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .poset import PosetDomain, build_domain, hypercube

if TYPE_CHECKING:
    from .isoperimetry import ViolationProfile
    from .oracles import DistanceCertificate


class FunctionFormatError(ValueError):
    """Raised for malformed function files."""


@dataclass(frozen=True)
class ValuedFunction:
    domain: PosetDomain
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.domain.n:
            raise ValueError(
                f"value array has length {len(self.values)}, "
                f"domain has {self.domain.n} vertices")
        # an int is finite at any size: check only the other values, and
        # look for the offender only once one is known to exist
        types = set(map(type, self.values))
        if types <= {int, bool}:
            return
        rest = self.values if types == {float} else \
            [v for v in self.values if not isinstance(v, int)]
        if not all(map(math.isfinite, rest)):
            bad = next(v for v in rest if not math.isfinite(v))
            raise ValueError(f"non-finite value {bad!r}")

    @property
    def n(self) -> int:
        return self.domain.n

    def __call__(self, x: int) -> float:
        return self.values[x]

    def is_boolean(self) -> bool:
        return set(self.values) <= {0, 1}

    @cached_property
    def ranks(self) -> np.ndarray:
        """Each value's index among the sorted distinct values: the 0-based
        ndarray form of `canonical_rank`, computed once per function."""
        levels = image_values(self)
        index = {v: i for i, v in enumerate(levels)}
        return np.fromiter(map(index.__getitem__, self.values),
                           dtype=index_dtype(len(levels)), count=self.n)

    @cached_property
    def violation_profile(self) -> ViolationProfile:
        """This function's `isoperimetry.ViolationProfile`, computed once
        per function like `ranks`."""
        from .isoperimetry import ViolationProfile  # isoperimetry imports funcs
        return ViolationProfile.of(self)

    @cached_property
    def exact_distance(self) -> DistanceCertificate:
        """This function's `oracles.exact_distance` certificate, solved once
        per function like `ranks`."""
        from .oracles import DistanceCertificate  # oracles imports funcs
        return DistanceCertificate.of(self)


def index_dtype(n: int) -> np.dtype:
    """The narrowest unsigned dtype holding 0..n-1: used for vertex ids
    and for ranks."""
    return np.min_scalar_type(max(n - 1, 0))


class CountingOracle:
    """Oracle access to a function with exact query accounting.

    ``query_count`` equals the number of value lookups since construction
    or the last `reset`.  With ``record=True`` every queried vertex is
    appended to ``log`` in issue order, which is what the nonadaptivity
    replay checks compare.  For parallel trials, run one oracle per
    worker and sum the counters.
    """

    def __init__(self, fn: ValuedFunction, record: bool = False):
        self.fn = fn
        self.query_count = 0
        self.log: list[int] | None = [] if record else None

    def lookup_ranks(self, xs: np.ndarray) -> np.ndarray:
        """Ranks at the vertices of the integer array ``xs``, one query per
        element, logged in row-major order."""
        self.query_count += xs.size
        if self.log is not None:
            self.log.extend(xs.ravel().tolist())
        return self.fn.ranks[xs]

    def reset(self) -> None:
        self.query_count = 0
        if self.log is not None:
            self.log = []

    @property
    def domain(self) -> PosetDomain:
        return self.fn.domain


def image_size(f: ValuedFunction) -> int:
    """Number of distinct values the function takes."""
    return len(set(f.values))


def image_values(f: ValuedFunction) -> list:
    """Sorted distinct values."""
    return sorted(set(f.values))


def canonical_rank(f: ValuedFunction) -> ValuedFunction:
    """Relabel values to their ranks 1..r among the distinct values.

    Order-isomorphic: sign(f(x) - f(y)) is preserved for every pair, so
    violated edges, distance to monotonicity, and image size all survive.
    The library reads `ValuedFunction.ranks` (these ranks minus one)
    instead; this function stays public because perfbench's tracer wraps
    it by name.
    """
    ranks = {v: i + 1 for i, v in enumerate(image_values(f))}
    return ValuedFunction(f.domain, tuple(ranks[v] for v in f.values))


def threshold(f: ValuedFunction, t: float) -> ValuedFunction:
    """Boolean indicator of f(x) > t.  Its violated edges are a subset of
    the violated edges of f."""
    return ValuedFunction(f.domain, tuple(1 if v > t else 0 for v in f.values))


def random_function(domain: PosetDomain, r: int, seed: int) -> ValuedFunction:
    """i.i.d. uniform values in 1..r, deterministic given the seed."""
    if r < 1:
        raise ValueError("image bound r must be >= 1")
    rng = np.random.default_rng(seed)
    values = rng.integers(1, r + 1, size=domain.n)
    return ValuedFunction(domain, tuple(int(v) for v in values))


def random_monotone(domain: PosetDomain, r: int, seed: int) -> ValuedFunction:
    """A random monotone function: i.i.d. uniform base values in 1..r,
    then the monotone closure g(x) = max over y <= x of base(y)."""
    if r < 1:
        raise ValueError("image bound r must be >= 1")
    rng = np.random.default_rng(seed)
    base = rng.integers(1, r + 1, size=domain.n)
    return ValuedFunction(domain, tuple(domain.down_max(base).tolist()))


def anti_dictator(d: int) -> ValuedFunction:
    """f(x) = 1 - x_1 on hypercube(d): the canonical hard instance for the
    edge tester."""
    dom = hypercube(d)
    return ValuedFunction(dom, tuple(1 - (x & 1) for x in range(dom.n)))


def weight_function(d: int) -> ValuedFunction:
    """f(x) = |x| (Hamming weight), a monotone function with image size d+1."""
    dom = hypercube(d)
    return ValuedFunction(dom, tuple(x.bit_count() for x in range(dom.n)))


# -- file I/O -----------------------------------------------------------------
#
# Hypercube file:   {"d": <int>, "values": [v_0, ..., v_{2^d - 1}]}
# DAG-domain file:  {"domain": "<dag-file>", "values": [...]} where the dag
# file holds {"n": <int>, "edges": [[u, v], ...]} and the path is resolved
# relative to the function file.


def write_function(f: ValuedFunction, path: str, domain_path: str | None = None) -> None:
    if f.domain.kind == "hypercube":
        doc = {"d": f.domain.d, "values": list(f.values)}
    else:
        if domain_path is None:
            domain_path = os.path.splitext(path)[0] + ".domain.json"
        with open(domain_path, "w") as fh:
            json.dump({"n": f.domain.n, "edges": [list(e) for e in f.domain.cover_edges()]},
                      fh)
        doc = {"domain": os.path.relpath(domain_path, os.path.dirname(path) or "."),
               "values": list(f.values)}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def read_function(path: str) -> ValuedFunction:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FunctionFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or "values" not in doc:
        raise FunctionFormatError(f"{path}: missing 'values'")
    values = doc["values"]
    if not set(map(type, values)) <= {int, float}:
        bad = next(v for v in values if type(v) not in (int, float))
        raise FunctionFormatError(f"{path}: non-numeric value {bad!r}")
    if "d" in doc:
        domain = build_domain({"d": doc["d"]})
    elif "domain" in doc:
        ref = os.path.join(os.path.dirname(path) or ".", doc["domain"])
        with open(ref) as fh:
            domain = build_domain(json.load(fh))
    else:
        raise FunctionFormatError(f"{path}: needs a 'd' or 'domain' key")
    if len(values) != domain.n:
        raise FunctionFormatError(
            f"{path}: {len(values)} values for a domain with {domain.n} vertices")
    try:
        return ValuedFunction(domain, tuple(values))
    except ValueError as exc:
        raise FunctionFormatError(f"{path}: {exc}") from exc
