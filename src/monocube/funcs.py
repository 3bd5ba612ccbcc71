"""Real-valued functions on a poset domain.

A `ValuedFunction` is a dense, immutable assignment of finite reals to
the domain's vertices, held as its **rank view**: the sorted distinct
values ``levels`` and a read-only ndarray ``ranks`` in the narrowest
unsigned dtype, so that x's value is ``levels[ranks[x]]``.  Ranks
compare exactly as the values do, for any mix of ints and floats, so
comparison-based machinery reads only the ranks.  `canonical_rank`
relabels any function to integer ranks ``1..r`` while preserving every
violated pair, the distance to monotonicity, and the image size
``len(levels)``.

``ValuedFunction(domain, values)`` checks, ranks and keeps values from
outside the library, so reports echo them as given (1 and 1.0 share a
level).  It alone applies the file format's value rule, so `read_function`
checks only the JSON structure: n values, each an ``int`` or a finite
``float`` (a float subclass such as ``numpy.float64`` too, but no bool,
string, None or numpy integer).  `ValuedFunction.of_ranks` takes ranks
the library made (`from_table`, a decomposition's bit-stack rows), scans
nothing and builds ``values`` only when read.
`isoperimetry.violation_profile` and `oracles.exact_distance` own the
profile and the distance certificate and cache them on the function;
this module imports only `poset`.

`CountingOracle` wraps a function behind a query counter so testers can
account for every lookup they make.  Its one read,
`CountingOracle.lookup_ranks`, takes an integer ndarray of vertices of
any shape, counts every element as one query and returns their ranks in
the same shape.
"""

from __future__ import annotations

import json
import math
import os
from functools import cached_property
from typing import Sequence

import numpy as np

from .poset import PosetDomain, hypercube, read_domain


class FunctionFormatError(ValueError):
    """Raised for malformed function files."""


class ValuedFunction:
    """A function as its ``levels`` and read-only ``ranks`` (module docstring)."""

    def __init__(self, domain: PosetDomain, values: tuple):
        if len(values) != domain.n:
            raise ValueError(f"{len(values)} values for a domain with {domain.n} vertices")
        # one pass over the types settles the common cases, and an offender is
        # looked for only once one is known to exist; an int is finite at any size
        types = set(map(type, values))
        if not all(t is int or issubclass(t, float) for t in types):
            bad = next(v for v in values if type(v) is not int and not isinstance(v, float))
            raise ValueError(f"non-numeric value {bad!r}")
        if types != {int}:
            rest = [v for v in values if type(v) is not int] if int in types else values
            if not all(map(math.isfinite, rest)):
                bad = next(v for v in rest if not math.isfinite(v))
                raise ValueError(f"non-finite value {bad!r}")
        self.domain, self.values = domain, values  # kept as given, for output
        self.levels, self.ranks = _ranked(values)

    @classmethod
    def of_ranks(cls, domain: PosetDomain, levels: tuple, ranks: np.ndarray) -> ValuedFunction:
        """The function with value ``levels[ranks[x]]`` at x, every level
        taken, in increasing order; ``ranks`` is held as a read-only view."""
        f = cls.__new__(cls)
        f.domain, f.levels, f.ranks = domain, levels, ranks.view()
        f.ranks.flags.writeable = False
        return f

    @property
    def n(self) -> int:
        return self.domain.n

    @cached_property
    def values(self) -> tuple:
        """The values, for output only: the levels read through the ranks."""
        return tuple(map(self.levels.__getitem__, self.ranks.tolist()))


def index_dtype(n: int) -> np.dtype:
    """The narrowest unsigned dtype holding 0..n-1: used for vertex ids
    and for ranks."""
    return np.min_scalar_type(max(n - 1, 0))


class CountingOracle:
    """Oracle access to a function with exact query accounting.

    ``query_count`` equals the number of value lookups since construction.
    For parallel trials, run one oracle per worker and sum the counters.
    """

    def __init__(self, fn: ValuedFunction):
        self.fn = fn
        self.query_count = 0

    def lookup_ranks(self, xs: np.ndarray) -> np.ndarray:
        """Ranks at the vertices of the integer array ``xs``, one query per
        element."""
        self.query_count += xs.size
        return np.take(self.fn.ranks, xs)

    @property
    def domain(self) -> PosetDomain:
        return self.fn.domain


def canonical_rank(f: ValuedFunction) -> ValuedFunction:
    """Relabel values to their ranks 1..r among the distinct values.

    Order-isomorphic: sign(f(x) - f(y)) is preserved for every pair, so
    violated edges, distance to monotonicity, and image size all survive.
    The library reads `ValuedFunction.ranks` (these ranks minus one)
    instead; this function stays public because perfbench's tracer wraps
    it by name.
    """
    return ValuedFunction.of_ranks(f.domain, tuple(range(1, len(f.levels) + 1)), f.ranks)


def _ranked(values: Sequence) -> tuple[tuple, np.ndarray]:
    """The sorted distinct values, and each value's index among them (read-only)."""
    levels = sorted(set(values))
    rank = {v: i for i, v in enumerate(levels)}
    ranks = np.fromiter(map(rank.__getitem__, values), index_dtype(len(levels)), len(values))
    ranks.flags.writeable = False
    return tuple(levels), ranks


def from_table(domain: PosetDomain, table: list[int]) -> ValuedFunction:
    """The function with value ``table[x]`` at x, ranked as the constructor
    ranks values, but checked by no scan and holding no values."""
    return ValuedFunction.of_ranks(domain, *_ranked(table))


def random_function(domain: PosetDomain, r: int, seed: int) -> ValuedFunction:
    """i.i.d. uniform values in 1..r, deterministic given the seed."""
    return from_table(domain, _uniform_table(domain, r, seed).tolist())


def random_monotone(domain: PosetDomain, r: int, seed: int) -> ValuedFunction:
    """A random monotone function: i.i.d. uniform base values in 1..r,
    then the monotone closure g(x) = max over y <= x of base(y)."""
    return from_table(domain, domain.down_max(_uniform_table(domain, r, seed)).tolist())


def _uniform_table(domain: PosetDomain, r: int, seed: int) -> np.ndarray:
    """`random_function`'s values as an array, r and the table size checked first."""
    if r < 1:
        raise ValueError("image bound r must be >= 1")
    domain.check_table_budget()
    return np.random.default_rng(seed).integers(1, r + 1, size=domain.n)


def anti_dictator(d: int) -> ValuedFunction:
    """f(x) = 1 - x_1 on hypercube(d): the canonical hard instance for the
    edge tester."""
    dom = hypercube(d)
    dom.check_table_budget()
    return from_table(dom, [1 - (x & 1) for x in range(dom.n)])


def weight_function(d: int) -> ValuedFunction:
    """f(x) = |x| (Hamming weight), a monotone function with image size d+1."""
    dom = hypercube(d)
    dom.check_table_budget()
    return from_table(dom, [x.bit_count() for x in range(dom.n)])


# -- file I/O -----------------------------------------------------------------
#
# Hypercube file:   {"d": <int>, "values": [v_0, ..., v_{2^d - 1}]}
# DAG-domain file:  {"domain": "<dag-file>", "values": [...]} where the dag
# file holds {"n": <int>, "edges": [[u, v], ...]} and the path is resolved
# relative to the function file.


def write_function(f: ValuedFunction, path: str) -> None:
    """Write f to ``path``, and a DAG's domain beside it as ``<stem>.domain.json``."""
    if f.domain.kind == "hypercube":
        doc = {"d": f.domain.d, "values": list(f.values)}
    else:
        domain_path = os.path.splitext(path)[0] + ".domain.json"
        with open(domain_path, "w") as fh:
            json.dump({"n": f.domain.n, "edges": [list(e) for e in f.domain.cover_edges()]},
                      fh)
        doc = {"domain": os.path.relpath(domain_path, os.path.dirname(path) or "."),
               "values": list(f.values)}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def read_function(path: str) -> ValuedFunction:
    """The function a file holds (format above); `FunctionFormatError`
    naming the file if it, or the domain file it names, is malformed."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
        raise FunctionFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or type(doc.get("values")) is not list:
        raise FunctionFormatError(f"{path}: needs a list of 'values'")
    if "d" not in doc and type(doc.get("domain")) is not str:
        raise FunctionFormatError(f"{path}: needs a 'd' key or a 'domain' file name")
    try:
        domain = (hypercube(doc["d"]) if "d" in doc else
                  read_domain(os.path.join(os.path.dirname(path) or ".", doc["domain"])))
        return ValuedFunction(domain, tuple(doc["values"]))
    except ValueError as exc:
        raise FunctionFormatError(f"{path}: {exc}") from exc
