import gc
import random

import pytest

from monocube.funcs import CountingOracle, ValuedFunction, random_function
from monocube.poset import PosetDomain, hypercube
from monocube.seeds import derive_seed


class RecordingOracle(CountingOracle):
    """A `CountingOracle` that also appends every queried vertex to ``log``,
    in issue order and each array in row-major order: the log the
    nonadaptivity replay checks compare."""

    def __init__(self, fn):
        super().__init__(fn)
        self.log = []

    def lookup_ranks(self, xs):
        self.log.extend(xs.ravel().tolist())
        return super().lookup_ranks(xs)


def suite_functions(count, dims, image_sizes, master_seed):
    """Deterministic random-function suite: (d, r) drawn uniformly per
    instance, values seeded from (master_seed, index)."""
    rng = random.Random(master_seed)
    out = []
    for idx in range(count):
        d = rng.choice(dims)
        r = rng.choice(image_sizes)
        out.append(random_function(hypercube(d), r, derive_seed(master_seed, idx)))
    return out


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail any test that leaves the cyclic garbage collector disabled."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the garbage collector disabled")


@pytest.fixture(autouse=True)
def nothing_left_frozen():
    """Fail any test that leaves objects in the collector's permanent
    generation."""
    yield
    if gc.get_freeze_count():
        gc.unfreeze()
        pytest.fail("the test left objects frozen")


@pytest.fixture(scope="session")
def chain3():
    return PosetDomain("dag", n=3, edges=[(0, 1), (1, 2)])


@pytest.fixture(scope="session")
def diamond_dag():
    """Two crossing source-sink pairs sharing a midpoint, plus a detached
    chain: a,b -> m -> x,y and c -> z."""
    # a=0 b=1 c=2 m=3 x=4 y=5 z=6
    return PosetDomain("dag", n=7,
                       edges=[(0, 3), (1, 3), (3, 4), (3, 5), (2, 6)])


def decreasing_chain(n):
    dom = PosetDomain("dag", n=n, edges=[(i, i + 1) for i in range(n - 1)])
    return ValuedFunction(dom, tuple(range(n, 0, -1)))
