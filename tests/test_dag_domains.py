"""Cross-checks on random DAG posets: the decomposition and the exact
distance oracle are defined for arbitrary DAGs, so the hypercube-only
suites are complemented by fuzzing here."""

import random

import numpy as np

from monocube.decomposition import decompose, robust_chain_check
from monocube.funcs import ValuedFunction
from monocube.isoperimetry import EdgeColoring, violation_profile
from monocube.oracles import exact_distance, is_monotone
from monocube.poset import PosetDomain
from poset_oracles import exact_distance_bruteforce, mvc_branch_bound


def random_dag(n, density, rng):
    """Random DAG on 0..n-1 with edges only from lower to higher ids."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < density]
    return PosetDomain("dag", n=n, edges=edges)


def test_exact_distance_on_random_dags():
    rng = random.Random(42)
    for trial in range(60):
        n = rng.randint(2, 12)
        dom = random_dag(n, rng.choice([0.15, 0.3, 0.6]), rng)
        values = tuple(rng.randint(1, rng.randint(1, 6)) for _ in range(n))
        f = ValuedFunction(dom, values)
        cert = exact_distance(f)
        assert cert.cover_size == exact_distance_bruteforce(f)
        assert cert.cover_size == mvc_branch_bound(f)
        assert is_monotone(cert.repaired)


def test_decompose_on_random_dags():
    rng = random.Random(7)
    colors = np.random.default_rng(7)
    checked = 0
    for trial in range(40):
        n = rng.randint(3, 14)
        dom = random_dag(n, rng.choice([0.2, 0.4]), rng)
        f = ValuedFunction(dom, tuple(rng.randint(1, 5) for _ in range(n)))
        if is_monotone(f):
            continue
        dec = decompose(f)
        assert dec.certificate.all_ok, dec.certificate.failures()
        col = EdgeColoring.random(violation_profile(f), colors)
        chain = robust_chain_check(dec, col)
        assert chain.ordering_ok and chain.distance_ok, chain.detail
        checked += 1
    assert checked >= 10


def test_edgeless_dag_everything_monotone():
    dom = PosetDomain("dag", n=5, edges=[])
    f = ValuedFunction(dom, (5, 1, 4, 2, 3))
    assert is_monotone(f)
    assert exact_distance(f).epsilon == 0
    assert decompose(f).monotone
