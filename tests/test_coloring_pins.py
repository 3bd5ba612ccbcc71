"""Worst colorings and robust-chain values pinned bit for bit.

Each case is a seeded function on a hypercube (d <= 4) or a random DAG.
The pins were recorded while colorings were still edge-keyed mappings,
so they hold the bit-vector coloring to the same enumeration order,
restart draws and floating-point sums.  A coloring is written as one
character per violated edge in profile order, ``1`` for red; a value
as ``float.hex``.
"""

import random

import pytest

from monocube.decomposition import decompose, robust_chain_check
from monocube.funcs import ValuedFunction, random_function
from monocube.isoperimetry import EdgeColoring, violation_profile
from monocube.oracles import is_monotone, worst_coloring
from monocube.poset import PosetDomain, hypercube

# (input, exhaustive (coloring, value) or None, greedy (coloring, value),
#  chain values under the all-red, all-blue and one random coloring)
PINS = [
    (('cube', 1, 2, 900),
     ('0', '0x1.0000000000000p-1'),
     ('1', '0x1.0000000000000p-1'),
     (
         ('0x1.0000000000000p-1', '0x1.0000000000000p-1',
          '0x1.0000000000000p-1', '0x1.0000000000000p-1'),
         ('0x1.0000000000000p-1', '0x1.0000000000000p-1',
          '0x1.0000000000000p-1', '0x1.0000000000000p-1'),
         ('0x1.0000000000000p-1', '0x1.0000000000000p-1',
          '0x1.0000000000000p-1', '0x1.0000000000000p-1'),
     )),
    (('cube', 2, 3, 901),
     ('', '0x0.0p+0'),
     ('', '0x0.0p+0'),
     ()),
    (('cube', 3, 5, 902),
     ('110000', '0x1.095c653b5e21ep-1'),
     ('110000', '0x1.095c653b5e21ep-1'),
     (
         ('0x1.5a827999fcef3p-1', '0x1.8000000000000p-2',
          '0x1.8000000000000p-2', '0x1.8000000000000p-2'),
         ('0x1.2ed9eba16132ap-1', '0x1.8000000000000p-2',
          '0x1.8000000000000p-2', '0x1.8000000000000p-2'),
         ('0x1.5a827999fcef3p-1', '0x1.8000000000000p-2',
          '0x1.8000000000000p-2', '0x1.8000000000000p-2'),
     )),
    (('cube', 3, 2, 903),
     ('000', '0x1.3504f333f9de6p-2'),
     ('100', '0x1.3504f333f9de6p-2'),
     (
         ('0x1.8000000000000p-2', '0x1.0000000000000p-2',
          '0x1.0000000000000p-2', '0x1.0000000000000p-2'),
         ('0x1.3504f333f9de6p-2', '0x1.0000000000000p-2',
          '0x1.0000000000000p-2', '0x1.0000000000000p-2'),
         ('0x1.8000000000000p-2', '0x1.0000000000000p-2',
          '0x1.0000000000000p-2', '0x1.0000000000000p-2'),
     )),
    (('cube', 4, 3, 904),
     None,
     ('111111111111111', '0x1.46f4629ea766fp-1'),
     (
         ('0x1.46f4629ea766fp-1', '0x1.ea09e667f3bcdp-2',
          '0x1.ea09e667f3bcdp-2', '0x1.8f876ccdf6cdap-2'),
         ('0x1.695c653b5e21ep-1', '0x1.07c3b666fb66dp-1',
          '0x1.07c3b666fb66dp-1', '0x1.8f876ccdf6cdap-2'),
         ('0x1.a7c3b666fb66dp-1', '0x1.1a827999fcef3p-1',
          '0x1.1a827999fcef3p-1', '0x1.b504f333f9de6p-2'),
     )),
    (('cube', 4, 5, 905),
     None,
     ('11110101010000001', '0x1.93881e3f10439p-1'),
     (
         ('0x1.99b325d1a8ef5p-1', '0x1.47c3b666fb66dp-1',
          '0x1.47c3b666fb66dp-1', '0x1.cf876ccdf6cdap-2'),
         ('0x1.6e0a97d90d32dp-1', '0x1.1f30ac37ac002p-1',
          '0x1.1f30ac37ac002p-1', '0x1.cf876ccdf6cdap-2'),
         ('0x1.bf30ac37ac002p-1', '0x1.31ef6f6aad888p-1',
          '0x1.31ef6f6aad888p-1', '0x1.f504f333f9de6p-2'),
     )),
    (('cube', 1, 2, 906),
     ('', '0x0.0p+0'),
     ('', '0x0.0p+0'),
     ()),
    (('cube', 2, 3, 907),
     ('00', '0x1.6a09e667f3bcdp-2'),
     ('00', '0x1.6a09e667f3bcdp-2'),
     (
         ('0x1.0000000000000p-1', '0x1.0000000000000p-2',
          '0x1.0000000000000p-2', '0x1.0000000000000p-2'),
         ('0x1.6a09e667f3bcdp-2', '0x1.0000000000000p-2',
          '0x1.0000000000000p-2', '0x1.0000000000000p-2'),
         ('0x1.0000000000000p-1', '0x1.0000000000000p-2',
          '0x1.0000000000000p-2', '0x1.0000000000000p-2'),
     )),
    (('cube', 3, 5, 908),
     ('111', '0x1.bb67ae8584caap-3'),
     ('111', '0x1.bb67ae8584caap-3'),
     (
         ('0x1.bb67ae8584caap-3', '0x1.0000000000000p-3',
          '0x1.0000000000000p-3', '0x1.0000000000000p-3'),
         ('0x1.8000000000000p-2', '0x1.0000000000000p-3',
          '0x1.0000000000000p-3', '0x1.0000000000000p-3'),
         ('0x1.8000000000000p-2', '0x1.0000000000000p-3',
          '0x1.0000000000000p-3', '0x1.0000000000000p-3'),
     )),
    (('cube', 3, 2, 909),
     ('000', '0x1.3504f333f9de6p-2'),
     ('111', '0x1.3504f333f9de6p-2'),
     (
         ('0x1.3504f333f9de6p-2', '0x1.0000000000000p-2',
          '0x1.0000000000000p-2', '0x1.0000000000000p-2'),
         ('0x1.3504f333f9de6p-2', '0x1.0000000000000p-2',
          '0x1.0000000000000p-2', '0x1.0000000000000p-2'),
         ('0x1.3504f333f9de6p-2', '0x1.0000000000000p-2',
          '0x1.0000000000000p-2', '0x1.0000000000000p-2'),
     )),
    (('cube', 4, 3, 910),
     ('111000011100', '0x1.095c653b5e21ep-1'),
     ('111001011100', '0x1.095c653b5e21ep-1'),
     (
         ('0x1.2ed9eba16132ap-1', '0x1.4000000000000p-2',
          '0x1.4000000000000p-2', '0x1.4000000000000p-2'),
         ('0x1.47c3b666fb66dp-1', '0x1.4000000000000p-2',
          '0x1.4000000000000p-2', '0x1.4000000000000p-2'),
         ('0x1.576cf5d0b0995p-1', '0x1.4000000000000p-2',
          '0x1.4000000000000p-2', '0x1.4000000000000p-2'),
     )),
    (('cube', 4, 5, 911),
     None,
     ('111111100000000', '0x1.3db3d742c2655p-1'),
     (
         ('0x1.7c1b286e5faa4p-1', '0x1.8000000000000p-2',
          '0x1.8000000000000p-2', '0x1.8000000000000p-2'),
         ('0x1.8ed9eba16132ap-1', '0x1.8000000000000p-2',
          '0x1.8000000000000p-2', '0x1.8000000000000p-2'),
         ('0x1.a7c3b666fb66cp-1', '0x1.8000000000000p-2',
          '0x1.8000000000000p-2', '0x1.8000000000000p-2'),
     )),
    (('dag', 4, 2, 950),
     ('', '0x0.0p+0'),
     ('', '0x0.0p+0'),
     ()),
    (('dag', 5, 3, 951),
     ('', '0x0.0p+0'),
     ('', '0x0.0p+0'),
     ()),
    (('dag', 6, 5, 952),
     ('111', '0x1.279a74590331cp-2'),
     ('111', '0x1.279a74590331cp-2'),
     (
         ('0x1.279a74590331cp-2', '0x1.5555555555555p-3',
          '0x1.5555555555555p-3', '0x1.5555555555555p-3'),
         ('0x1.0000000000000p-1', '0x1.5555555555555p-3',
          '0x1.5555555555555p-3', '0x1.5555555555555p-3'),
         ('0x1.279a74590331cp-2', '0x1.5555555555555p-3',
          '0x1.5555555555555p-3', '0x1.5555555555555p-3'),
     )),
    (('dag', 7, 2, 953),
     ('00', '0x1.9dc22be484458p-3'),
     ('11', '0x1.2492492492492p-2'),
     (
         ('0x1.2492492492492p-2', '0x1.2492492492492p-3',
          '0x1.2492492492492p-3', '0x1.2492492492492p-3'),
         ('0x1.9dc22be484458p-3', '0x1.2492492492492p-3',
          '0x1.2492492492492p-3', '0x1.2492492492492p-3'),
         ('0x1.2492492492492p-2', '0x1.2492492492492p-3',
          '0x1.2492492492492p-3', '0x1.2492492492492p-3'),
     )),
    (('dag', 8, 3, 954),
     ('111', '0x1.bb67ae8584caap-3'),
     ('111', '0x1.bb67ae8584caap-3'),
     (
         ('0x1.bb67ae8584caap-3', '0x1.0000000000000p-3',
          '0x1.0000000000000p-3', '0x1.0000000000000p-3'),
         ('0x1.8000000000000p-2', '0x1.0000000000000p-3',
          '0x1.0000000000000p-3', '0x1.0000000000000p-3'),
         ('0x1.3504f333f9de6p-2', '0x1.0000000000000p-3',
          '0x1.0000000000000p-3', '0x1.0000000000000p-3'),
     )),
    (('dag', 9, 5, 955),
     ('11110', '0x1.5555555555555p-2'),
     ('11111', '0x1.5555555555555p-2'),
     (
         ('0x1.5555555555555p-2', '0x1.c71c71c71c71cp-3',
          '0x1.c71c71c71c71cp-3', '0x1.c71c71c71c71cp-3'),
         ('0x1.1c71c71c71c72p-1', '0x1.c71c71c71c71cp-3',
          '0x1.c71c71c71c71cp-3', '0x1.c71c71c71c71cp-3'),
         ('0x1.f63d49f54fe22p-2', '0x1.c71c71c71c71cp-3',
          '0x1.c71c71c71c71cp-3', '0x1.c71c71c71c71cp-3'),
     )),
    (('dag', 10, 2, 956),
     ('000', '0x1.ee6e51ecc2fd6p-3'),
     ('111', '0x1.ee6e51ecc2fd6p-3'),
     (
         ('0x1.ee6e51ecc2fd6p-3', '0x1.999999999999ap-3',
          '0x1.999999999999ap-3', '0x1.999999999999ap-3'),
         ('0x1.ee6e51ecc2fd6p-3', '0x1.999999999999ap-3',
          '0x1.999999999999ap-3', '0x1.999999999999ap-3'),
         ('0x1.3333333333334p-2', '0x1.999999999999ap-3',
          '0x1.999999999999ap-3', '0x1.999999999999ap-3'),
     )),
    (('dag', 11, 3, 957),
     ('000000000', '0x1.0acd08755df64p-1'),
     ('000100000', '0x1.0acd08755df64p-1'),
     (
         ('0x1.67e44e46d2536p-1', '0x1.f803999a2a161p-2',
          '0x1.f803999a2a161p-2', '0x1.9aec53c8b5b90p-2'),
         ('0x1.0acd08755df64p-1', '0x1.c17b904b99fdap-2',
          '0x1.c17b904b99fdap-2', '0x1.64644a7a25a09p-2'),
         ('0x1.4ca0499f8a473p-1', '0x1.f803999a2a162p-2',
          '0x1.f803999a2a161p-2', '0x1.9aec53c8b5b90p-2'),
     )),
    (('dag', 12, 5, 958),
     ('00110', '0x1.46b144454d288p-2'),
     ('11111', '0x1.46b144454d289p-2'),
     (
         ('0x1.46b144454d289p-2', '0x1.0000000000000p-2',
          '0x1.0000000000000p-2', '0x1.0000000000000p-2'),
         ('0x1.78adf777fbe99p-2', '0x1.0000000000000p-2',
          '0x1.0000000000000p-2', '0x1.0000000000000p-2'),
         ('0x1.aaaaaaaaaaaaap-2', '0x1.0000000000000p-2',
          '0x1.0000000000000p-2', '0x1.0000000000000p-2'),
     )),
    (('dag', 13, 2, 959),
     ('111111000', '0x1.cf07c5fbff2cep-2'),
     ('111111000', '0x1.cf07c5fbff2cep-2'),
     (
         ('0x1.cf07c5fbff2cfp-2', '0x1.7c54dc8ebd607p-2',
          '0x1.7c54dc8ebd608p-2', '0x1.7c54dc8ebd608p-2'),
         ('0x1.d69f31c41d8a2p-2', '0x1.74bd70c69f034p-2',
          '0x1.74bd70c69f034p-2', '0x1.74bd70c69f034p-2'),
         ('0x1.1973ef86fed9cp-1', '0x1.aa793333ad753p-2',
          '0x1.aa793333ad753p-2', '0x1.aa793333ad753p-2'),
     )),
]


def _function(kind, size, r, seed):
    if kind == "cube":
        return random_function(hypercube(size), r, seed)
    rng = random.Random(seed)
    edges = [(i, j) for i in range(size) for j in range(i + 1, size)
             if rng.random() < 0.35]
    return ValuedFunction(PosetDomain("dag", n=size, edges=edges),
                          tuple(rng.randint(1, r) for _ in range(size)))


def _pin(col, value):
    return "".join("1" if red else "0" for red in col.red.tolist()), value.hex()


@pytest.mark.parametrize("case", PINS, ids=lambda case: "-".join(map(str, case[0])))
def test_worst_coloring_and_chain_values_are_pinned(case):
    (kind, size, r, seed), exhaustive, greedy, chains = case
    f = _function(kind, size, r, seed)
    if exhaustive is not None:
        assert _pin(*worst_coloring(f, mode="exhaustive")) == exhaustive
    assert _pin(*worst_coloring(f, mode="greedy", restarts=3, seed=seed)) == greedy
    assert is_monotone(f) == (not chains)
    if chains:
        p = violation_profile(f)
        rng = random.Random(seed)
        colorings = (EdgeColoring.all_red(p), EdgeColoring.all_blue(p),
                     EdgeColoring.random(p, rng))
        got = [tuple(v.hex() for v in robust_chain_check(decompose(f), col).values)
               for col in colorings]
        assert got == list(chains)
