"""`testers.pair_draws` against the exact pair-test distribution D_pair(b, tau).

For small d the law of (x, y) is enumerated exactly and compared with the
draws by a chi-square test; for the large d the paper needs, each draw is
checked to have the structure every D_pair(b, tau) draw has.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from monocube.funcs import index_dtype
from monocube.testers import pair_draws, tau_schedule


def d_pair_law(d, b, tau):
    """P(x, y) under D_pair(b, tau) as a 2^d x 2^d array: x uniform, then a
    uniform tau-subset of x's b-coordinates flipped, or y = x when x has
    fewer than tau of them."""
    law = np.zeros((1 << d, 1 << d))
    for x in range(1 << d):
        subsets = list(combinations([i for i in range(d) if x >> i & 1 == b], tau))
        for subset in subsets:
            law[x, x ^ sum(1 << i for i in subset)] += 1 / len(subsets)
        if not subsets:
            law[x, x] = 1
    return law / (1 << d)


def chi2_sf(stat, dof):
    """P(chi^2 with dof degrees of freedom >= stat), from the series of the
    lower incomplete gamma function."""
    a, half = dof / 2, stat / 2
    if half == 0:
        return 1.0
    term = total = 1 / a
    n = 0
    while term > 1e-17 * total:
        n += 1
        term *= half / (a + n)
        total += term
    return max(0.0, 1 - math.exp(a * math.log(half) - half - math.lgamma(a)) * total)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_pair_draws_follow_d_pair_exactly(d):
    """Every b and every tau in 1..d, 200,000 draws each, one seed per
    setting.  The pass rule was fixed before the first run: no draw falls
    outside the support of D_pair(b, tau), and the Pearson chi-square
    statistic over the support has p >= 1e-4.  A correct sampler fails
    some setting of the 30 with probability below 0.3%."""
    draws = 200_000
    for b in (0, 1):
        for tau in range(1, d + 1):
            pairs = pair_draws(np.random.default_rng(100 * d + 10 * b + tau), d, [(b, tau)],
                               draws)[0].astype(np.int64)
            counts = np.bincount(pairs[:, 0] << d | pairs[:, 1], minlength=1 << 2 * d)
            law = d_pair_law(d, b, tau).ravel()
            support = law > 0
            assert counts[~support].sum() == 0, (d, b, tau)
            expect = draws * law[support]
            stat = float(((counts[support] - expect) ** 2 / expect).sum())
            assert chi2_sf(stat, support.sum() - 1) >= 1e-4, (d, b, tau, stat)


@pytest.mark.parametrize("d", [25, 49, 63])
def test_pair_draws_flip_tau_b_coordinates(d):
    """y = x exactly when x has fewer than tau b-coordinates; otherwise
    y - x flips exactly tau of them."""
    taus = sorted({*tau_schedule(d), d // 2, d})
    settings = [(b, tau) for b in (0, 1) for tau in taus]
    pairs = pair_draws(np.random.default_rng(d), d, settings, 1500)
    assert pairs.dtype == index_dtype(1 << d)
    full = (1 << d) - 1
    degenerate = 0
    for (b, tau), rows in zip(settings, pairs.tolist()):
        for x, y in rows:
            coords = x if b else ~x & full
            flip = x ^ y
            if coords.bit_count() < tau:
                assert y == x, (b, tau, x, y)
                degenerate += 1
            else:
                assert flip.bit_count() == tau and flip & coords == flip, (b, tau, x, y)
    assert 0 < degenerate < pairs.shape[0] * pairs.shape[1]


@pytest.mark.parametrize("settings", [[(0, 1), (1, 0)], [(0, 1), (1, 5)], [(0, 5)]],
                         ids=["tau0", "tau-above-d", "only-setting"])
def test_pair_draws_rejects_a_bad_tau_before_drawing(settings):
    rng = np.random.default_rng(11)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="must lie in 1..d=4"):
        pair_draws(rng, 4, settings, 640)
    assert rng.bit_generator.state == state
