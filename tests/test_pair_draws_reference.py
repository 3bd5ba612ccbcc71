"""`testers.pair_draws` against the argpartition selection it replaced.

The reference draws the same x and keys from the generator, picks each
row's tau smallest keys with one `np.argpartition`, and decides the
degenerate case by counting x's b-coordinates.  Both pick the same
subset whenever a row's keys are distinct, so on fixed seeds the arrays
must be equal, dtype included.
"""

import numpy as np
import pytest

from monocube.funcs import index_dtype
from monocube.testers import pair_draws, tau_schedule


def argpartition_pair_draws(rng, d, settings, reps):
    dtype = index_dtype(1 << d)
    x = rng.integers(0, 1 << d, size=(len(settings), reps), dtype=dtype)
    keys = rng.random((len(settings), reps, d))
    b_col = np.array([b for b, _ in settings], dtype=dtype)[:, None, None]
    other = (x[..., None] >> np.arange(d, dtype=dtype) & 1) ^ b_col  # 1 where x's bit is not b
    keys += other
    pairs = np.stack([x, x], axis=-1)
    for s, (_, tau) in enumerate(settings):
        chosen = np.argpartition(keys[s], tau - 1, axis=1)[:, :tau]
        enough = d - other[s].sum(axis=1) >= tau
        pairs[s, enough, 1] ^= (1 << chosen[enough]).sum(axis=1).astype(dtype)
    return pairs


@pytest.mark.parametrize("d", [1, 2, 3, 4, 9, 16, 25, 49, 63])
def test_pair_draws_match_the_argpartition_selection(d):
    settings = [(b, tau) for b in (0, 1) for tau in sorted({*tau_schedule(d), d})]
    for seed in range(20):
        reps = (640, 1, 97, 2000)[seed % 4]
        got = pair_draws(np.random.default_rng(seed), d, settings, reps)
        want = argpartition_pair_draws(np.random.default_rng(seed), d, settings, reps)
        assert got.dtype == want.dtype == index_dtype(1 << d)
        assert np.array_equal(got, want), (d, seed, reps)


@pytest.mark.parametrize("settings", [[(0, 1), (1, 0)], [(0, 1), (1, 5)], [(0, 5)]],
                         ids=["tau0", "tau-above-d", "only-setting"])
def test_pair_draws_rejects_a_bad_tau_before_drawing(settings):
    rng = np.random.default_rng(11)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="must lie in 1..d=4"):
        pair_draws(rng, 4, settings, 640)
    assert rng.bit_generator.state == state
