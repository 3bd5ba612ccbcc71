"""Deterministic seed derivation and the process pool for reproducible
randomized runs.

Every randomized component takes an explicit master seed.  Child streams
(per trial, per instance, per estimate) are derived with `derive_seed`,
a SplitMix64-style mixer, so that parallel workers and sequential runs
produce identical streams for the same master seed.  `parallel_map` is
the one process pool; it returns results in input order for any job
count.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *indices: int) -> int:
    """Derive a 64-bit child seed from a master seed and an index path.

    ``derive_seed(s, i)`` gives stream *i*; ``derive_seed(s, i, j)`` gives
    sub-stream *j* of stream *i*.  The derivation is pure arithmetic (no
    hashing of reprs), so it is stable across platforms and Python versions.
    """
    x = master & _MASK64
    for idx in indices:
        x = (x + _GAMMA * ((idx & _MASK64) + 1)) & _MASK64
        x = _mix(x)
    return x


def parallel_map(fn, items, jobs: int) -> list:
    """``[fn(x) for x in items]``, computed in at most
    ``min(jobs, len(items))`` worker processes; serial for one worker.
    Workers are spawned, so ``fn`` and the items must be picklable and
    ``fn`` importable when it runs in parallel."""
    items = list(items)
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers))))
