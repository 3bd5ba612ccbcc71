from monocube.seeds import derive_seed, parallel_map


def test_deterministic():
    assert derive_seed(5, 0) == derive_seed(5, 0)
    assert derive_seed(5, 0, 1) == derive_seed(5, 0, 1)


def test_distinct_streams():
    master = 123456789
    seeds = {derive_seed(master, i) for i in range(10_000)}
    assert len(seeds) == 10_000
    assert derive_seed(master, 3) != derive_seed(master + 1, 3)
    assert derive_seed(master, 3, 0) != derive_seed(master, 3)


def test_range():
    for i in range(100):
        s = derive_seed(0, i)
        assert 0 <= s < 2 ** 64


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records the worker count and
    maps in this process, so no worker process is started."""

    created: list = []

    def __init__(self, max_workers, mp_context=None):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        assert chunksize >= 1
        return map(fn, items)


def test_parallel_map_starts_at_most_one_worker_per_item(monkeypatch):
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    _SerialPool.created.clear()
    assert parallel_map(abs, [-3, 1, -2, 5], jobs=5000) == [3, 1, 2, 5]
    assert parallel_map(abs, range(-10, 0), jobs=3) == list(range(10, 0, -1))
    assert _SerialPool.created == [4, 3]
    # one worker, or one item, runs serially without a pool
    assert parallel_map(abs, [-1], jobs=8) == [1]
    assert parallel_map(abs, [-1, -2], jobs=1) == [1, 2]
    assert parallel_map(abs, [], jobs=4) == []
    assert _SerialPool.created == [4, 3]
