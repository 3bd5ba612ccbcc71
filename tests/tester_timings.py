"""Time the pair tester's trials on a fixed grid, each row in a child process.

Usage:  python tests/tester_timings.py [REPEATS]
        python tests/tester_timings.py --row KIND D REPEATS

Prints one line per row: its name, the least of REPEATS (default 5) wall
times of one `measure_rejection` of 40 trials with the settings of
``test-monotone --eps 0.5`` (epsilon 0.5, r the function's image size,
the default budget), the least times of its two stages over the same
chunks, each timed on its own (the stacked schedules, `Schedule.draw`,
and their evaluation, `Schedule.evaluate`), and the child's peak RSS in
MB.  The rows are ``anti d`` and ``mono d`` for d in {16, 20, 49}:

* ``anti``: the anti-dictator 1 - x_1, which every trial rejects;
* ``mono``: min(7, |x & M|) for a random mask M of d/2 coordinates, a
  monotone function with 8 values, which every trial accepts.

Both are rules evaluated at the queried vertices, not value tables, so
d = 49 runs past the table budget and a row's peak RSS is its trials'.
This is a script, not a test.
"""

import os
import random
import resource
import subprocess
import sys
import time
from functools import partial

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

from monocube.funcs import CountingOracle  # noqa: E402
from monocube.poset import hypercube, row_chunks  # noqa: E402
from monocube.seeds import derive_seed  # noqa: E402
from monocube.testers import measure_rejection, pair_schedule  # noqa: E402

ROWS = [(kind, d) for d in (16, 20, 49) for kind in ("anti", "mono")]
TRIALS, SEED = 40, 0


class RuleFunction:
    """A function on the d-cube given by a rule on vertex arrays: the
    oracle's ``np.take`` of its ranks and a witness's ``values[x]`` both
    evaluate the rule, so no table of 2^d values is built."""

    def __init__(self, d: int, levels: tuple, rank):
        self.domain, self.levels, self.rank = hypercube(d), levels, rank
        self.ranks = self.values = self

    def take(self, xs, **_):
        return self.rank(xs)

    def __getitem__(self, x: int):
        return self.levels[int(self.rank(np.uint64(x)))]


def rule_function(kind: str, d: int) -> RuleFunction:
    if kind == "anti":
        return RuleFunction(d, (0, 1), lambda xs: (1 - (xs & 1)).astype(np.uint8))
    mask = sum(1 << i for i in random.Random(d).sample(range(d), d // 2))
    return RuleFunction(d, tuple(range(1, 9)),
                        lambda xs: np.minimum(np.bitwise_count(xs & mask), 7))  # uint8


def time_once(f: RuleFunction) -> tuple[float, float, float]:
    """Seconds of one `measure_rejection`, and of its draw and evaluation
    stages run on their own over the same chunks."""
    run = partial(pair_schedule, epsilon=0.5, r=len(f.levels))
    start = time.perf_counter()
    measure_rejection(f, run, TRIALS, SEED)
    total = time.perf_counter() - start
    schedule = run(f.domain.d)
    seeds = [derive_seed(SEED, t) for t in range(TRIALS)]
    draw = evaluate = 0.0
    for rows in row_chunks(TRIALS, schedule.trial_bytes):
        start = time.perf_counter()
        pairs = schedule.draw(seeds[rows])
        drawn = time.perf_counter()
        schedule.evaluate(CountingOracle(f), pairs)
        draw, evaluate = draw + drawn - start, evaluate + time.perf_counter() - drawn
    return total, draw, evaluate


def run_row(kind: str, d: int, repeats: int) -> str:
    f = rule_function(kind, d)
    total, draw, evaluate = map(min, zip(*(time_once(f) for _ in range(repeats))))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return (f"{kind} d={d:<4} {total:9.4f} s  draw {draw:9.4f} s  "
            f"evaluate {evaluate:9.4f} s {rss:8.1f} MB")


def main(argv: list[str]) -> int:
    if argv[:1] == ["--row"]:
        kind, d, repeats = argv[1], *map(int, argv[2:4])
        print(run_row(kind, d, repeats), flush=True)
        return 0
    repeats = int(argv[0]) if argv else 5
    for kind, d in ROWS:
        subprocess.run([sys.executable, os.path.abspath(__file__), "--row", kind,
                        str(d), str(repeats)], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
