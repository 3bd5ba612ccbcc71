"""Time the exact solve on a fixed grid of inputs, each row in a child process.

Usage:  python tests/solve_timings.py [REPEATS]
        python tests/solve_timings.py --row KIND D R REPEATS

Prints one line per row: its name, the least of REPEATS (default 5) wall
times in seconds, the least time of the exact solve within it, and the
child's peak RSS in MB.  The rows are

* ``single d r``: `exact_distance` of one fresh
  `random_function(hypercube(d), r, 0)`, for d in {10, 12}, r in {2, 8};
* ``parts d``: `Decomposition.epsilons` of the decompositions of
  `random_function(hypercube(d), 8, seed)`, seeds 0-3, which solves f
  alone and its parts in one union solve, timed as the sum over the
  four, for d in {6, 8};
* ``decompose d r``: `decompose` of `random_function(hypercube(12), r, 0)`
  and the read of its certificate, from a fresh decomposition each
  repeat, for r in {2, 8}; the solve is the certificate's read, which
  solves f and its parts and runs the checks.  The Boolean row's
  matching is networkx's.

Each row runs in its own process, so its peak RSS is its own; a repeat
after the first finds the domain's pair arrays cached.  This is a
script, not a test.
"""

import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src")]

from monocube.decomposition import decompose  # noqa: E402
from monocube.funcs import random_function  # noqa: E402
from monocube.oracles import exact_distance  # noqa: E402
from monocube.poset import hypercube  # noqa: E402

ROWS = [("single", 10, 2), ("single", 10, 8), ("single", 12, 2), ("single", 12, 8),
        ("parts", 6, 8), ("parts", 8, 8), ("decompose", 12, 8), ("decompose", 12, 2)]


def time_once(kind: str, d: int, r: int) -> tuple[float, float]:
    """Seconds of one repeat of a row, and of the exact solve within it."""
    if kind == "single":
        f = random_function(hypercube(d), r, 0)
        start = time.perf_counter()
        exact_distance(f)
        return (time.perf_counter() - start,) * 2
    if kind == "parts":
        decs = [decompose(random_function(hypercube(d), r, seed)) for seed in range(4)]
        start = time.perf_counter()
        for dec in decs:
            dec.epsilons
        return (time.perf_counter() - start,) * 2
    f = random_function(hypercube(d), r, 0)
    start = time.perf_counter()
    dec = decompose(f)
    solve = time.perf_counter()
    assert dec.certificate.all_ok
    end = time.perf_counter()
    return end - start, end - solve


def run_row(kind: str, d: int, r: int, repeats: int) -> str:
    total, solve = map(min, zip(*(time_once(kind, d, r) for _ in range(repeats))))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    name = f"{kind} d={d}" + ("" if kind == "parts" else f" r={r}")
    return f"{name:<22} {total:9.4f} s  solve {solve:9.4f} s {rss:8.1f} MB"


def main(argv: list[str]) -> int:
    if argv[:1] == ["--row"]:
        kind, d, r, repeats = argv[1], *map(int, argv[2:5])
        print(run_row(kind, d, r, repeats), flush=True)
        return 0
    repeats = int(argv[0]) if argv else 5
    for kind, d, r in ROWS:
        subprocess.run([sys.executable, os.path.abspath(__file__), "--row", kind,
                        str(d), str(r), str(repeats)], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
