"""Digest every job of the benchmark's seed-3 plans, run in this process.

Usage:  python tests/plan_digests.py [WORKDIR]

Builds the seed-3 plan of each workload in `perfbench/workloads.py` under
WORKDIR (a temporary directory, removed afterwards, by default), runs
every job in-process and prints one line per job: the workload, the job
id, its exit code and the SHA-256 of its output with ``meta`` removed
("-" when it wrote none).  A report's ``meta`` holds the input's absolute
path, so without it the lines of two checkouts can be compared with one
diff, wherever each one lies.  This is a script, not a test.
"""

import contextlib
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from monocube import cli, isoperimetry  # noqa: E402
from monocube.funcs import read_function  # noqa: E402

SEED = 3


def run(job) -> tuple[int, dict | None]:
    """The job's exit code and output, as perfbench's worker runs it."""
    if job.kind == "profile_dump":
        return 0, isoperimetry.profile_dump(read_function(job.fn))
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(job.argv)
    out = job.argv[job.argv.index("--out") + 1]
    if not os.path.exists(out):
        return code, None
    with open(out) as fh:
        output = json.load(fh)
    os.remove(out)
    return code, output


def digest(output: dict | None) -> str:
    if output is None:
        return "-"
    text = json.dumps({k: v for k, v in output.items() if k != "meta"}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def print_digests(work: str) -> None:
    for workload in workloads.WORKLOADS:
        for job in workloads.build(workload, SEED, os.path.join(work, workload)).jobs:
            code, output = run(job)
            print(workload, job.id, code, digest(output), flush=True)


def main(argv: list[str]) -> int:
    if argv:
        print_digests(argv[0])
    else:
        with tempfile.TemporaryDirectory(prefix="plan-digests-") as work:
            print_digests(work)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
