"""Golden digests of fixed-seed CLI reports and of one profile dump.

Each report digest is the SHA-256 of the report's canonical JSON (sorted keys,
compact separators) with ``meta.elapsed_seconds`` removed and the input
path in ``meta.config.fn`` reduced to its file name.  A digest changes
only when a fixed-seed result changes, which is a reproducibility-contract
change and has to be announced as one.  The profile-dump digest is taken
over the whole dump in the same canonical form.
"""

import hashlib
import json
import os
import random

import pytest

from monocube.cli import main
from monocube.funcs import ValuedFunction, anti_dictator, random_function, \
    random_monotone, write_function
from monocube.hard_instances import LowerBoundSpec, lower_bound_function
from monocube.isoperimetry import profile_dump
from monocube.poset import PosetDomain, hypercube
from proof_checks import threshold


def _mixed_values(d):
    """Ints and halves, so the rank view sees a mix of ints and floats."""
    return tuple((x * 37 % 11) + (0.5 if x % 3 == 0 else 0) for x in range(1 << d))


def _tied_values(d, seed):
    """Ranks 1..4 with every fourth vertex stored as a float, so equal
    values appear both as ``1`` and as ``1.0``; the repaired values in an
    exact-distance report keep whichever object the repair copies."""
    values = random_function(hypercube(d), 4, seed).values
    return tuple(float(v) if x % 4 == 1 else v for x, v in enumerate(values))


def _random_dag(n, m, seed):
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    while len(edges) < m:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((order[a], order[b]))
    return PosetDomain("dag", n=n, edges=sorted(edges))


INPUTS = {
    "hard-d9.json": lambda: lower_bound_function(LowerBoundSpec(9, 7, 2)),
    "mixed-d6.json": lambda: ValuedFunction(hypercube(6), _mixed_values(6)),
    "anti-d10.json": lambda: anti_dictator(10),
    "mono-d6.json": lambda: random_monotone(hypercube(6), 5, 4),
    "bool-d8.json": lambda: threshold(random_function(hypercube(8), 2, 7), 1),
    "tied-d5.json": lambda: ValuedFunction(hypercube(5), _tied_values(5, 3)),
    "tied-d6.json": lambda: ValuedFunction(hypercube(6), _tied_values(6, 8)),
    "dag-n40.json": lambda: random_function(_random_dag(40, 90, 6), 3, 6),
    "r6-d9.json": lambda: random_function(hypercube(9), 6, 9),
}

GOLDEN = [
    (["approx-distance", "--fn", "hard-d9.json", "--alpha", "0.2", "--seed", "5"],
     "2de9ce2411e35921ee3f89e55847d1c60e3b553ea499d72f37d23c596788b3dd"),
    (["approx-distance", "--fn", "mixed-d6.json", "--alpha", "0.1", "--seed", "2"],
     "7e5911f302d37bc68f8003f4d0aaadac50bcb1f2f5dc2d8f56ce10d4146feb68"),
    (["approx-distance", "--fn", "mono-d6.json", "--alpha", "0.1", "--seed", "4"],
     "21995b4eb1873ab22f2ae62a796c5b7d2e5fb206d1a91727c886ec89ecb5d6f6"),
    (["test-monotone", "--fn", "mixed-d6.json", "--eps", "0.5", "--trials", "8",
      "--seed", "3"],
     "7d19b6868ea0ca801c0181b4e37e332c16aae00f4c7db78bb58f7e28a5f307b7"),
    (["test-monotone", "--fn", "anti-d10.json", "--eps", "0.5", "--trials", "5",
      "--seed", "1"],
     "b02364457a1ea2828de210ea82c8a25a4303f47c5dab27e6d526a0d78f7100a1"),
    (["exact-distance", "--fn", "bool-d8.json"],
     "a6c94a099b31dd327c0f28f05d0f603f1b63109eb495ab632c4bee94437b1b83"),
    (["exact-distance", "--fn", "tied-d5.json"],
     "b1ca16815dcf36618b102688b66ff24594a47dfbbd5cb9a3088368a5f30432fa"),
    (["decompose", "--fn", "tied-d6.json"],
     "b18f313a26dc7d3f0790cc993e5e621504c6a2c8b3aa5a0fa648ba5e0c9ffbda"),
    (["decompose", "--fn", "bool-d8.json"],
     "b7df756f132ed63c4d54fcbb6543f88c9fab73fcb7d4dfe7aff1de0972723ceb"),
    (["decompose", "--fn", "dag-n40.json"],
     "3f413b8e6c3ffeb9b1f5c08fd9c0410e76e24f2e787b3db0e639f1c0235f9ab1"),
    (["exact-distance", "--fn", "dag-n40.json"],
     "8c9947a58d1a798efe3c439bc0cfda8f459a7bbda8b2823e470c1178d2e285e2"),
    (["exact-distance", "--fn", "r6-d9.json"],
     "bf948986d99f972884a81cb61104f6f7e49a3819cc3717d07165a1a89e6e1e1d"),
]

# the command of the benchmark's sweep-d6 jobs, smaller: exact solves,
# decompositions and chain checks of six non-Boolean functions
VERIFY_INEQUALITIES = (
    ["verify-inequalities", "--d", "5", "--r", "6", "--count", "6", "--seed", "11"],
    "5f12f2fc1ffb54acf62a2a54d817753230a23c7e33615ec44dbba041c250d333")

PROFILE_DUMP_D8 = "ff3959bad91fcfe3bcd33516972cf1723a49d846d399c611efc4c0bec13dacbf"


def report_digest(path):
    with open(path) as fh:
        report = json.load(fh)
    report["meta"].pop("elapsed_seconds")
    config = report["meta"]["config"]
    if "fn" in config:
        config["fn"] = os.path.basename(config["fn"])
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv,digest", GOLDEN,
                         ids=[f"{argv[0]}-{argv[2].split('.')[0]}" for argv, _ in GOLDEN])
def test_golden_report_digest(tmp_path, argv, digest):
    fn = argv[argv.index("--fn") + 1]
    write_function(INPUTS[fn](), str(tmp_path / fn))
    argv = [str(tmp_path / a) if a in INPUTS else a for a in argv]
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert report_digest(out) == digest


def test_golden_verify_inequalities_digest(tmp_path):
    argv, digest = VERIFY_INEQUALITIES
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert report_digest(out) == digest


def test_golden_profile_dump_digest():
    f = ValuedFunction(hypercube(8), _mixed_values(8))
    text = json.dumps(profile_dump(f), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PROFILE_DUMP_D8
