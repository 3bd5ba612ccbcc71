"""Seeded inputs and fixed job lists for the three benchmark workloads.

A workload seed fixes every input: random value tables, monotone
closures and DAG edge lists are drawn here from ``random.Random(seed)``
and written as monocube function files.  The two seedless paper
constructions (the hard instance and the anti-dictator) come from
monocube's own generators.  Every size stays inside monocube's default
limits (non-Boolean exact solves at most 64 vertices, Boolean at most
1024, matching solver at most 256), so no job depends on a limit flag.

A job is either one ``monocube.cli.main(argv)`` call or one documented
library call.  Each ``Job`` carries what the output checker needs to
know about its input.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

from monocube.funcs import anti_dictator
from monocube.hard_instances import LowerBoundSpec, lower_bound_function

WORKLOADS = ("sweep-d6", "exact-large", "estimate-queries")

# Seconds one pass of each full-size job list takes on a 2-core x86-64
# container with Python 3.11.7, numpy 2.4.6 and networkx 3.6.1.  A run
# makes round(seconds / NOMINAL_PASS_S) passes, so the amount of work
# depends only on the workload and --seconds, never on the machine:
# two commits are always compared on identical job multisets.
NOMINAL_PASS_S = {"sweep-d6": 10.0, "exact-large": 11.0, "estimate-queries": 10.0}


@dataclass
class Job:
    id: str
    kind: str                 # a CLI command name, or "profile_dump"
    argv: list[str] = field(default_factory=list)
    fn: str = ""              # input function file
    info: dict = field(default_factory=dict)  # what the checker knows

    def plan_entry(self) -> dict:
        return {"id": self.id, "kind": self.kind, "argv": self.argv, "fn": self.fn}


@dataclass
class Plan:
    workload: str
    seed: int
    jobs: list[Job]


# -- input generation (the benchmark's own code) ---------------------------------


def random_table(rng: random.Random, n: int, r: int) -> list[int]:
    """i.i.d. uniform values in 1..r (0..1 for r = 2 gives a Boolean table)."""
    low = 0 if r == 2 else 1
    return [rng.randint(low, low + r - 1) for _ in range(n)]


def monotone_closure(d: int, values: list[int]) -> list[int]:
    """g(x) = max of values over the down-set of x, one coordinate at a time."""
    out = list(values)
    for i in range(d):
        bit = 1 << i
        for x in range(1 << d):
            if x & bit and out[x ^ bit] > out[x]:
                out[x] = out[x ^ bit]
    return out


def random_dag(rng: random.Random, n: int, m: int) -> tuple[list[int], list[list[int]]]:
    """A DAG on n vertices with m distinct edges, all pointing forward in a
    random topological order.  Returns (order, edges)."""
    order = list(range(n))
    rng.shuffle(order)
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((order[a], order[b]))
    return order, [list(e) for e in sorted(edges)]


def _write(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _hypercube_file(work: str, name: str, d: int, values: list) -> str:
    return _write(os.path.join(work, name + ".json"), {"d": d, "values": values})


# -- job lists -----------------------------------------------------------------


def _cli(job_id: str, command: str, args: list[str], out_dir: str, **info) -> Job:
    out = os.path.join(out_dir, job_id + ".json")
    return Job(job_id, command, [command, *args, "--out", out], info=info)


def build(workload: str, seed: int, work: str, smoke: bool = False) -> Plan:
    """Write the workload's inputs under ``work`` and return its job list.

    ``smoke`` shrinks every size so the whole benchmark runs in seconds;
    it exists for the benchmark's own tests.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    make_jobs = {"sweep-d6": _sweep, "exact-large": _exact_large,
                 "estimate-queries": _estimate_queries}[workload]
    return Plan(workload, seed, make_jobs(rng, work, out_dir, smoke))


def _sweep(rng: random.Random, work: str, out_dir: str, smoke: bool) -> list[Job]:
    """verify-inequalities at d=6, r=8: many small exact solves per job."""
    d, r, count, jobs = (4, 4, 2, 3) if smoke else (6, 8, 4, 75)
    out = []
    for j in range(jobs):
        job_seed = rng.getrandbits(32)
        out.append(_cli(f"sweep-{j:02d}", "verify-inequalities",
                        ["--d", str(d), "--r", str(r), "--count", str(count),
                         "--seed", str(job_seed), "--jobs", "1"],
                        out_dir, d=d, r=r, count=count))
    return out


def _exact_large(rng: random.Random, work: str, out_dir: str, smoke: bool) -> list[Job]:
    """A few large exact jobs: Boolean exact distance and decompositions on
    the hypercube and on a random DAG, and a full violation-profile dump."""
    if smoke:
        d_exact, n_exact, d_dec, n_dec, dag_n, n_dag, d_prof, n_prof = 4, 2, 4, 2, 16, 2, 6, 1
    else:
        d_exact, n_exact, d_dec, n_dec, dag_n, n_dag, d_prof, n_prof = 10, 20, 8, 2, 256, 2, 16, 7
    jobs = []
    for j in range(n_exact):
        values = random_table(rng, 1 << d_exact, 2)
        fn = _hypercube_file(work, f"exact-b{d_exact}-{j}", d_exact, values)
        jobs.append(_cli(f"exact-b{d_exact}-{j}", "exact-distance", ["--fn", fn], out_dir,
                         d=d_exact, values=values))
    for j in range(n_dec):
        values = random_table(rng, 1 << d_dec, 2)
        fn = _hypercube_file(work, f"decompose-b{d_dec}-{j}", d_dec, values)
        jobs.append(_cli(f"decompose-b{d_dec}-{j}", "decompose", ["--fn", fn], out_dir,
                         d=d_dec, values=values))
    for j in range(n_dag):
        order, edges = random_dag(rng, dag_n, 3 * dag_n)
        values = random_table(rng, dag_n, 2)
        name = f"decompose-dag{dag_n}-{j}"
        _write(os.path.join(work, name + ".domain.json"), {"n": dag_n, "edges": edges})
        fn = _write(os.path.join(work, name + ".json"),
                    {"domain": name + ".domain.json", "values": values})
        jobs.append(_cli(name, "decompose", ["--fn", fn], out_dir,
                         order=order, edges=edges, values=values))
    for j in range(n_prof):
        values = random_table(rng, 1 << d_prof, 8)
        fn = _hypercube_file(work, f"profile-d{d_prof}-{j}", d_prof, values)
        jobs.append(Job(f"profile-d{d_prof}-{j}", "profile_dump", fn=fn,
                        info={"d": d_prof, "values": values}))
    return jobs


def _estimate_queries(rng: random.Random, work: str, out_dir: str, smoke: bool) -> list[Job]:
    """The query-driven side: distance approximation and the pair tester."""
    if smoke:
        hard_alpha, d_mono, mono_alpha, d_test, trials = 0.4, 4, 0.3, 4, 2
        n_hard, n_mono, n_test = 1, 1, 1
    else:
        hard_alpha, d_mono, mono_alpha, d_test, trials = 0.1, 9, 0.2, 16, 40
        n_hard, n_mono, n_test = 2, 2, 5
    spec = LowerBoundSpec(9, 7, 2)
    hard = _hypercube_file(work, "hard-d9-r7-i2", 9, list(lower_bound_function(spec).values))
    anti = _hypercube_file(work, f"anti-d{d_test}", d_test, list(anti_dictator(d_test).values))
    jobs = []
    for j in range(n_hard):
        jobs.append(_cli(f"approx-hard-{j}", "approx-distance",
                         ["--fn", hard, "--alpha", str(hard_alpha),
                          "--seed", str(rng.getrandbits(32))],
                         out_dir, monotone=False, alpha=hard_alpha))
    for j in range(n_mono):
        values = monotone_closure(d_mono, random_table(rng, 1 << d_mono, 8))
        fn = _hypercube_file(work, f"mono-d{d_mono}-{j}", d_mono, values)
        jobs.append(_cli(f"approx-mono{d_mono}-{j}", "approx-distance",
                         ["--fn", fn, "--alpha", str(mono_alpha),
                          "--seed", str(rng.getrandbits(32))],
                         out_dir, monotone=True, alpha=mono_alpha))
    for j in range(n_test):
        jobs.append(_cli(f"test-anti{d_test}-{j}", "test-monotone",
                         ["--fn", anti, "--eps", "0.5", "--trials", str(trials),
                          "--seed", str(rng.getrandbits(32)), "--jobs", "1"],
                         out_dir, monotone=False, trials=trials))
        values = monotone_closure(d_test, random_table(rng, 1 << d_test, 8))
        fn = _hypercube_file(work, f"mono-d{d_test}-{j}", d_test, values)
        jobs.append(_cli(f"test-mono{d_test}-{j}", "test-monotone",
                         ["--fn", fn, "--eps", "0.5", "--trials", str(trials),
                          "--seed", str(rng.getrandbits(32)), "--jobs", "1"],
                         out_dir, monotone=True, trials=trials))
    return jobs
