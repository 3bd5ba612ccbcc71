"""monocube benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-d6 --seed 1 --seconds 20 --trace 0

The client is a single closed loop: one job at a time, the next job only
after the previous one returns, and monocube itself runs with ``--jobs 1``.
Parallel scaling is deliberately not measured; wall-clock scaling on two
shared cores would measure the scheduler.

A run makes a fixed number of passes over the workload's fixed job list
(see ``workloads.NOMINAL_PASS_S``).  Each pass is a fresh workload process
(``worker.py``) that imports monocube from ``src/`` and calls
``monocube.cli.main(argv)`` or one library function per job.  Every job's
output is checked (``checks.py``) and must be identical in every pass.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes traced from outside the package
(``tracer.py``) and prints the per-layer metrics, including the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Metric names and units are read from ``BENCHMARK.json``.

``--record-reference 0-15`` rewrites ``reference.json``: the exact results
(distances, violated-edge counts, part counts) of the given seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_SAMPLES = 7        # set-up measurements per run, worker start-ups included
RUN_BUDGET_S = 160       # every workload process of a run must end by then
TAIL_BEYOND = 10         # job_tail_s: highest percentile with this many jobs above it
# Seconds worker.calibrate() takes on an uncontended 2-core x86-64 container
# with Python 3.11.7.  Job times are reported at that reference speed: each
# job's measured seconds times CALIBRATION_REF_S over the mean of the
# calibration times just before and after it, and set-up time likewise with
# the calibration right after set-up.  On shared machines the interpreter's
# speed drifts by up to 2x within seconds to minutes, and the calibration
# loop drifts with it.
CALIBRATION_REF_S = 0.0065
RECORDED_WORKLOADS = ("sweep-d6", "exact-large")


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def run_worker(argv: list[str], deadline: float) -> tuple[float, dict | None, str]:
    """Spawn one workload process and wait for it until ``deadline`` (a
    ``time.perf_counter`` value); return (set-up seconds at reference
    speed, result, error)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *argv], stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        calibration, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return 0.0, None, f"worker still running after the {RUN_BUDGET_S} s run budget"
    if ready.strip() != "ready" or proc.returncode != 0:
        return setup, None, f"worker exited with code {proc.returncode}"
    setup *= CALIBRATION_REF_S / float(calibration)
    if argv == ["--setup-only"]:
        return setup, None, ""
    with open(argv[1]) as fh:
        return setup, json.load(fh), ""


def run_passes(plan, work: str, passes: int, trace: bool, deadline: float) -> dict:
    """Run the job list ``passes`` times untraced (and as often traced,
    alternating, with ``trace``), keeping each worker's set-up time."""
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump([job.plan_entry() for job in plan.jobs], fh)
    runs = {"untraced": [], "traced": [], "setup": [], "errors": []}
    order = [False, True] * passes if trace else [False] * passes
    for index, traced in enumerate(order):
        result_path = os.path.join(work, f"pass{index}.json")
        setup, result, error = run_worker([plan_path, result_path, "1" if traced else "0"],
                                          deadline)
        if error:
            runs["errors"].append(f"pass {index}: {error}")
            continue
        runs["setup"].append(setup)
        runs["traced" if traced else "untraced"].append(result)
    return runs


def sample_setup(runs: dict, deadline: float) -> None:
    """Top up the set-up samples with import-only workload processes."""
    while len(runs["setup"]) < SETUP_SAMPLES:
        setup, _, error = run_worker(["--setup-only"], deadline)
        if error:
            runs["errors"].append(f"set-up probe: {error}")
            return
        runs["setup"].append(setup)


def check_runs(plan, runs: dict, passes: int, trace: bool, references: dict | None):
    """Check every job's output and its repetition across passes.

    Returns (attempted, failed jobs, failure messages, diagnostics)."""
    import checks

    results = runs["untraced"] + runs["traced"]
    expected_passes = passes * (2 if trace else 1)
    attempted = expected_passes * len(plan.jobs)
    messages = list(runs["errors"])
    failed = (expected_passes - len(results)) * len(plan.jobs)
    diagnostics = {}
    if not results:
        return attempted, failed, messages, diagnostics
    first = {job["id"]: job for job in results[0]["jobs"]}
    bad = set()
    for job in plan.jobs:
        got = first[job.id]
        ref = (references or {}).get(job.id)
        problems, diag = checks.check_job(job, got["exit"], got["output"], ref)
        if got["error"]:
            problems.insert(0, got["error"])
        if problems:
            bad.add(job.id)
            messages.extend(f"{job.id}: {p}" for p in problems)
        if diag:
            diagnostics[job.id] = diag
    for index, result in enumerate(results):
        for got in result["jobs"]:
            ref = first[got["id"]]
            if got["digest"] != ref["digest"] or got["exit"] != ref["exit"]:
                messages.append(f"{got['id']}: output differs between passes 0 and {index}")
                failed += 1
            elif got["id"] in bad:
                failed += 1
    traces = [r["trace"] for r in runs["traced"]]
    for index, summary in enumerate(traces[1:], start=1):
        for key, value in summary.items():
            if not key.endswith("self_s") and traces[0].get(key) != value:
                messages.append(f"trace count {key} differs between traced passes "
                                f"0 ({traces[0].get(key)}) and {index} ({value})")
    return attempted, failed, messages, diagnostics


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def reference_seconds(result: dict) -> list[float]:
    """Each job's seconds at reference speed, scaled by the calibration
    loops timed just before and just after it."""
    cal = result["calibration_s"]
    return [job["seconds"] * 2 * CALIBRATION_REF_S / (cal[i] + cal[i + 1])
            for i, job in enumerate(result["jobs"])]


def end_to_end(plan, runs: dict) -> tuple[dict, dict]:
    """End-to-end metric values at reference speed, and notes on their samples."""
    import checks

    untraced = runs["untraced"]
    scaled = [reference_seconds(r) for r in untraced]
    jobs = {job.id: job for job in plan.jobs}
    job_seconds = [t for times in scaled for t in times]
    raw_walls = [sum(j["seconds"] for j in r["jobs"]) for r in untraced]
    walls = [sum(times) for times in scaled]
    tail_value, tail_pct = tail(job_seconds)
    query_jobs = [j for j in untraced[0]["jobs"]
                  if j["output"] and checks.queries(jobs[j["id"]], j["output"])]
    queries = sum(checks.queries(jobs[j["id"]], j["output"]) for j in query_jobs)
    query_ids = {j["id"] for j in query_jobs}
    query_seconds = statistics.median(
        sum(t for j, t in zip(r["jobs"], times) if j["id"] in query_ids)
        for r, times in zip(untraced, scaled))
    values = {
        "setup_s": statistics.median(runs["setup"]),
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(job_seconds),
        "job_tail_s": tail_value,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "queries_per_s": queries / query_seconds if query_seconds else 0.0,
    }
    notes = {
        "setup_s": f"median of {len(runs['setup'])} fresh workload processes",
        "wall_s": f"median over {len(walls)} passes of the {len(plan.jobs)}-job list, "
                  f"{statistics.median(raw_walls):.6g} s as measured",
        "job_p50_s": f"median of {len(job_seconds)} jobs",
        "job_tail_s": f"p{tail_pct:.1f} of {len(job_seconds)} jobs, "
                      f"{min(TAIL_BEYOND, len(job_seconds) - 1)} beyond it",
        "peak_rss_mb": f"median over {len(untraced)} workload processes",
        "queries_per_s": f"{queries} oracle queries per pass over {query_seconds:.6g} s "
                         "of query-driven jobs",
        "slowdown": statistics.median(raw_walls) / statistics.median(walls),
    }
    return values, notes


def per_layer(runs: dict, e2e: dict) -> dict:
    """Per-layer values: counts from the first traced pass (identical in
    every traced pass), times at reference speed as medians over the
    traced passes."""
    traced = runs["traced"]
    factors = [sum(reference_seconds(r)) / sum(j["seconds"] for j in r["jobs"])
               for r in traced]
    traces = [r["trace"] for r in traced]
    out: dict[str, float] = {}
    for key in traces[0]:
        if key.endswith("self_s"):
            out[key] = statistics.median(t[key] * f for t, f in zip(traces, factors))
        else:
            out[key] = traces[0][key]

    def per_query(seconds: float, queries: float) -> float:
        return 1e6 * seconds / queries if queries else 0.0

    mu, edge = "dist_approx.mu_estimate", "dist_approx.violated_fraction_estimate"
    out["dist_approx.us_per_query"] = per_query(
        out[f"{mu}.self_s"] + out[f"{edge}.self_s"],
        out[f"{mu}.queries"] + out[f"{edge}.queries"])
    pair = "testers.pair_tester"
    queries, draws = out[f"{pair}.queries"], out[f"{pair}.draws"]
    out["testers.us_per_query"] = per_query(out[f"{pair}.self_s"], queries)
    out["testers.useful_draw_ratio"] = (queries - draws) / draws if draws else 0.0
    traced_wall = statistics.median(sum(reference_seconds(r)) for r in traced)
    out["trace.overhead_pct"] = 100.0 * (traced_wall / e2e["wall_s"] - 1.0)
    return out


def environment(plan, passes: int, args) -> dict:
    try:
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        lines = []
    # an enclosing repository's commit would be the wrong one
    commit = lines[1] if len(lines) == 2 and os.path.samefile(lines[0], ROOT) else ""
    return {
        "workload": plan.workload, "seed": plan.seed, "passes": passes,
        "jobs_per_pass": len(plan.jobs), "jobs_per_run": passes * len(plan.jobs),
        "seconds": args.seconds, "trace": args.trace,
        "client": "closed loop, one client, one job at a time; monocube --jobs 1",
        "parallel_scaling": "not measured: wall-clock scaling on 2 shared cores "
                            "would measure the scheduler",
        "nproc": os.cpu_count(), "git_commit": commit or "unknown (not a git checkout)",
    }


def load_references(workload: str, seed: int) -> dict | None:
    if not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def benchmark(args) -> int:
    import workloads

    deadline = time.perf_counter() + RUN_BUDGET_S
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        plan = workloads.build(args.workload, args.seed, work, smoke=args.smoke)
        nominal = workloads.NOMINAL_PASS_S[args.workload]
        passes = 2 if args.smoke else max(2, round(args.seconds / nominal))
        trace = args.trace == 1
        runs = run_passes(plan, work, passes, trace, deadline)
        sample_setup(runs, deadline)
        references = None if args.smoke else load_references(args.workload, args.seed)
        attempted, failed, messages, diagnostics = check_runs(plan, runs, passes, trace,
                                                              references)
        correct = not messages
        values, notes = ({}, {}) if not runs["untraced"] else end_to_end(plan, runs)
        if trace and runs["traced"] and values:
            values.update(per_layer(runs, values))
        record = environment(plan, passes, args)
        record.update(runs["untraced"][0]["versions"] if runs["untraced"] else {})
        record["reference_seed_recorded"] = references is not None
        record["slowdown_vs_reference"] = notes.get("slowdown")
        record["fail_rate"] = failed / attempted
        record["diagnostics"] = diagnostics
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    for message in messages:
        print(f"FAIL {message}")
    print("# record " + json.dumps(record, sort_keys=True))
    print(f"{'fail_rate':<50} {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    if not trace and "queries_per_s" in values:
        print(f"{'queries_per_s':<50} {values['queries_per_s']:.6g} 1/s "
              f"({notes['queries_per_s']})")
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        if name not in values:
            correct = False
            print(f"FAIL metric {name} was not measured")
            continue
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:<50} {values[name]:.6g} {unit}"
              + (f" ({notes[name]})" if name in notes else ""))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def record_references(seeds: list[int]) -> int:
    """Run one untraced pass per seed and store the exact results."""
    import checks
    import workloads

    table = {}
    for workload in RECORDED_WORKLOADS:
        table[workload] = {}
        for seed in seeds:
            work = os.path.join(ROOT, ".perfbench_work", f"record-{os.getpid()}")
            os.makedirs(work)
            try:
                plan = workloads.build(workload, seed, work)
                runs = run_passes(plan, work, 1, False, time.perf_counter() + RUN_BUDGET_S)
                _, failed, messages, _ = check_runs(plan, runs, 1, False, None)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if failed or messages:
                print(f"{workload} seed {seed}: not recorded: {messages}", file=sys.stderr)
                return 1
            outputs = {j["id"]: j["output"] for j in runs["untraced"][0]["jobs"]}
            table[workload][str(seed)] = {
                job.id: checks.reference_fields(job, outputs[job.id]) for job in plan.jobs
                if checks.reference_fields(job, outputs[job.id])}
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump(table, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and two passes, for the benchmark's own tests")
    parser.add_argument("--record-reference", metavar="FIRST-LAST",
                        help="rewrite reference.json for this seed range")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "monocube", "cli.py")):
        print(f"error: no monocube sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.record_reference:
        first, _, last = args.record_reference.partition("-")
        return record_references(list(range(int(first), int(last or first) + 1)))
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
