"""One workload process: import monocube, run one pass of a job plan.

Usage:  worker.py PLAN RESULT TRACE   (TRACE is 0 or 1)
        worker.py --setup-only

The process prints ``ready`` on stdout as soon as ``monocube.cli`` and
its imports are loaded; run.py times set-up from spawn to that line.
The next line is the time of one calibration loop, run right after.
It then runs the plan's jobs one at a time, timing each, and writes per-job
seconds, exit codes and outputs (with the wall-clock field removed) to
RESULT as JSON.  Library inputs are loaded before timing starts.  After
each job, and once before the first, it times a fixed calibration loop.
"""

import contextlib
import hashlib
import json
import os
import resource
import sys
import time

CALIBRATION_STEPS = 50_000


def _canonical(output: dict) -> dict:
    output.get("meta", {}).pop("elapsed_seconds", None)
    return output


def _digest(output) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def _profile_summary(doc: dict) -> dict:
    """The parts of a profile dump the checker reads; the full dump is
    compared across passes by digest only."""
    return {"violated_edges": len(doc["violated_edges"]),
            "I_minus_sum": sum(doc["I_minus"]),
            "U_minus_sum": sum(doc["U_minus"]),
            "objective_directed": doc["objective_directed"],
            "objective_robust": doc["objective_robust"],
            "objective_undirected": doc["objective_undirected"],
            "dist_const": doc["dist_const"]}


def calibrate() -> float:
    """Seconds for a fixed piece of interpreter work (dict and integer
    operations), independent of monocube.  run.py divides job times by
    it to cancel drift in the machine's speed."""
    start = time.perf_counter()
    table = {}
    for k in range(CALIBRATION_STEPS):
        table[k & 1023] = table.get(k & 1023, 0) + k
    return time.perf_counter() - start


def run_plan(plan: list[dict], tracer) -> tuple[list[dict], list[float]]:
    import monocube.cli as cli
    import monocube.isoperimetry as isoperimetry
    from monocube.funcs import read_function

    inputs = {job["id"]: read_function(job["fn"])
              for job in plan if job["kind"] == "profile_dump"}
    if tracer is not None:
        tracer.install()
    results, calibration = [], [calibrate()]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for job in plan:
            exit_code, error, output = 0, "", None
            if tracer is not None:
                tracer.job = job["id"]
            start = time.perf_counter()
            try:
                if job["kind"] == "profile_dump":
                    output = isoperimetry.profile_dump(inputs.pop(job["id"]))
                else:
                    exit_code = cli.main(job["argv"])
            except SystemExit as exc:
                exit_code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crashing job is a failed job, not a crashed run
                exit_code, error = 1, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.job = None
            if job["kind"] == "profile_dump":
                digest = _digest(output) if output is not None else ""
                output = _profile_summary(output) if output is not None else None
            else:
                out_path = job["argv"][job["argv"].index("--out") + 1]
                if exit_code in (0, 1) and os.path.exists(out_path):
                    with open(out_path) as fh:
                        output = _canonical(json.load(fh))
                    os.remove(out_path)
                digest = _digest(output) if output is not None else ""
            calibration.append(calibrate())
            results.append({"id": job["id"], "seconds": seconds, "exit": exit_code,
                            "error": error, "digest": digest, "output": output})
    return results, calibration


def main(argv: list[str]) -> int:
    import monocube.cli  # noqa: F401 - set-up ends once the CLI is loaded
    print("ready", flush=True)
    print(calibrate(), flush=True)  # the machine's speed right after set-up
    if argv == ["--setup-only"]:
        return 0
    plan_path, result_path, trace = argv
    with open(plan_path) as fh:
        plan = json.load(fh)
    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
    jobs, calibration = run_plan(plan, tracer)
    import networkx
    import numpy
    result = {
        "jobs": jobs,
        "calibration_s": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "networkx": networkx.__version__},
        "trace": (tracer.summary({j["id"]: j["seconds"] for j in jobs})
                  if tracer is not None else None),
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
