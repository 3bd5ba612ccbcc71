"""Tiny-size smoke tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "sweep-d6", 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def _exact_job_and_output(values, d, tmp_path):
    from monocube import cli

    job = workloads.Job("exact", "exact-distance", info={"d": d, "values": values})
    fn, out = tmp_path / "f.json", tmp_path / "out.json"
    fn.write_text(json.dumps({"d": d, "values": values}))
    assert cli.main(["exact-distance", "--fn", str(fn), "--out", str(out)]) == 0
    return job, json.loads(out.read_text())


def test_checker_accepts_correct_and_flags_wrong_exact_results(tmp_path):
    values = [3, 1, 2, 1, 2, 1, 1, 3]
    job, out = _exact_job_and_output(values, 3, tmp_path)
    assert checks.check_job(job, 0, out, None)[0] == []
    assert checks.check_job(job, 2, out, None)[0] == ["exit code 2"]

    wrong_eps = json.loads(json.dumps(out))
    wrong_eps["result"]["epsilon"] = f"{out['result']['cover_size'] + 1}/8"
    assert checks.check_job(job, 0, wrong_eps, None)[0]

    broken = json.loads(json.dumps(out))
    broken["result"]["repaired_values"] = list(values)
    assert "repaired function is not monotone" in checks.check_job(job, 0, broken, None)[0]

    recorded = checks.reference_fields(job, out)
    assert checks.check_job(job, 0, out, recorded)[0] == []
    assert checks.check_job(job, 0, out, {"epsilon": "0"})[0]


def test_checker_flags_broken_certainty_guarantees():
    tester = workloads.Job("t", "test-monotone", info={"monotone": True, "trials": 4})
    out = {"result": {"trials": 4, "rejections": 1, "rejection_rate": 0.25,
                      "mean_queries": 10.0}}
    assert checks.check_job(tester, 0, out, None)[0]
    out["result"]["rejections"] = 0
    assert checks.check_job(tester, 0, out, None)[0] == []

    approx = workloads.Job("a", "approx-distance", info={"monotone": True, "alpha": 0.2})
    call = {"verdict": "close", "queries": 5}
    out = {"result": {"epsilon_hat": 0.2, "promise_violation": False, "queries": 5,
                      "levels": [{"calls": [call]}]}}
    assert checks.check_job(approx, 0, out, None)[0]
    out["result"]["promise_violation"] = True
    assert checks.check_job(approx, 0, out, None)[0] == []


def test_independent_distance_reference():
    # A decreasing 3-chain x < y < z with values 3 > 2 > 1: all pairs violated,
    # the violation order is a chain, so all but one vertex must change.
    assert checks.cover_size(checks.dag_violated_pairs([0, 1, 2], [(0, 1), (1, 2)],
                                                       [3, 2, 1])) == 2
    # Boolean anti-dictator on d=2: f = 1 - x_1, violated pairs 0<1 and 2<3.
    assert checks.cover_size(checks.hypercube_violated_pairs(2, [1, 0, 1, 0])) == 2


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    solve = tracer.wrap("oracles.exact_distance", lambda: time.sleep(0.02), {})

    def verify():
        time.sleep(0.01)
        solve()

    wrapped_verify = tracer.wrap("decomposition.verify_decomposition", verify, {})
    tracer.job = "j"
    wrapped_verify()
    tracer.job = None
    solve()  # outside a job: not counted
    start, end = tracer.spans[0][3], tracer.spans[0][4]
    summary = tracer.summary({"j": end - start + 0.005})
    assert summary["oracles.exact_distance.calls"] == 1
    assert summary["decomposition.verify_decomposition.exact_solves"] == 1
    assert summary["oracles.exact_distance.self_s"] >= 0.02
    assert 0.01 <= summary["decomposition.verify_decomposition.self_s"] < 0.02
    assert summary["cli.self_s"] == pytest.approx(0.005)
