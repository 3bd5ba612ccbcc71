import json

import pytest

from monocube.cli import main
from monocube.poset import hypercube


def run(args):
    return main(args)


def strip_volatile(report):
    report = json.loads(json.dumps(report))
    report.get("meta", {}).pop("elapsed_seconds", None)
    return report


def test_pipeline_gen_exact_decompose(tmp_path):
    fn = tmp_path / "f.json"
    cert = tmp_path / "cert.json"
    dec = tmp_path / "dec.json"
    assert run(["gen-function", "--d", "4", "--r", "3", "--seed", "7",
                "--out", str(fn)]) == 0
    assert run(["exact-distance", "--fn", str(fn), "--out", str(cert)]) == 0
    assert run(["decompose", "--fn", str(fn), "--out", str(dec)]) == 0
    cert_doc = json.load(open(cert))
    dec_doc = json.load(open(dec))
    assert cert_doc["result"]["cover_size"] >= 0
    assert dec_doc["certificate"]["all_ok"]
    assert dec_doc["meta"]["tool"] == "monocube"


def test_monotone_function_pipeline(tmp_path):
    fn = tmp_path / "m.json"
    dec = tmp_path / "dec.json"
    assert run(["gen-function", "--d", "4", "--r", "4", "--seed", "1",
                "--monotone", "--out", str(fn)]) == 0
    assert run(["decompose", "--fn", str(fn), "--out", str(dec)]) == 0
    assert json.load(open(dec))["monotone"] is True


def test_gen_lowerbound_and_approx_distance(tmp_path):
    fn = tmp_path / "lb.json"
    out = tmp_path / "ad.json"
    assert run(["gen-lowerbound", "--d", "9", "--r", "7", "--i", "2",
                "--out", str(fn)]) == 0
    assert run(["approx-distance", "--fn", str(fn), "--alpha", "0.2",
                "--seed", "5", "--out", str(out)]) == 0
    doc = json.load(open(out))
    assert doc["result"]["epsilon_hat"] in (0.5, 0.25)
    assert doc["result"]["promise_violation"] is False


def test_test_monotone_on_monotone(tmp_path):
    fn = tmp_path / "m.json"
    out = tmp_path / "tm.json"
    run(["gen-function", "--d", "5", "--r", "3", "--seed", "2", "--monotone",
         "--out", str(fn)])
    assert run(["test-monotone", "--fn", str(fn), "--eps", "0.5",
                "--trials", "20", "--seed", "3", "--out", str(out)]) == 0
    doc = json.load(open(out))
    assert doc["result"]["rejections"] == 0
    assert doc["result"]["mean_queries"] > 0


def test_test_monotone_reports_match_across_jobs(tmp_path):
    fn = tmp_path / "f.json"
    run(["gen-function", "--d", "6", "--r", "4", "--seed", "5", "--out", str(fn)])
    texts = []
    for jobs in ("1", "2"):
        out = tmp_path / f"tm{jobs}.json"
        assert run(["test-monotone", "--fn", str(fn), "--eps", "0.5", "--trials", "6",
                    "--seed", "4", "--jobs", jobs, "--out", str(out)]) == 0
        doc = strip_volatile(json.load(open(out)))
        doc["meta"]["config"].pop("jobs")  # the one field that echoes --jobs
        texts.append(json.dumps(doc))
    assert texts[0] == texts[1]
    per_setting = json.loads(texts[0])["result"]["per_setting"]
    assert [(s["b"], s["tau"]) for s in per_setting] == [(0, 1), (1, 1)]
    assert all(s["draws"] % 6 == 0 and s["violations"] <= s["draws"] for s in per_setting)


def test_monotone_over_the_pair_budget_has_distance_zero(tmp_path):
    # d=13 is over the pair budget, but a monotone input needs no pair walk
    fn = tmp_path / "m13.json"
    assert run(["gen-function", "--d", "13", "--r", "3", "--seed", "0", "--monotone",
                "--out", str(fn)]) == 0
    cert, dec = tmp_path / "cert.json", tmp_path / "dec.json"
    assert run(["exact-distance", "--fn", str(fn), "--out", str(cert)]) == 0
    assert run(["decompose", "--fn", str(fn), "--out", str(dec)]) == 0
    result = json.load(open(cert))["result"]
    assert result["epsilon"] == "0" and result["monotone"] and result["cover_size"] == 0
    doc = json.load(open(dec))
    assert doc["monotone"] is True and doc["k"] == 0


def test_verify_inequalities_passes_and_is_deterministic(tmp_path):
    out1 = tmp_path / "v1.json"
    out2 = tmp_path / "v2.json"
    args = ["verify-inequalities", "--d", "4", "--r", "4", "--count", "8",
            "--seed", "1"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    d1 = strip_volatile(json.load(open(out1)))
    d2 = strip_volatile(json.load(open(out2)))
    assert d1 == d2
    assert d1["result"]["failed"] == 0


def test_verify_inequalities_parallel_matches(tmp_path):
    out1 = tmp_path / "s.json"
    out2 = tmp_path / "p.json"
    base = ["verify-inequalities", "--d", "4", "--r", "3", "--count", "6",
            "--seed", "9"]
    assert run(base + ["--jobs", "1", "--out", str(out1)]) == 0
    assert run(base + ["--jobs", "2", "--out", str(out2)]) == 0
    # the meta block echoes --jobs; the computed results must be identical
    assert json.load(open(out1))["result"] == json.load(open(out2))["result"]


def test_verify_inequalities_csv(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify-inequalities", "--d", "3", "--r", "3", "--count", "4",
                "--seed", "0", "--format", "csv", "--out", str(out)]) == 0
    csv_path = tmp_path / "v.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert "epsilon" in header and "ok" in header


@pytest.mark.parametrize("values, epsilon", [([0, 10**400], "0"), ([10**400, 0], "1/2")])
def test_integers_too_large_for_a_float_are_values(tmp_path, values, epsilon):
    """An int is a finite real at any size: the file is written out digit
    by digit and solved exactly."""
    fn, out = tmp_path / "big.json", tmp_path / "cert.json"
    fn.write_text(json.dumps({"d": 1, "values": values}))
    assert str(10**400) in fn.read_text()
    assert run(["exact-distance", "--fn", str(fn), "--out", str(out)]) == 0
    result = json.load(open(out))["result"]
    assert result["epsilon"] == epsilon
    assert result["repaired_values"] == ([0, 10**400] if epsilon == "0" else [0, 0])


def test_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2
    assert run(["exact-distance", "--fn", str(tmp_path / "missing.json")]) == 2


def test_oversized_input_is_a_usage_error(tmp_path, capsys):
    # hypercube d=13 has 3^13 - 2^13 comparable pairs, over the pair budget
    fn = tmp_path / "f13.json"
    assert run(["gen-function", "--d", "13", "--r", "3", "--seed", "0",
                "--out", str(fn)]) == 0
    capsys.readouterr()
    for command in ("exact-distance", "decompose"):
        assert run([command, "--fn", str(fn)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
    assert hypercube(13)._up is None  # refused before any mask was built


def test_verify_inequalities_non_boolean_d7(tmp_path):
    # every exact solve of the suite, the certificate's included, fits the pair budget
    assert run(["verify-inequalities", "--d", "7", "--r", "8", "--count", "2",
                "--out", str(tmp_path / "v.json")]) == 0


def test_report_meta_fields(tmp_path):
    fn = tmp_path / "f.json"
    out = tmp_path / "c.json"
    run(["gen-function", "--d", "3", "--r", "3", "--seed", "4", "--out", str(fn)])
    run(["exact-distance", "--fn", str(fn), "--out", str(out)])
    meta = json.load(open(out))["meta"]
    for key in ("tool", "version", "command", "config", "seed", "elapsed_seconds"):
        assert key in meta
