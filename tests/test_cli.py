import json
import os
import subprocess
import sys

import pytest

from monocube import cli, poset
from monocube.cli import main
from monocube.poset import hypercube


def run(args):
    return main(args)


def test_importing_the_cli_loads_no_scipy():
    """Every command's process pays for what `monocube.cli` imports.
    Importing scipy's optimize and csgraph modules would add 0.2-0.5 s and
    30-40 MB to each start (2-core x86-64, Python 3.11.7, scipy 1.17.1)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, monocube.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


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


def test_gen_function_report_echoes_its_config(tmp_path):
    fn, report = tmp_path / "g.json", tmp_path / "r.json"
    assert run(["gen-function", "--d", "2", "--out", str(fn),
                "--report", str(report)]) == 0
    meta = json.load(open(report))["meta"]
    assert meta["command"] == "gen-function" and meta["seed"] == 0
    assert meta["config"] == {"d": 2, "domain": None, "r": 4, "seed": 0,
                              "monotone": False, "out": str(fn)}
    assert json.load(open(fn))["values"]


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
    headers = []
    (tmp_path / "res.d").mkdir()
    # no instance still writes the header; a dot in a directory name is not
    # the report's extension, so the CSV stays inside that directory
    for count, name in ((4, "v4.json"), (0, "v0.json"), (2, "res.d/v")):
        out = tmp_path / name
        assert run(["verify-inequalities", "--d", "3", "--r", "3", "--count", str(count),
                    "--seed", "0", "--format", "csv", "--out", str(out)]) == 0
        lines = (tmp_path / (os.path.splitext(name)[0] + ".csv")).read_text().splitlines()
        assert len(lines) == 1 + count
        headers.append(lines[0])
    assert "epsilon" in headers[0] and "ok" in headers[0]
    assert headers[1] == headers[2] == headers[0]
    assert not (tmp_path / "res.csv").exists()


@pytest.mark.parametrize("args, flags", [
    (["verify-inequalities", "--d", "3", "--format", "csv", "--out", "r.csv"],
     ("--out", "--format csv")),
    (["gen-function", "--d", "3", "--out", "x.json", "--report", "x.json"],
     ("--out", "--report")),
    (["gen-function", "--domain", "g.domain.json", "--out", "g.json",
      "--report", "g.domain.json"], ("--domain", "--report")),
], ids=["csv-over-report", "report-over-function", "report-over-domain"])
def test_two_outputs_on_one_path_are_refused(tmp_path, capsys, monkeypatch, args, flags):
    # refused before anything is written, so the domain file stays as it was
    monkeypatch.chdir(tmp_path)
    domain = '{"n": 3, "edges": [[0, 1], [1, 2]]}'
    (tmp_path / "g.domain.json").write_text(domain)
    assert run(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert all(flag in err[0] for flag in flags)
    assert sorted(os.listdir(tmp_path)) == ["g.domain.json"]
    assert (tmp_path / "g.domain.json").read_text() == domain


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


def test_calls_in_one_process_each_get_their_own_config(tmp_path):
    fn, report = tmp_path / "g.json", tmp_path / "r.json"
    assert run(["gen-function", "--d", "3", "--r", "2", "--seed", "5", "--monotone",
                "--out", str(fn), "--report", str(report)]) == 0
    assert json.load(open(report))["meta"]["config"] == {
        "d": 3, "domain": None, "r": 2, "seed": 5, "monotone": True, "out": str(fn)}
    out = tmp_path / "v.json"
    assert run(["verify-inequalities", "--d", "2", "--r", "2", "--count", "1",
                "--seed", "9", "--out", str(out)]) == 0
    meta = json.load(open(out))["meta"]
    assert meta["seed"] == 9 and meta["config"] == {
        "d": 2, "r": 2, "count": 1, "colorings": 3, "mu_sets": 3, "jobs": 1}
    with pytest.raises(SystemExit) as exc:
        run(["gen-function", "--d", "three", "--out", str(fn)])
    assert exc.value.code == 2
    assert run(["gen-function", "--d", "2", "--out", str(fn), "--report", str(report)]) == 0
    assert json.load(open(report))["meta"]["config"] == {
        "d": 2, "domain": None, "r": 4, "seed": 0, "monotone": False, "out": str(fn)}


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
    # the suite decomposes before it solves, and is refused by the same budget
    assert run(["verify-inequalities", "--d", "13", "--r", "3", "--count", "1"]) == 2
    assert capsys.readouterr().err == err
    assert "up_masks" not in vars(hypercube(13))  # refused before any mask was built


CHECKS_NOTHING = [("verify-inequalities", option) for option in
                  (["--count", "-2"], ["--colorings", "-1"], ["--mu-sets", "-1"],
                   ["--jobs", "0"], ["--jobs", "-3"])]
CHECKS_NOTHING += [("test-monotone", option) for option in
                   (["--trials", "0"], ["--trials", "-3"], ["--jobs", "0"], ["--jobs", "-3"])]


@pytest.mark.parametrize("command, option", CHECKS_NOTHING,
                         ids=[f"{c}{''.join(o)}" for c, o in CHECKS_NOTHING])
def test_a_count_that_checks_nothing_is_a_usage_error(tmp_path, capsys, command, option):
    # each would check nothing and still report a pass, e.g. "-2/-2 passed"
    fn, out = tmp_path / "f.json", tmp_path / "o.json"
    assert run(["gen-function", "--d", "3", "--out", str(fn)]) == 0
    capsys.readouterr()
    argv = (["verify-inequalities", "--d", "3", "--count", "2"] if command == "verify-inequalities"
            else ["test-monotone", "--fn", str(fn), "--eps", "0.5", "--trials", "2"])
    assert run([*argv, *option, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {option[0]} must be at least " \
                           f"{1 if option[0] in ('--trials', '--jobs') else 0}, not {option[1]}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("budget", ["inf", "1e308"])
def test_a_budget_without_a_finite_draw_count_is_a_usage_error(tmp_path, capsys, budget):
    fn, out = tmp_path / "f.json", tmp_path / "o.json"
    assert run(["gen-function", "--d", "3", "--out", str(fn)]) == 0
    capsys.readouterr()
    assert run(["test-monotone", "--fn", str(fn), "--eps", "0.5", "--trials", "2",
                "--budget", budget, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: epsilon 0.5 and budget_constant {float(budget)} "
                            "give no finite draw count\n")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("cprime", ["1e-200", "1e10"])
def test_a_c_prime_without_a_sample_count_is_a_usage_error(tmp_path, capsys, cprime):
    fn, out = tmp_path / "f.json", tmp_path / "o.json"
    assert run(["gen-function", "--d", "3", "--out", str(fn)]) == 0
    capsys.readouterr()
    assert run(["approx-distance", "--fn", str(fn), "--alpha", "0.1", "--cprime", cprime,
                "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: c_prime {float(cprime)} leaves the mu estimates "
                                   "no sample count (")
    assert captured.err.count("\n") == 1 and captured.out == "" and not out.exists()


@pytest.mark.parametrize("case", ["test-monotone-on-a-dag", "approx-distance-on-a-dag",
                                  "csv-without-out"])
def test_a_command_it_cannot_run_is_one_error_line(tmp_path, capsys, monkeypatch, case):
    # refused before any instance runs, with one line through main's handler
    domain, fn = tmp_path / "dag.domain.json", tmp_path / "f.json"
    domain.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    assert run(["gen-function", "--domain", str(domain), "--out", str(fn)]) == 0
    capsys.readouterr()

    def ran(*_):
        raise AssertionError("an instance ran")

    monkeypatch.setattr(cli, "_verify_instance", ran)
    if case == "test-monotone-on-a-dag":
        argv = ["test-monotone", "--fn", str(fn), "--eps", "0.5", "--trials", "2"]
        message = "test-monotone needs a hypercube-domain function"
    elif case == "approx-distance-on-a-dag":
        argv = ["approx-distance", "--fn", str(fn), "--alpha", "0.1"]
        message = "approx-distance needs a hypercube-domain function"
    else:
        argv = ["verify-inequalities", "--d", "3", "--count", "2", "--format", "csv"]
        message = "--format csv needs --out: the CSV is written next to the JSON report"
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


PAST_THE_IDS = "hypercube dimension 3000000 is past the vertex-id range, d <= 63"


@pytest.mark.parametrize("argv, message", [
    (["gen-function", "--d", "40"], "value-table budget"),
    (["gen-lowerbound", "--d", "49", "--r", "5", "--i", "1"], "value-table budget"),
    (["gen-function", "--d", "3000000"], PAST_THE_IDS),
    (["verify-inequalities", "--d", "3000000"], PAST_THE_IDS),
    # no instance to build: --d is still checked
    (["verify-inequalities", "--d", "3000000", "--count", "0"], PAST_THE_IDS),
    (["verify-inequalities", "--d", "40", "--count", "0"], "value-table budget")],
    ids=["gen-function", "gen-lowerbound", "gen-function-d3000000",
         "verify-inequalities-d3000000", "verify-inequalities-d3000000-count0",
         "verify-inequalities-d40-count0"])
def test_generators_refuse_a_table_over_the_budget(tmp_path, capsys, argv, message):
    # 2^40 and 2^49 values: refused before any table is allocated; a d past
    # 63 is refused before 2^d is formed, let alone written out in digits
    fn = tmp_path / "big.json"
    assert run([*argv, "--out", str(fn)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not fn.exists()


# (function file, its domain file or None, the error after the blamed file's name)
DAG_FUNCTION = {"domain": "dag.domain.json", "values": [1, 2]}
MALFORMED = {
    "values-not-a-list": ({"d": 1, "values": 5}, None, "needs a list of 'values'"),
    "domain-not-a-name": ({"domain": 5, "values": [1, 2]}, None,
                          "needs a 'd' key or a 'domain' file name"),
    "d-a-float": ({"d": 2.5, "values": [1, 2, 3, 4]}, None, "'d' must be an integer, not float"),
    "d-a-bool": ({"d": True, "values": [1, 2]}, None, "'d' must be an integer, not bool"),
    "d-past-the-vertex-ids": ({"d": 3000000, "values": [1, 2]}, None, PAST_THE_IDS),
    "values-too-few": ({"d": 2, "values": [1, 2]}, None,
                       "2 values for a domain with 4 vertices"),
    "value-a-bool": ({"d": 1, "values": [1, True]}, None, "non-numeric value True"),
    "value-a-string": ({"d": 1, "values": [1, "2"]}, None, "non-numeric value '2'"),
    # raw text: json.dumps refuses such an int too
    "value-past-the-digit-limit": ('{"d": 1, "values": [0, 1' + "0" * 5000 + ']}', None,
                                   "not valid JSON (Exceeds the limit (4300 digits) for integer "
                                   "string conversion: value has 5001 digits; use "
                                   "sys.set_int_max_str_digits() to increase the limit)"),
    "n-a-string": (DAG_FUNCTION, {"n": "2", "edges": [[0, 1]]},
                   "'n' must be an integer, not str"),
    "edges-not-a-list": (DAG_FUNCTION, {"n": 2, "edges": 5},
                         "'edges' must be a list of [u, v] integer pairs"),
    "edge-end-a-float": (DAG_FUNCTION, {"n": 2, "edges": [[0, 1.5]]},
                         "'edges' must be a list of [u, v] integer pairs"),
    "edge-of-one-end": (DAG_FUNCTION, {"n": 2, "edges": [[0]]},
                        "'edges' must be a list of [u, v] integer pairs"),
}
READS = [(case, "exact-distance") for case in MALFORMED]
READS += [(case, "gen-function") for case, (_, domain, _) in MALFORMED.items() if domain]


@pytest.mark.parametrize("case, command", READS, ids=[f"{c}-{m}" for c, m in READS])
def test_a_malformed_input_file_is_one_error_line_naming_it(tmp_path, capsys, case, command):
    # unchecked, each is a traceback or is read as some other number
    fn, domain, message = MALFORMED[case]
    fn_path, domain_path = tmp_path / "f.json", tmp_path / "dag.domain.json"
    fn_path.write_text(fn if isinstance(fn, str) else json.dumps(fn))
    if domain:
        domain_path.write_text(json.dumps(domain))
    out = tmp_path / "o.json"
    argv = ([command, "--fn", str(fn_path)] if command == "exact-distance"
            else [command, "--domain", str(domain_path)])
    assert run([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    blamed = domain_path if domain else fn_path
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.err.endswith(f"{blamed.name}: {message}\n")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["gen-function", "exact-distance"])
def test_a_dag_domain_over_the_budget_is_refused_when_read(tmp_path, capsys, monkeypatch,
                                                          command):
    # a billion vertices: refused before the DAG's order or lists are built
    domain, fn, out = tmp_path / "big.domain.json", tmp_path / "big.json", tmp_path / "o.json"
    domain.write_text(json.dumps({"n": 10**9, "edges": []}))
    fn.write_text(json.dumps({"domain": domain.name, "values": []}))

    def built(*_):
        raise AssertionError("the DAG's lists were built before its size was checked")

    monkeypatch.setattr(poset, "_topological_order", built)
    argv = (["gen-function", "--domain", str(domain)] if command == "gen-function"
            else [command, "--fn", str(fn)])
    assert run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "value-table budget" in err
    assert not out.exists()


@pytest.mark.parametrize("domain", [{"n": 3, "edges": []}, {"n": 3}, {"n": 1, "edges": []}],
                         ids=["edgeless-n3", "n3-without-edges", "n1"])
def test_the_exact_commands_on_an_edgeless_dag(tmp_path, domain):
    # every function on an edgeless DAG is monotone, whatever its values
    dom, fn = tmp_path / "e.domain.json", tmp_path / "e.json"
    dom.write_text(json.dumps(domain))
    assert run(["gen-function", "--domain", str(dom), "--r", "5", "--seed", "3",
                "--out", str(fn)]) == 0
    cert, dec = tmp_path / "cert.json", tmp_path / "dec.json"
    assert run(["exact-distance", "--fn", str(fn), "--out", str(cert)]) == 0
    assert run(["decompose", "--fn", str(fn), "--out", str(dec)]) == 0
    result = json.load(open(cert))["result"]
    assert result["epsilon"] == "0" and result["monotone"] and result["cover_size"] == 0
    assert result["repaired_values"] == json.load(open(fn))["values"]
    doc = json.load(open(dec))
    assert doc["monotone"] is True and doc["k"] == 0


def test_every_command_at_d1(tmp_path):
    up, down = tmp_path / "up.json", tmp_path / "down.json"
    up.write_text(json.dumps({"d": 1, "values": [1, 2]}))
    assert run(["gen-function", "--d", "1", "--r", "3", "--out", str(tmp_path / "g.json")]) == 0
    assert run(["gen-lowerbound", "--d", "1", "--r", "3", "--i", "1", "--out", str(down)]) == 0
    assert json.load(open(down))["values"] == [3, 2]
    for fn, epsilon, k in ((up, "0", 0), (down, "1/2", 1)):
        cert, dec = tmp_path / "cert.json", tmp_path / "dec.json"
        assert run(["exact-distance", "--fn", str(fn), "--out", str(cert)]) == 0
        assert json.load(open(cert))["result"]["epsilon"] == epsilon
        assert run(["decompose", "--fn", str(fn), "--out", str(dec)]) == 0
        assert json.load(open(dec))["k"] == k
    out = tmp_path / "o.json"
    assert run(["test-monotone", "--fn", str(up), "--eps", "0.5", "--trials", "20",
                "--out", str(out)]) == 0
    assert json.load(open(out))["result"]["rejections"] == 0
    # a monotone input breaks approx-distance's promise of distance >= alpha
    assert run(["approx-distance", "--fn", str(up), "--alpha", "0.1", "--out", str(out)]) == 0
    result = json.load(open(out))["result"]
    assert result["promise_violation"] is True and result["epsilon_hat"] == 0.1
    assert run(["verify-inequalities", "--d", "1", "--count", "5", "--out", str(out)]) == 0
    assert json.load(open(out))["result"]["passed"] == 5


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


def test_exact_distance_echoes_the_values_a_file_holds(tmp_path):
    """1 and 1.0 share a level, and so do -0.0, 0.0 and 0, but the report
    writes each repaired value as the value object the file holds at the
    vertex it copies, type and sign included.  Every kept vertex copies
    itself and echoes its own value: in the second file vertex 5 keeps
    its 0, though the kept -0.0 at vertex 0 below it shares its rank."""
    cases = [([-5, -0.0, 0.0, 1, 0, 1.0, 1, 0.5], [7], [-5, -0.0, 0.0, 1, 0, 1.0, 1, 1]),
             ([-0.0, 0.0, 1, 1.0, 1.0, 0, 1, -0.0], [4, 7],
              [-0.0, 0.0, 1, 1.0, -0.0, 0, 1, 1])]
    fn, out = tmp_path / "f.json", tmp_path / "out.json"
    for values, expected_cover, expected in cases:
        fn.write_text(json.dumps({"d": 3, "values": values}))
        assert run(["exact-distance", "--fn", str(fn), "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        assert result["vertex_cover"] == expected_cover
        assert [repr(v) for v in result["repaired_values"]] == [repr(v) for v in expected]
