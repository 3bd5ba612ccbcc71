"""Output checker behind the benchmark's failure count.

Exact results are checked against references computed here, independently
of monocube's own solvers: violated pairs by direct enumeration, and the
distance to monotonicity as the maximum matching of the violation order's
split graph (Dilworth/Koenig: the minimum vertex cover of the violation
graph equals that matching's size), solved with networkx's Hopcroft-Karp.
Results recorded per seed in ``reference.json`` pin what has no
independent oracle, such as the number of decomposition parts.

Statistical outcomes on far inputs (rejection rates, estimated distances)
are diagnostics only: a change to the random streams may move them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import networkx as nx
from networkx.algorithms import bipartite

from monocube.funcs import random_function
from monocube.poset import hypercube


# -- independent references ----------------------------------------------------------


def hypercube_cover_edges(d: int):
    for x in range(1 << d):
        for i in range(d):
            if not x >> i & 1:
                yield x, x | 1 << i


def hypercube_violated_pairs(d: int, values) -> list[tuple[int, int]]:
    """All (x, y) with x strictly below y and values[x] > values[y]."""
    n = 1 << d
    full = n - 1
    pairs = []
    for x in range(n):
        vx = values[x]
        free = full & ~x
        sub = free
        while sub:  # every nonempty set of coordinates x can still raise
            y = x | sub
            if vx > values[y]:
                pairs.append((x, y))
            sub = (sub - 1) & free
    return pairs


def dag_violated_pairs(order, edges, values) -> list[tuple[int, int]]:
    succ: dict[int, list[int]] = {}
    for (u, v) in edges:
        succ.setdefault(u, []).append(v)
    up = {x: 0 for x in order}
    for x in reversed(order):
        for v in succ.get(x, ()):
            up[x] |= 1 << v | up[v]
    pairs = []
    for x in order:
        m = up[x]
        while m:
            low = m & -m
            y = low.bit_length() - 1
            if values[x] > values[y]:
                pairs.append((x, y))
            m ^= low
    return pairs


def cover_size(pairs) -> int:
    """Minimum vertex cover of the violation graph = maximum matching of
    its split graph (one left and one right copy of every vertex)."""
    if not pairs:
        return 0
    graph = nx.Graph()
    graph.add_edges_from((("L", x), ("R", y)) for (x, y) in pairs)
    lefts = {("L", x) for (x, _) in pairs}
    return len(bipartite.hopcroft_karp_matching(graph, top_nodes=lefts)) // 2


def hypercube_violated_edges(d: int, values) -> int:
    return sum(values[x] > values[y] for (x, y) in hypercube_cover_edges(d))


def is_monotone_table(d: int, values) -> bool:
    return all(values[x] <= values[y] for (x, y) in hypercube_cover_edges(d))


# -- per-job checks ---------------------------------------------------------------


def reference_fields(job, output: dict) -> dict:
    """The exact results of a job that ``reference.json`` records."""
    if job.kind == "verify-inequalities":
        return {"rows": [[row["epsilon"], row["violated_edges"]]
                         for row in output["result"]["rows"]]}
    if job.kind == "exact-distance":
        return {"epsilon": output["result"]["epsilon"]}
    if job.kind == "decompose":
        cert = output.get("certificate") or {}
        return {"epsilon_f": cert.get("epsilon_f"), "violated_f": cert.get("violated_f"),
                "k": output["k"]}
    if job.kind == "profile_dump":
        return {"violated_edges": output["violated_edges"]}
    return {}


def check_job(job, exit_code: int, output: dict | None,
              reference: dict | None) -> tuple[list[str], dict]:
    """Return (failures, diagnostics) for one job's first-pass output."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}
    if output is None:
        return ["no output"], {}
    checker = _CHECKERS[job.kind]
    failures, diagnostics = checker(job, output)
    if reference is not None and not failures:
        got = reference_fields(job, output)
        if got != reference:
            failures.append(f"exact result {got} differs from the recorded {reference}")
    return failures, diagnostics


def _check_exact_distance(job, out):
    info, res = job.info, out["result"]
    d, values = info["d"], info["values"]
    n = 1 << d
    failures = []
    cover = set(res["vertex_cover"])
    repaired = res["repaired_values"]
    changed = {x for x in range(n) if repaired[x] != values[x]}
    if not is_monotone_table(d, repaired):
        failures.append("repaired function is not monotone")
    if len(changed) != res["cover_size"] or changed != cover:
        failures.append(f"repair changed {len(changed)} points, cover_size is "
                        f"{res['cover_size']}")
    if Fraction(res["epsilon"]) * n != res["cover_size"]:
        failures.append(f"epsilon {res['epsilon']} * n != cover_size {res['cover_size']}")
    expected = cover_size(hypercube_violated_pairs(d, values))
    if res["cover_size"] != expected:
        failures.append(f"cover_size {res['cover_size']} != reference {expected}")
    return failures, {}


def _check_decompose(job, out):
    info = job.info
    values = info["values"]
    if "d" in info:
        pairs = hypercube_violated_pairs(info["d"], values)
        violated = hypercube_violated_edges(info["d"], values)
        n = 1 << info["d"]
    else:
        pairs = dag_violated_pairs(info["order"], info["edges"], values)
        violated = sum(values[u] > values[v] for (u, v) in info["edges"])
        n = len(values)
    failures = []
    if out["monotone"] != (not pairs):
        failures.append(f"monotone flag {out['monotone']} but {len(pairs)} violated pairs")
    if out["k"] != len(out["components"]) or out["k"] != len(out["blocks"]):
        failures.append("k disagrees with the listed components and blocks")
    cert = out.get("certificate")
    if pairs:
        if cert is None or not cert["all_ok"]:
            failures.append("certificate missing or all_ok false")
        else:
            expected = Fraction(cover_size(pairs), n)
            if Fraction(cert["epsilon_f"]) != expected:
                failures.append(f"epsilon_f {cert['epsilon_f']} != reference {expected}")
            if cert["violated_f"] != violated:
                failures.append(f"violated_f {cert['violated_f']} != reference {violated}")
    return failures, {"k": out["k"]}


def _check_verify(job, out):
    info, res = job.info, out["result"]
    failures = []
    if res["instances"] != info["count"] or res["failed"] != 0:
        failures.append(f"{res['failed']} of {res['instances']} instances failed")
    domain = hypercube(info["d"])
    n = domain.n
    for row in res["rows"]:
        if not row["ok"]:
            failures.append(f"instance {row['index']}: {row['failures']}")
            continue
        values = random_function(domain, info["r"], row["seed"]).values
        expected = Fraction(cover_size(hypercube_violated_pairs(info["d"], values)), n)
        if Fraction(row["epsilon"]) != expected:
            failures.append(f"instance {row['index']}: epsilon {row['epsilon']} "
                            f"!= reference {expected}")
        violated = hypercube_violated_edges(info["d"], values)
        if row["violated_edges"] != violated:
            failures.append(f"instance {row['index']}: violated_edges "
                            f"{row['violated_edges']} != reference {violated}")
    return failures, {}


def _check_profile(job, out):
    d, values = job.info["d"], job.info["values"]
    n = 1 << d
    out_counts = [0] * n
    for (x, y) in hypercube_cover_edges(d):
        if values[x] > values[y]:
            out_counts[x] += 1
    violated = sum(out_counts)
    directed = math.fsum(math.sqrt(c) for c in out_counts) / n
    top = max(values.count(v) for v in set(values))
    failures = []
    if out["violated_edges"] != violated or out["I_minus_sum"] != violated \
            or out["U_minus_sum"] != 2 * violated:
        failures.append(f"violated edges {out['violated_edges']} (I_minus sum "
                        f"{out['I_minus_sum']}) != reference {violated}")
    if not math.isclose(out["objective_directed"], directed, rel_tol=1e-12):
        failures.append(f"objective_directed {out['objective_directed']} != {directed}")
    if not math.isclose(out["dist_const"], 1 - top / n, rel_tol=1e-12):
        failures.append(f"dist_const {out['dist_const']} != {1 - top / n}")
    return failures, {}


def _check_approx(job, out):
    res = out["result"]
    failures = []
    calls = [call for level in res["levels"] for call in level["calls"]]
    if res["queries"] != sum(call["queries"] for call in calls):
        failures.append("reported queries differ from the per-call sum")
    if job.info["monotone"] and (not res["promise_violation"]
                                 or any(c["verdict"] != "close" for c in calls)):
        failures.append("monotone input was not flagged promise_violation")
    return failures, {"epsilon_hat": res["epsilon_hat"], "queries": res["queries"]}


def _check_tester(job, out):
    res = out["result"]
    failures = []
    if res["trials"] != job.info["trials"]:
        failures.append(f"ran {res['trials']} trials, asked for {job.info['trials']}")
    if job.info["monotone"] and res["rejections"] != 0:
        failures.append(f"monotone input rejected in {res['rejections']} trials")
    return failures, {"rejection_rate": res["rejection_rate"],
                      "queries": res["mean_queries"] * res["trials"]}


_CHECKERS = {
    "exact-distance": _check_exact_distance,
    "decompose": _check_decompose,
    "verify-inequalities": _check_verify,
    "profile_dump": _check_profile,
    "approx-distance": _check_approx,
    "test-monotone": _check_tester,
}


def queries(job, output: dict) -> int:
    """Oracle queries a query-driven job made (0 for exact jobs)."""
    if job.kind == "approx-distance":
        return output["result"]["queries"]
    if job.kind == "test-monotone":
        return round(output["result"]["mean_queries"] * output["result"]["trials"])
    return 0
