"""Command-line surface and reproducible experiment runner.

Every command echoes its configuration and master seed into the report.
Per-instance work derives its seed from (master seed, instance index),
so reruns with an equal configuration produce identical results whether
they run sequentially or under --jobs; the only non-deterministic report
field is the wall-clock entry in the meta block.

Exit codes: 0 all checks passed, 1 some check failed, 2 usage error
(including an input over the exact methods' pair budget, `poset.MAX_PAIRS`).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from fractions import Fraction
from functools import cache, partial

import numpy as np

from . import __version__
from .decomposition import decompose, decomposition_dump, edge_bound_check, \
    robust_chain_check
from .dist_approx import approx_distance, mu_exact
from .funcs import CountingOracle, random_function, random_monotone, read_function, \
    write_function
from .hard_instances import LowerBoundSpec, lower_bound_function
from .isoperimetry import EdgeColoring, dist_to_const_fraction, \
    undirected_objective, violation_profile
from .oracles import exact_distance
from .poset import DomainSizeError, hypercube, read_domain
from .seeds import derive_seed, parallel_map
from .testers import DEFAULT_BUDGET_CONSTANT, dimension, measure_rejection, pair_schedule

TWO_SQRT_TWO = 2.0 * (2.0 ** 0.5)


def _meta(command: str, config: dict, seed: int, started: float) -> dict:
    return {
        "tool": "monocube",
        "version": __version__,
        "command": command,
        "config": config,
        "seed": seed,
        "elapsed_seconds": round(time.perf_counter() - started, 6),
    }


def _check_at_least(args, **least: int) -> None:
    """Raise ValueError naming the first option below its least value: a
    negative count or no worker would check nothing and still pass."""
    for name, low in least.items():
        if getattr(args, name) < low:
            raise ValueError(f"--{name.replace('_', '-')} must be at least {low}, "
                             f"not {getattr(args, name)}")


def _check_distinct(paths: dict) -> None:
    """Raise ValueError naming two options that are one file, before any
    is written: the later write would overwrite the earlier."""
    seen = {}
    for option, path in paths.items():
        if path:
            real = os.path.realpath(path)
            if real in seen:
                raise ValueError(f"{seen[real]} and {option} name the same file {path}")
            seen[real] = option


def _emit(report: dict, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2)  # streamed: the bytes json.dumps returns
            fh.write("\n")
    else:
        print(json.dumps(report, indent=2))


# -- generators -----------------------------------------------------------------


def cmd_gen_function(args) -> int:
    started = time.perf_counter()
    _check_distinct({"--domain": args.domain, "--out": args.out, "--report": args.report})
    if args.domain:
        domain = read_domain(args.domain)
    else:
        domain = hypercube(args.d)
    gen = random_monotone if args.monotone else random_function
    f = gen(domain, args.r, args.seed)
    write_function(f, args.out)
    print(f"wrote {args.out}: n={domain.n} image_size={len(f.levels)}"
          f"{' (monotone)' if args.monotone else ''}")
    if args.report:
        config = {"d": args.d, "domain": args.domain, "r": args.r, "seed": args.seed,
                  "monotone": args.monotone, "out": args.out}
        _emit({"meta": _meta("gen-function", config, args.seed, started)}, args.report)
    return 0


def cmd_gen_lowerbound(args) -> int:
    spec = LowerBoundSpec(args.d, args.r, args.i)
    f = lower_bound_function(spec)
    write_function(f, args.out)
    print(f"wrote {args.out}: d={args.d} r={args.r} i={args.i} "
          f"width={spec.width} image_size={len(f.levels)}")
    return 0


# -- single-function commands -----------------------------------------------------


def cmd_exact_distance(args) -> int:
    started = time.perf_counter()
    f = read_function(args.fn)
    cert = exact_distance(f)
    report = {
        "result": {
            "epsilon": str(cert.epsilon),
            "epsilon_float": float(cert.epsilon),
            "cover_size": cert.cover_size,
            "vertex_cover": sorted(cert.vertex_cover),
            "repaired_values": list(cert.repaired.values),
            "monotone": cert.cover_size == 0,
        },
        "meta": _meta("exact-distance", {"fn": args.fn}, 0, started),
    }
    _emit(report, args.out)
    return 0


def cmd_decompose(args) -> int:
    started = time.perf_counter()
    f = read_function(args.fn)
    dec = decompose(f)
    doc = decomposition_dump(dec)
    doc["meta"] = _meta("decompose", {"fn": args.fn}, 0, started)
    _emit(doc, args.out)
    return 0 if dec.monotone or dec.certificate.all_ok else 1


def cmd_test_monotone(args) -> int:
    started = time.perf_counter()
    _check_at_least(args, trials=1, jobs=1)
    f = read_function(args.fn)
    dimension(f.domain, "test-monotone")
    run = partial(pair_schedule, epsilon=args.eps, r=len(f.levels),
                  budget_constant=args.budget)
    measurement = measure_rejection(f, run, args.trials, args.seed, jobs=args.jobs)
    report = {
        "result": {
            "trials": measurement.trials,
            "rejections": measurement.rejections,
            "rejection_rate": measurement.rate,
            "wilson95": [measurement.wilson_low, measurement.wilson_high],
            "mean_queries": measurement.mean_queries,
            "per_setting": [{"b": b, "tau": tau, **stats}
                            for (b, tau), stats in measurement.per_setting.items()],
        },
        "meta": _meta("test-monotone",
                      {"fn": args.fn, "eps": args.eps, "budget": args.budget,
                       "trials": args.trials, "jobs": args.jobs},
                      args.seed, started),
    }
    _emit(report, args.out)
    return 0


def cmd_approx_distance(args) -> int:
    started = time.perf_counter()
    f = read_function(args.fn)
    dimension(f.domain, "approx-distance")
    result = approx_distance(CountingOracle(f), args.alpha, args.cprime, args.seed)

    def _tester_call(rep):
        return {
            "verdict": rep.verdict,
            "queries": rep.queries,
            "edge_estimate": rep.edge_estimate.value,
            "edge_threshold": rep.edge_threshold,
            "mu_threshold": rep.mu_threshold,
            "mu_per_t": [{"t": t, "S": list(S), "estimate": est.value,
                          "samples": est.samples}
                         for (t, S, est) in rep.mu_estimates],
            "triggered_by": rep.triggered_by,
        }

    report = {
        "result": {
            "epsilon_hat": result.epsilon_hat,
            "promise_violation": result.promise_violation,
            "queries": result.queries,
            "levels": [{"epsilon": level.epsilon, "far_votes": level.far_votes,
                        "verdict": level.verdict,
                        "calls": [_tester_call(r) for r in level.reports]}
                       for level in result.levels],
        },
        "meta": _meta("approx-distance",
                      {"fn": args.fn, "alpha": args.alpha, "cprime": args.cprime},
                      args.seed, started),
    }
    _emit(report, args.out)
    return 0


# -- the inequality verification suite ---------------------------------------------

# the columns of `_verify_instance`'s rows, in the order it fills them
VERIFY_FIELDS = ("index", "d", "r", "seed", "epsilon", "violated_edges", "monotone",
                 "edge_bound_full", "failures", "ok")


def _verify_instance(params: tuple) -> dict:
    """One instance of the verification suite; pure function of its args."""
    d, r, master_seed, index, colorings, mu_sets = params
    seed = derive_seed(master_seed, index)
    domain = hypercube(d)
    f = random_function(domain, r, seed)
    row: dict = {"index": index, "d": d, "r": r, "seed": seed}
    failures: list[str] = []

    # the decomposition's certificate solves f; the edge bound reads the same solve
    dec = decompose(f)
    eps = dec.epsilons[0]
    profile = violation_profile(f)
    row["epsilon"] = str(eps)
    row["violated_edges"] = profile.num_violated
    row["monotone"] = dec.monotone

    if not dec.monotone:
        if not dec.certificate.all_ok:
            failures.extend(f"decomposition:{name}:{w}"
                            for (name, w) in dec.certificate.failures())
        rng = np.random.default_rng(derive_seed(seed, 1))
        for c in range(colorings):
            col = EdgeColoring.random(profile, rng)
            chain = robust_chain_check(dec, col)
            if not (chain.ordering_ok and chain.distance_ok):
                failures.append(f"chain:coloring{c}:{chain.detail}")
    bound = edge_bound_check(f)
    if not bound.holds:
        failures.append("edge-bound:halved")
    if not bound.stronger_holds:
        failures.append("edge-bound:full")
    row["edge_bound_full"] = bound.stronger_holds

    lhs = undirected_objective(f)
    rhs = float(dist_to_const_fraction(f)) / TWO_SQRT_TWO
    if lhs < rhs - 1e-12:
        failures.append(f"undirected:{lhs}<{rhs}")

    if 2 * eps < Fraction(profile.num_violated, domain.num_edges):
        failures.append("lb-on-dist:edge-fraction")
    # each capture set holds each coordinate 1..d with probability 1/2
    sets = np.random.default_rng(derive_seed(seed, 2)).random((mu_sets, d)) < 0.5
    for chosen in sets:
        S = (np.flatnonzero(chosen) + 1).tolist()
        if 2 * eps < mu_exact(f, S):
            failures.append(f"lb-on-dist:mu:{S}")

    row["failures"] = failures
    row["ok"] = not failures
    return row


def cmd_verify_inequalities(args) -> int:
    started = time.perf_counter()
    _check_at_least(args, count=0, colorings=0, mu_sets=0, jobs=1)
    if args.format == "csv" and not args.out:
        raise ValueError("--format csv needs --out: the CSV is written next to the JSON report")
    csv_path = os.path.splitext(args.out)[0] + ".csv" if args.format == "csv" else None
    _check_distinct({"--out": args.out, "--format csv": csv_path})
    hypercube(args.d).check_table_budget()  # also when --count 0 builds no instance
    params = [(args.d, args.r, args.seed, idx, args.colorings, args.mu_sets)
              for idx in range(args.count)]
    rows = parallel_map(_verify_instance, params, args.jobs)
    failed = [r for r in rows if not r["ok"]]
    report = {
        "result": {
            "instances": args.count,
            "passed": args.count - len(failed),
            "failed": len(failed),
            "rows": rows,
        },
        "meta": _meta("verify-inequalities",
                      {"d": args.d, "r": args.r, "count": args.count,
                       "colorings": args.colorings, "mu_sets": args.mu_sets,
                       "jobs": args.jobs},
                      args.seed, started),
    }
    _emit(report, args.out)
    if args.format == "csv":  # the header is written also when there are no rows
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=VERIFY_FIELDS)
            writer.writeheader()
            writer.writerows({k: (";".join(v) if isinstance(v, list) else v)
                              for k, v in row.items()} for row in rows)
    print(f"verify-inequalities: {args.count - len(failed)}/{args.count} passed")
    return 1 if failed else 0


# -- parser -----------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `parse_args`
    returns a fresh namespace on every call, so calls share nothing."""
    parser = argparse.ArgumentParser(
        prog="monocube",
        description="Monotonicity testing and isoperimetric verification "
                    "for functions on hypercubes and DAG posets")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-function", help="generate a random function file")
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--domain", help="DAG domain JSON file (overrides --d)")
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--monotone", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_gen_function)

    p = sub.add_parser("gen-lowerbound", help="generate a hard-instance function file")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_lowerbound)

    p = sub.add_parser("exact-distance", help="exact distance to monotonicity")
    p.add_argument("--fn", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_exact_distance)

    p = sub.add_parser("decompose", help="Boolean decomposition with certificate")
    p.add_argument("--fn", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("test-monotone", help="run the pair tester repeatedly")
    p.add_argument("--fn", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--budget", type=float, default=DEFAULT_BUDGET_CONSTANT)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_test_monotone)

    p = sub.add_parser("approx-distance", help="distance approximation, nonadaptive per call",
                       description="Three nonadaptive tolerant-tester calls per epsilon = 1/2, "
                                   "1/4, ... down to alpha; the search stops at the first level "
                                   "voted far, so 'queries' counts only the calls that ran.")
    p.add_argument("--fn", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--cprime", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_approx_distance)

    p = sub.add_parser("verify-inequalities",
                       help="exact inequality suite over random instances")
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--colorings", type=int, default=3)
    p.add_argument("--mu-sets", dest="mu_sets", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_inequalities)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, DomainSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
