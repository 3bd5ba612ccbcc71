"""Outside-in tracer: times calls into monocube's layers without editing it.

`Tracer.install` rebinds every ``monocube.*`` module attribute that *is*
one of the listed public functions (and ``networkx.max_weight_matching``,
which the decomposition layer calls) to a timing wrapper.  Each call
records a span (name, job, parent span, start, end, counts).  Spans stay
in memory until `summary` folds them into per-layer totals; a span's
self time is its duration minus the durations of its direct children.

Per-query hot paths such as ``CountingOracle.lookup_many`` are not
wrapped: query counts come from ``oracle.query_count`` deltas around the
estimator and tester calls instead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _length(result):
    return len(result)


def _samples(result):
    return result.samples


def _draws(result):
    return sum(s["draws"] for s in result.per_setting.values())


# (layer name, module, attribute, counts).  A count maps its name to a
# function of the call's result, or to None for the oracle queries the call
# made, read from ``query_count`` of its first argument.
LAYERS = (
    ("oracles.exact_distance", "monocube.oracles", "exact_distance", {}),
    ("oracles.violated_pairs", "monocube.oracles", "violated_pairs", {"pairs": _length}),
    ("oracles.is_monotone", "monocube.oracles", "is_monotone", {}),
    ("decomposition.max_weight_min_card_matching", "monocube.decomposition",
     "max_weight_min_card_matching", {"pairs": _length}),
    ("decomposition.nx_matching", "networkx", "max_weight_matching", {}),
    ("decomposition.merge_pairs", "monocube.decomposition", "merge_pairs",
     {"blocks": _length}),
    ("decomposition.build_components", "monocube.decomposition", "build_components", {}),
    ("decomposition.verify_decomposition", "monocube.decomposition",
     "verify_decomposition", {}),
    ("decomposition.robust_chain_check", "monocube.decomposition", "robust_chain_check", {}),
    ("decomposition.edge_bound_check", "monocube.decomposition", "edge_bound_check", {}),
    ("isoperimetry.violation_profile", "monocube.isoperimetry", "violation_profile", {}),
    ("isoperimetry.colored_counts", "monocube.isoperimetry", "colored_counts", {}),
    ("isoperimetry.undirected_objective", "monocube.isoperimetry", "undirected_objective",
     {}),
    ("isoperimetry.profile_dump", "monocube.isoperimetry", "profile_dump", {}),
    ("dist_approx.mu_estimate", "monocube.dist_approx", "mu_estimate",
     {"samples": _samples, "queries": None}),
    ("dist_approx.violated_fraction_estimate", "monocube.dist_approx",
     "violated_fraction_estimate", {"samples": _samples, "queries": None}),
    ("dist_approx.mu_exact", "monocube.dist_approx", "mu_exact", {}),
    ("testers.pair_tester", "monocube.testers", "pair_tester",
     {"draws": _draws, "queries": None}),
    ("funcs.read_function", "monocube.funcs", "read_function", {}),
    ("funcs.canonical_rank", "monocube.funcs", "canonical_rank", {}),
    ("poset.build_domain", "monocube.poset", "build_domain", {}),
    ("poset.sweeping_graph", "monocube.poset", "PosetDomain.sweeping_graph", {}),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, job, parent, start, end, counts]
        self.job: str | None = None
        self._stack: list[int] = []

    def wrap(self, name, fn, counters):
        spans, stack = self.spans, self._stack
        counts_queries = "queries" in counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            oracle = (args[0] if args else kwargs["oracle"]) if counts_queries else None
            before = oracle.query_count if counts_queries else 0
            index = len(spans)
            span = [name, self.job, stack[-1] if stack else None, 0.0, 0.0, None]
            spans.append(span)
            stack.append(index)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            span[5] = {key: (oracle.query_count - before if count is None else count(result))
                       for key, count in counters.items()}
            return result

        return wrapper

    def install(self) -> None:
        for (name, module_name, attr, counters) in LAYERS:
            module = importlib.import_module(module_name)
            owner, _, method = attr.rpartition(".")
            holder = getattr(module, owner) if owner else module
            original = getattr(holder, method)
            wrapper = self.wrap(name, original, counters)
            setattr(holder, method, wrapper)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "monocube" or mod_name.startswith("monocube.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def summary(self, job_seconds: dict[str, float]) -> dict[str, float]:
        """Per-layer calls, self seconds and counts over the spans recorded
        inside jobs, plus ``cli.self_s``: job time outside every wrapped call."""
        spans = self.spans
        child = [0.0] * len(spans)
        top = 0.0
        for (_, job, parent, start, end, _) in spans:
            if job is None:
                continue
            if parent is None:
                top += end - start
            else:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, _module, _attr, counters) in LAYERS:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            for key in counters:
                out[f"{name}.{key}"] = 0
        out["decomposition.verify_decomposition.exact_solves"] = 0
        for index, (name, job, parent, start, end, counts) in enumerate(spans):
            if job is None:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child[index]
            for key, value in (counts or {}).items():
                out[f"{name}.{key}"] += value
            if name == "oracles.exact_distance" \
                    and self._inside(index, "decomposition.verify_decomposition"):
                out["decomposition.verify_decomposition.exact_solves"] += 1
        out["cli.self_s"] = sum(job_seconds.values()) - top
        return out

    def _inside(self, index: int, name: str) -> bool:
        parent = self.spans[index][2]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][2]
        return False
