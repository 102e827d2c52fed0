"""Spans around the calls into each mopar layer, recorded from outside.

`install` replaces the module-level names that the layers resolve at call
time with wrappers that record one span per call: (id, name, start, end,
parent, info).  Spans stay in memory until `dump` writes them out, and
`layer_metrics` derives counts, total times and self times from them.  A
generator is consumed inside its own span, so its span covers the work of
producing every item.

Only the calling process is traced: process-pool workers import mopar
afresh and run unwrapped code, so a traced run uses jobs=1.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module attribute path, span name, how to wrap)
PATCHES = (
    ("runner.ar_class", "runner.ar_class", "call"),
    ("runner.verify_class_result", "runner.verify_class", "call"),
    ("runner.enumerate_mops", "mops.enumerate", "call"),
    ("mops.enumerate_triangulations", "mops.triangulations", "generator"),
    ("runner.canonical_form", "graphs.canonical", "call"),
    ("graphs.canonical_form", "graphs.canonical", "call"),
    ("runner.ar_exact", "solver.ar_exact", "ar_exact"),
    ("solver.ar_exact", "solver.ar_exact", "ar_exact"),
    ("solver.seed_incumbent", "solver.seed", "seed"),
    ("solver.iterate_k_matchings", "matchings.kmatch", "generator"),
    ("solver.matching_number", "matchings.matching_number", "call"),
    ("runner.verify_certificate", "rainbow.verify", "call"),
    ("rainbow.verify_certificate", "rainbow.verify", "call"),
    ("runner.ResultCache.__init__", "runner.cache.open", "cache_open"),
    ("runner.ResultCache.get", "runner.cache.get", "cache_get"),
    ("runner.ResultCache.put", "runner.cache.put", "call"),
)


class Tracer:
    def __init__(self):
        # each span is [id, name, start, end, parent id or None, info]
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.caches: list = []

    def _open(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        span = [len(self.spans), name, time.perf_counter(), None, parent, {}]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, how: str):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            info = span[5]
            try:
                if how == "generator":
                    items = list(fn(*args, **kwargs))
                    info["items"] = len(items)
                    return iter(items)
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if how == "ar_exact":
                info["nodes"] = result.nodes
                # a member the cache already holds is being re-solved by the
                # audit; fresh solves are put only after ar_exact returns
                key = (result.graph6, result.k)
                info["audit"] = any(key in c.entries for c in tracer.caches)
                seed = info.get("seed")
                info["seed_short"] = (
                    not info["audit"] and seed is not None and result.value > seed
                )
            elif how == "seed":
                # seed_incumbent is called from inside ar_exact
                if tracer.stack:
                    tracer.stack[-1][5]["seed"] = result.num_colors
            elif how == "cache_open":
                tracer.caches.append(args[0])
            elif how == "cache_get":
                info["hit"] = result is not None
            return result

        return traced

    def install(self, mopar) -> None:
        wrapped: dict[int, object] = {}
        for path, name, how in PATCHES:
            *owner_path, attr = path.split(".")
            owner = mopar
            for part in owner_path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self.wrap(fn, name, how)
            setattr(owner, attr, wrapped[id(fn)])

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load_spans(path: str) -> list[list]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def layer_metrics(
    spans: list[list], members: int, scale: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass that attempted `members` members.

    Span durations are multiplied by `scale`.  Self time is a span's
    duration minus the durations of its direct children.
    """
    duration = {s[0]: (s[3] - s[2]) * scale for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] += duration[s[0]]
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    flags: dict[str, int] = defaultdict(int)
    for s in spans:
        name, info = s[1], s[5]
        calls[name] += 1
        total[name] += duration[s[0]]
        own[name] += duration[s[0]] - child_time[s[0]]
        for key in ("items", "nodes"):
            flags[f"{name}.{key}"] += info.get(key, 0)
        for key in ("audit", "seed_short", "hit"):
            flags[f"{name}.{key}"] += bool(info.get(key))

    def per(numerator: float, denominator: float, unit: float = 1.0) -> float:
        return numerator / denominator * unit if denominator else 0.0

    triangulations = flags["mops.triangulations.items"]
    nodes = flags["solver.ar_exact.nodes"]
    solver_calls = calls["solver.ar_exact"]
    return {
        "mops.enumerate.s": (total["mops.enumerate"], "s"),
        # enumerate_mops less the triangulation generator: the dihedral
        # dedup and building the graphs
        "mops.dedup.s": (own["mops.enumerate"], "s"),
        "mops.triangulations": (triangulations, "count"),
        "mops.us_per_triangulation": (
            per(total["mops.enumerate"], triangulations, 1e6), "us"),
        "graphs.canonical.calls": (calls["graphs.canonical"], "count"),
        "graphs.canonical.s": (total["graphs.canonical"], "s"),
        "matchings.kmatch.calls": (calls["matchings.kmatch"], "count"),
        "matchings.kmatchings": (flags["matchings.kmatch.items"], "count"),
        "matchings.kmatch.s": (total["matchings.kmatch"], "s"),
        "matchings.matching_number.s": (total["matchings.matching_number"], "s"),
        "solver.calls": (solver_calls, "count"),
        "solver.calls_per_member": (per(solver_calls, members), "ratio"),
        "solver.seed.s": (own["solver.seed"], "s"),
        "solver.seed_short": (flags["solver.ar_exact.seed_short"], "count"),
        "solver.nodes": (nodes, "count"),
        "solver.bb.s": (own["solver.ar_exact"], "s"),
        "solver.us_per_node": (per(own["solver.ar_exact"], nodes, 1e6), "us"),
        "rainbow.verify.calls": (calls["rainbow.verify"], "count"),
        "rainbow.verify.s": (total["rainbow.verify"], "s"),
        "runner.cache.load_s": (total["runner.cache.open"], "s"),
        "runner.cache.hits": (flags["runner.cache.get.hit"], "count"),
        "runner.cache.puts": (calls["runner.cache.put"], "count"),
        "runner.audit_solves": (flags["solver.ar_exact.audit"], "count"),
    }
