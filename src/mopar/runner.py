"""Class-level sweeps: ar over all maximal outerplanar graphs of an order.

ar over the class is the max of the per-graph values, so a sweep solves
every isomorphism class representative, caches results keyed by
(canonical graph6, k), and reduces in canonical graph order so output
never depends on worker scheduling.
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .graphs import Graph, canonical_form, graph6_decode
from .mops import bipartite_outerplanar_corpus, enumerate_mops
from .rainbow import verify_certificate
from .solver import EXACT, ArResult, ar_exact

MAX_CLASS_N = 16

HOLDS = "HOLDS"
VIOLATED = "VIOLATED"
VACUOUS = "VACUOUS"
NOT_APPLICABLE = "NOT_APPLICABLE"
UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class Limits:
    """Per-graph and sweep-level resource limits; None means unlimited.

    target_value stops a sweep as soon as some member witnesses that many
    colors (the result is then a certified lower bound, complete=False).
    total_millis caps the whole sweep's wall time; members not reached stay
    unsolved.  Both make a sweep sequential, so ar_class rejects them with
    jobs > 1.
    """

    max_nodes: int | None = None
    max_millis: float | None = None
    target_value: int | None = None
    total_millis: float | None = None


@dataclass
class ClassResult:
    n: int
    k: int
    value: int
    argmax: list[str]
    results: list[ArResult]
    complete: bool
    unsolved: list[str]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "value": self.value,
            "complete": self.complete,
            "argmax": self.argmax,
            "unsolved": self.unsolved,
            "results": [r.to_json() for r in self.results],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


class CacheMismatch(RuntimeError):
    """A cached value disagreed with a fresh recomputation."""


class ResultCache:
    """Append-only JSON-lines store of EXACT solver results.

    Keyed by (canonical graph6, k).  Non-EXACT lines are skipped; corrupt
    lines, and EXACT lines whose witness does not verify at exactly their
    value, are skipped with a warning.  Appends are one line per result so
    concurrent readers always see whole records.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.entries: dict[tuple[str, int], ArResult] = {}
        self.hits = 0
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        with self.path.open() as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    result = ArResult.from_json(json.loads(line))
                    corrupt = result.mode == EXACT and not _certified(result)
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    corrupt = True
                if corrupt:
                    warnings.warn(
                        f"{self.path}:{lineno}: skipping corrupt cache line"
                    )
                    continue
                if result.mode != EXACT:
                    continue
                self.entries[(result.graph6, result.k)] = result

    def get(self, graph6: str, k: int) -> ArResult | None:
        found = self.entries.get((graph6, k))
        if found is not None:
            self.hits += 1
        return found

    def put(self, result: ArResult) -> None:
        if result.mode != EXACT:
            return
        self.entries[(result.graph6, result.k)] = result
        with self.path.open("a") as handle:
            handle.write(result.dumps() + "\n")


def _certified(result: ArResult) -> bool:
    """The result's witness verifies at exactly its value; only k = 1, whose
    value is 0, has no witness."""
    if result.witness is None:
        return result.k == 1 and result.value == 0
    g = graph6_decode(result.graph6)
    return verify_certificate(g, result.witness, result.k, result.value).ok


def _solve_worker(args: tuple[str, int, int | None, float | None]) -> ArResult:
    graph6, k, max_nodes, max_millis = args
    return ar_exact(
        graph6_decode(graph6), k, max_nodes=max_nodes, max_millis=max_millis
    )


def _class_members(n: int) -> list[tuple[str, Graph]]:
    """(canonical graph6, canonically relabeled graph), sorted by the string.

    Solving the canonical labeling makes witness edge indices, cache keys,
    and per-graph results all refer to one labeling of each class member.
    """
    members = []
    for g in enumerate_mops(n):
        form = canonical_form(g)
        members.append((form.graph6, g.relabel(form.permutation)))
    members.sort(key=lambda pair: pair[0])
    return members


def ar_class(
    n: int,
    k: int,
    *,
    limits: Limits | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    audit_fraction: float = 0.05,
) -> ClassResult:
    """ar over all maximal outerplanar graphs of order n, for matchings of
    size k.

    Requires 2k <= n so every class member actually contains a k-matching.
    With a target_value limit the sweep runs sequentially and stops at the
    first member witnessing the target.  target_value and total_millis
    need a sequential sweep, so either one with jobs > 1 is a ValueError.
    A fraction of cache hits is re-solved and compared (raising
    CacheMismatch on disagreement).
    """
    if not 2 * k <= n <= MAX_CLASS_N:
        raise ValueError(
            f"class query needs 2k <= n <= {MAX_CLASS_N}; got n={n}, k={k}"
        )
    limits = limits or Limits()
    if jobs > 1 and (
        limits.target_value is not None or limits.total_millis is not None
    ):
        raise ValueError(
            "a target value or a total time limit runs the sweep "
            f"sequentially; got jobs={jobs}"
        )
    members = _class_members(n)
    results: dict[str, ArResult] = {}

    todo = [g6 for g6, _ in members if cache is None or cache.get(g6, k) is None]
    if cache is not None:
        for g6, _ in members:
            hit = cache.entries.get((g6, k))
            if hit is not None:
                results[g6] = hit

    graph_of = dict(members)

    if limits.target_value is not None:
        # sequential hunt: floor-pruned searches, stop at the target
        floor = limits.target_value - 1
        for g6, member in members:
            if g6 in results:
                if results[g6].value >= limits.target_value:
                    break
                continue
            result = ar_exact(
                member, k,
                max_nodes=limits.max_nodes, max_millis=limits.max_millis,
                floor=floor, stop_at=limits.target_value,
            )
            results[g6] = result
            if cache is not None:
                cache.put(result)
            if result.value >= limits.target_value:
                break
    elif jobs > 1 and todo:
        work = [(g6, k, limits.max_nodes, limits.max_millis) for g6 in todo]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for result in pool.map(_solve_worker, work):
                results[result.graph6] = result
                if cache is not None:
                    cache.put(result)
    else:
        sweep_start = time.perf_counter()
        for g6 in todo:
            if (
                limits.total_millis is not None
                and (time.perf_counter() - sweep_start) * 1000.0
                > limits.total_millis
            ):
                break
            result = ar_exact(
                graph_of[g6], k,
                max_nodes=limits.max_nodes, max_millis=limits.max_millis,
            )
            results[g6] = result
            if cache is not None:
                cache.put(result)

    if cache is not None and audit_fraction > 0:
        _audit_cache(cache, members, k, audit_fraction)

    ordered = [results[g6] for g6, _ in members if g6 in results]
    value = max(r.value for r in ordered) if ordered else 0
    solved = {r.graph6 for r in ordered if r.mode == EXACT}
    unsolved = [g6 for g6, _ in members if g6 not in solved]
    argmax = sorted(
        r.graph6 for r in ordered if r.value == value and r.mode == EXACT
    )
    if not argmax:
        argmax = sorted(r.graph6 for r in ordered if r.value == value)
    return ClassResult(
        n=n, k=k, value=value, argmax=argmax, results=ordered,
        complete=not unsolved, unsolved=unsolved,
    )


def _audit_cache(
    cache: ResultCache,
    members: list[tuple[str, Graph]],
    k: int,
    fraction: float,
) -> None:
    hits = [g6 for g6, _ in members if (g6, k) in cache.entries]
    if not hits:
        return
    rng = random.Random(f"audit:{k}:{len(members)}")
    sample_size = max(1, int(len(hits) * fraction))
    graph_of = dict(members)
    for g6 in rng.sample(hits, min(sample_size, len(hits))):
        fresh = ar_exact(graph_of[g6], k)
        cached = cache.entries[(g6, k)]
        if fresh.value != cached.value:
            raise CacheMismatch(
                f"cache says ar={cached.value} but recomputation gives "
                f"{fresh.value} for {g6!r}, k={k}"
            )


# ---------------------------------------------------------------------------
# bound checks
# ---------------------------------------------------------------------------

@dataclass
class BoundCheck:
    """Computed class value against the known general bounds.

    lower = n + 2k - 6 applies whenever 2k <= n; upper = n + 4k - 9 applies
    only for n >= 3k - 3 and is flagged VACUOUS when the trivial edge-count
    cap 2n - 3 already implies it.
    """

    n: int
    k: int
    lower: int
    upper: int
    trivial_cap: int
    value: int
    complete: bool
    lower_verdict: str
    upper_verdict: str

    def to_json(self) -> dict:
        return {
            "n": self.n, "k": self.k,
            "lower": self.lower, "upper": self.upper,
            "trivial_cap": self.trivial_cap,
            "value": self.value, "complete": self.complete,
            "lower_verdict": self.lower_verdict,
            "upper_verdict": self.upper_verdict,
        }


def evaluate_bounds(n: int, k: int, value: int, complete: bool) -> BoundCheck:
    lower = n + 2 * k - 6
    upper = n + 4 * k - 9
    cap = 2 * n - 3
    if k < 3:
        # the general lower bound is not claimed for 2-matchings, where the
        # class value collapses to 1 from order 5 on
        lower_verdict = NOT_APPLICABLE
    elif value >= lower:
        lower_verdict = HOLDS
    else:
        lower_verdict = VIOLATED if complete else UNKNOWN
    if n < 3 * k - 3:
        upper_verdict = NOT_APPLICABLE
    elif cap <= upper:
        upper_verdict = VACUOUS
    elif value > upper:
        upper_verdict = VIOLATED
    else:
        upper_verdict = HOLDS if complete else UNKNOWN
    return BoundCheck(
        n=n, k=k, lower=lower, upper=upper, trivial_cap=cap,
        value=value, complete=complete,
        lower_verdict=lower_verdict, upper_verdict=upper_verdict,
    )


def check_bounds(
    n: int,
    k: int,
    *,
    limits: Limits | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> BoundCheck:
    result = ar_class(n, k, limits=limits, jobs=jobs, cache=cache)
    return evaluate_bounds(n, k, result.value, result.complete)


# ---------------------------------------------------------------------------
# bipartite edge bound sweep
# ---------------------------------------------------------------------------

@dataclass
class LemmaReport:
    """Exhaustive check of e(G) <= n + |X| - 2 over bipartite outerplanar
    graphs with the side X minimized; tight graphs listed per order."""

    n_max: int
    checked: int
    violations: list[dict] = field(default_factory=list)
    tight: dict[int, list[str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "n_max": self.n_max,
            "checked": self.checked,
            "ok": self.ok,
            "violations": self.violations,
            "tight": {str(n): sorted(g6s) for n, g6s in sorted(self.tight.items())},
        }


def lemma_bipartite_check(n_max: int) -> LemmaReport:
    from .graphs import bipartition_of

    report = LemmaReport(n_max=n_max, checked=0)
    for g in bipartite_outerplanar_corpus(n_max):
        bp = bipartition_of(g)
        assert bp is not None
        x_size = bp.sizes[0]
        bound = g.n + x_size - 2
        report.checked += 1
        g6 = canonical_form(g).graph6
        if g.edge_count > bound:
            report.violations.append(
                {"graph": g6, "n": g.n, "edges": g.edge_count,
                 "x_size": x_size, "bound": bound}
            )
        elif g.edge_count == bound:
            report.tight.setdefault(g.n, []).append(g6)
    return report


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

TABLE_FIELDS = (
    "n", "k", "value", "complete", "lower", "upper", "trivial_cap",
    "lower_verdict", "upper_verdict", "elapsed_ms",
)


def build_table(
    n_range: tuple[int, int],
    k_range: tuple[int, int],
    *,
    limits: Limits | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> list[dict]:
    """One row per valid (n, k) cell, ordered by n then k.

    Cells with n < 2k are skipped (members without any k-matching make the
    class value ill-defined).  elapsed_ms sums the per-graph solve times,
    so a warm cache reproduces the table byte for byte.
    """
    rows = []
    for n in range(n_range[0], n_range[1] + 1):
        for k in range(k_range[0], k_range[1] + 1):
            if n < 2 * k:
                continue
            result = ar_class(n, k, limits=limits, jobs=jobs, cache=cache)
            bounds = evaluate_bounds(n, k, result.value, result.complete)
            row = bounds.to_json()
            row["elapsed_ms"] = round(sum(r.elapsed_ms for r in result.results), 3)
            rows.append({key: row[key] for key in TABLE_FIELDS})
    return rows


def render_table(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=TABLE_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buffer.getvalue()
    raise ValueError(f"unsupported table format {fmt!r}")


def emit_table(
    n_range: tuple[int, int],
    k_range: tuple[int, int],
    out_path: str | Path,
    fmt: str,
    *,
    limits: Limits | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> Path:
    out_path = Path(out_path)
    rows = build_table(n_range, k_range, limits=limits, jobs=jobs, cache=cache)
    text = render_table(rows, fmt)
    try:
        out_path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write table to {out_path}: {exc}") from exc
    return out_path


def verify_class_result(result: ClassResult) -> bool:
    """Re-check every witness in a class result without trusting the solver."""
    return all(_certified(entry) for entry in result.results)
