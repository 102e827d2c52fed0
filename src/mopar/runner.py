"""Class-level sweeps: ar over all maximal outerplanar graphs of an order.

ar over the class is the max of the per-graph values, so a sweep solves
every isomorphism class representative, caches results keyed by
(polygon name, k), and reduces in member order so output never depends
on worker scheduling.  A member's polygon name is the graph6 of its
polygon labeling, as `enumerate_mops` returns it and `mop enumerate`
prints it (see `_class_members`).  A fresh member's witness is checked
where it was solved, in that process and on the graph it was solved on,
so a pooled sweep's checks run in its workers and the parent's
`verify_class_result` repeats none of them.
"""

from __future__ import annotations

import json
import os
import random
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from pathlib import Path

# canonical_form is not called here; the benchmark tracer patches
# runner.canonical_form by name
from .graphs import Graph, canonical_form, graph6_decode  # noqa: F401
from .mops import MAX_ENUM_N, enumerate_mops
from .rainbow import verify_certificate
from .solver import EXACT, ArResult, ar_exact, check_budget, check_k

# a pool takes a cell's members in chunks, about eight per worker, so that
# a slow member rarely holds up the tail; capped so that a long sweep still
# appends to its cache every few seconds
MAX_CHUNK = 32

# the share of a sweep's cache hits that `ar_class` re-solves above their
# cached upper bound
AUDIT_FRACTION = 0.05

HOLDS = "HOLDS"
VIOLATED = "VIOLATED"
VACUOUS = "VACUOUS"
NOT_APPLICABLE = "NOT_APPLICABLE"
UNKNOWN = "UNKNOWN"


@dataclass
class ClassResult:
    """A sweep's member results, in `_class_members` order, each named by
    its member's polygon name; the class value, argmax and unsolved
    members are read off them."""

    n: int
    k: int
    results: list[ArResult]

    @property
    def value(self) -> int:
        """The largest member value, 0 with no members."""
        return max((r.value for r in self.results), default=0)

    @property
    def argmax(self) -> list[str]:
        """The members whose witness reaches the class value.

        This depends on the floor.  With the floor below the value, a
        complete sweep lists every member that attains it.  At a floor
        equal to the value, a member that attains the value but whose seed
        does not is proved `<=` the floor and left out: `ar_class(12, 5)`
        lists 274 members at floor 15 and 179 at floor 16, both complete
        at 16.
        """
        value = self.value
        return sorted(r.graph6 for r in self.results if r.value == value)

    @property
    def unsolved(self) -> list[str]:
        """Members whose upper bound is unknown or above the class value."""
        value = self.value
        return [
            r.graph6 for r in self.results
            if r.upper is None or r.upper > value
        ]

    @property
    def complete(self) -> bool:
        return not self.unsolved

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


class CacheMismatch(RuntimeError):
    """A fresh coloring that verifies has more colors than a cached upper
    bound allows."""


class UnverifiedColoring(RuntimeError):
    """A fresh solve returned a coloring that fails its witness check."""


class ResultCache:
    """Append-only JSON-lines store of solver results with a proved upper
    bound.

    Keyed by (polygon name, k), as `ar_class` names members; each key
    holds its best line: lowest upper, then highest value, then the
    earliest.  Results a budget ended (upper None) are never written.
    Lines that `ArResult.from_json` rejects, undecodable bytes included,
    are skipped with a warning on load.  A line's witness is checked by
    `verify_result` only when `get` is about to serve it, so lines for
    cells a sweep never reads and lines a better one supersedes cost
    nothing; a line that fails is dropped with a warning and its member
    is solved again.  The path is opened for appending once, when the
    cache is made, so an unwritable one fails before any sweep; that
    descriptor is held for every `put` and closed when the cache is
    collected.  Each result is one line, written whole by `os.write` in
    append mode, so concurrent readers and other caches on the same file
    always see whole records.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.entries: dict[tuple[str, int], ArResult] = {}
        self.hits = 0
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666
        )
        weakref.finalize(self, os.close, self._fd)
        self._load()

    def _load(self) -> None:
        with self.path.open("rb") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    result = ArResult.from_json(json.loads(line))
                except ValueError:
                    # also json.JSONDecodeError and UnicodeDecodeError
                    warnings.warn(
                        f"{self.path}:{lineno}: skipping corrupt cache line"
                    )
                    continue
                if result.upper is not None:
                    self._keep(result)

    def _keep(self, result: ArResult) -> None:
        # the held line gives way only to one that ranks strictly better:
        # lower upper, then higher value, so a tie keeps the earlier line
        held = self.entries.setdefault((result.graph6, result.k), result)
        if (result.upper, -result.value) < (held.upper, -held.value):
            self.entries[result.graph6, result.k] = result

    def get(self, graph6: str, k: int, floor: int = 0) -> ArResult | None:
        """The member's line, if it settles the member above `floor` (it
        is EXACT, or proves ar <= floor) and its witness verifies.  A line
        that fails is dropped, so the member is solved again."""
        key = (graph6, k)
        found = self.entries.get(key)
        if found is None or not (found.mode == EXACT or found.upper <= floor):
            return None
        if verify_result(found):
            self.hits += 1
            return found
        warnings.warn(
            f"{self.path}: {graph6!r}, k={k}: skipping corrupt cache line"
        )
        del self.entries[key]
        return None

    def put(self, result: ArResult) -> None:
        if result.upper is None:
            return
        self._keep(result)
        line = memoryview((result.dumps() + "\n").encode())
        while line:
            line = line[os.write(self._fd, line):]


def verify_result(result: ArResult, g: Graph | None = None) -> bool:
    """The result's witness verifies at exactly its value, without trusting
    the solver.  A witness that colors a different number of edges than
    the graph has fails; `ArResult` itself refuses an upper bound below
    the value.  `g` is the graph `result.graph6` names, when the caller
    has it decoded already; it is decoded here otherwise.

    A pass is recorded on the result, so each result is checked once: a
    fresh member checked where it was solved (in a pool worker too, as the
    record is pickled with the result) and a cache line checked when it
    was served are not checked again by `verify_class_result`.  A failure
    is not recorded."""
    if result._verified:
        return True
    if g is None:
        g = graph6_decode(result.graph6)
    ok = (
        len(result.witness.colors) == g.edge_count
        and verify_certificate(g, result.witness, result.k, result.value).ok
    )
    result._verified = ok
    return ok


def verify_class_result(result: ClassResult) -> bool:
    """Every member passes `verify_result`."""
    return all(map(verify_result, result.results))


def _solve(item: tuple[str, int, int | None, bool], k: int) -> ArResult:
    """Solve one item, checking its witness on the same graph if it asks."""
    graph6, floor, max_nodes, check = item
    g = graph6_decode(graph6)
    result = ar_exact(g, k, max_nodes=max_nodes, floor=floor)
    if check:
        verify_result(result, g)
    return result


@lru_cache(maxsize=1)
def _class_members(n: int) -> tuple[str, ...]:
    """The polygon name of every class member, as `enumerate_mops` lists
    them: the graph6 of the polygon labeling it reads off the member's
    least dihedral quiddity key, in ascending key order, the lines
    `mop enumerate` prints.  Witness edge indices, cache keys and
    per-graph results all refer to it.  The key depends on the class
    alone and the labeling on the key alone, so the name is canonical.
    The last order's tuple is kept, so a range sweep, which runs its cells
    n-major, lists each order once.
    """
    return tuple(enumerate_mops(n))


def table_cells(
    n_range: tuple[int, int], k_range: tuple[int, int]
) -> list[tuple[int, int]]:
    """The (n, k) cells of a range sweep, ordered by n then k.  Cells with
    n < 2k are skipped (members without any k-matching make the class
    value ill-defined)."""
    return [
        (n, k)
        for n in range(n_range[0], n_range[1] + 1)
        for k in range(k_range[0], k_range[1] + 1)
        if 2 * k <= n
    ]


def check_sweep(
    cells: list[tuple[int, int]], *, max_nodes: int | None, jobs: int
) -> None:
    """Raise ValueError unless a sweep can honour its options: the node
    budget is not negative, jobs >= 1, there is at least one (n, k) cell
    and every cell passes `check_k` and has 2k <= n <= MAX_ENUM_N, so the
    solver takes k, the class is enumerable and each member contains a
    k-matching.  Every cell is checked before any is swept."""
    check_budget(max_nodes)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1; got jobs={jobs}")
    if not cells:
        raise ValueError(
            "no (n, k) cell to sweep: a range is reversed or every cell "
            "has n < 2k"
        )
    for n, k in cells:
        check_k(k)
        if not 2 * k <= n <= MAX_ENUM_N:
            raise ValueError(
                f"class query needs 2k <= n <= {MAX_ENUM_N}; got n={n}, k={k}"
            )


def ar_class(
    n: int,
    k: int,
    *,
    max_nodes: int | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    floor: int = 0,
) -> ClassResult:
    """ar over all maximal outerplanar graphs of order n, for matchings of
    size k.

    The options must pass `check_sweep`.  Every member is a complete
    search above `floor`, so it ends EXACT or proved to have ar <= floor,
    unless its node budget (max_nodes, as in ar_exact) stops it and
    leaves its upper bound unknown.  Members are taken in `_class_members`
    order and named by their polygon names: a cached result that settles
    the member above `floor` as it is, any other solved in this process
    (jobs=1) or in chunks by a pool of `jobs` processes, which starts only
    when some member is not a cache hit.  The sweep is complete when
    every member's upper bound is at most the class value, so a floor at
    or above the class value leaves it incomplete.  Each member solved
    here has its witness checked by `verify_result` in the process that
    solved it, so `verify_class_result` repeats none of those checks and
    fails on a member whose witness failed.  A seeded AUDIT_FRACTION of
    the results read from the cache is re-solved above its cached upper
    bound, after the members and in the same way, but its witness is
    checked only if it has more colors: then it raises CacheMismatch if
    it verifies and UnverifiedColoring if it does not.  Results solved by
    this call are not audited.  When the sweep raises, a pool cancels the
    chunks it has not started.
    """
    check_sweep([(n, k)], max_nodes=max_nodes, jobs=jobs)
    members = _class_members(n)
    cached: dict[str, ArResult] = {}
    if cache is not None:
        cached = {
            g6: hit for g6 in members if (hit := cache.get(g6, k, floor))
        }
    # the members the cache does not settle, then the audit sample: the
    # witness checked when the cache served a hit proves its lower
    # direction, and a search above its upper bound must find nothing
    items = [(g6, floor, max_nodes, True) for g6 in members if g6 not in cached]
    # a pool starts only for members to solve, not for the audit alone
    pooled = jobs > 1 and bool(items)
    audit: list[ArResult] = []
    if cached and AUDIT_FRACTION > 0:
        rng = random.Random(f"audit:{k}:{len(members)}")
        size = min(len(cached), max(1, int(len(cached) * AUDIT_FRACTION)))
        audit = rng.sample(list(cached.values()), size)
        # checked only if it beats the cached upper bound
        items += [(hit.graph6, hit.upper, None, False) for hit in audit]
    solve = partial(_solve, k=k)

    ordered: list[ArResult] = []
    # a forked pool starts all its workers at the first submit, so it is
    # given no more than there are items
    workers = min(jobs, len(items))
    with ProcessPoolExecutor(workers) if pooled else nullcontext() as pool:
        if pool:
            chunk = min(MAX_CHUNK, max(1, len(items) // (8 * workers)))
            fresh = pool.map(solve, items, chunksize=chunk)
        else:
            fresh = map(solve, items)
        try:
            for g6 in members:
                result = cached.get(g6)
                if result is None:
                    result = next(fresh)
                    if cache is not None:
                        cache.put(result)
                ordered.append(result)
            # the rest are the audit's results, neither cached nor returned
            for hit, result in zip(audit, fresh):
                if result.value > hit.upper:
                    found = (
                        f"recomputation finds {result.value} colors for "
                        f"{hit.graph6!r}, k={k}, above the cache's "
                        f"ar<={hit.upper}"
                    )
                    if not verify_result(result):
                        raise UnverifiedColoring(
                            f"{found}, but that coloring fails its check: "
                            "the solver is at fault, not the cache"
                        )
                    raise CacheMismatch(found)
        except BaseException:
            # map queued every chunk, and leaving the block would wait
            # for them all; the ones not started are dropped
            if pool:
                pool.shutdown(cancel_futures=True)
            raise
    return ClassResult(n, k, ordered)


# ---------------------------------------------------------------------------
# bound checks
# ---------------------------------------------------------------------------

@dataclass
class BoundCheck:
    """Computed class value against the known general bounds.

    lower = n + 2k - 6 applies for k >= 3 and 2k <= n.  upper = n + 4k - 9
    applies for k >= 2 and n >= 3k - 3, except that the paper's second
    theorem, ar(O_n, M_5) = n + 4 for n >= 15, sharpens it to n + 4 there.
    upper is flagged VACUOUS when the trivial edge-count cap 2n - 3 already
    implies it.  At k = 5 the lower bound is n + 4 too, so a complete sweep of an
    order past 14 whose value is not n + 4 violates one of the two.
    """

    n: int
    k: int
    value: int
    complete: bool
    lower: int
    upper: int
    trivial_cap: int
    lower_verdict: str
    upper_verdict: str

    def to_json(self) -> dict:
        return asdict(self)


def evaluate_bounds(n: int, k: int, value: int, complete: bool) -> BoundCheck:
    lower = n + 2 * k - 6
    upper = n + 4 if k == 5 and n >= 15 else n + 4 * k - 9
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
