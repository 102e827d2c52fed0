"""Edge colorings as partitions of the edge set, and rainbow-matching search.

A coloring is a surjection from edge indices onto [0, c).  The canonical
exchange form numbers color classes by first edge occurrence, which kills
relabeling symmetry in caches and fixtures.

The rainbow search, which checks every witness coloring, is one plain
recursive walk over a mask of candidate edges: those after the last edge
picked that share neither a vertex nor a color with any edge picked.
Picking edge i narrows the mask by `later[i]`, and the last edge is read
straight off the mask's bits.  The walk stops at the lexicographically
first rainbow k-matching: one is enough to refute a witness, and it is the
one a refusal reports.  This module imports only `graphs`, so the checker
shares no code with the solver or the matching lists it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .graphs import Graph

OK = "OK"
NOT_SURJECTIVE = "NOT_SURJECTIVE"
WRONG_COUNT = "WRONG_COUNT"
RAINBOW_FOUND = "RAINBOW_FOUND"


@dataclass(frozen=True)
class EdgeColoring:
    """Per-edge color ids in [0, num_colors), every color used at least once."""

    colors: tuple[int, ...]
    num_colors: int

    def __post_init__(self):
        if not self.colors:
            raise ValueError("coloring over an empty edge set")
        used = set(self.colors)
        if used != set(range(self.num_colors)):
            raise ValueError(
                f"colors must be exactly 0..{self.num_colors - 1} and all used"
            )

    @staticmethod
    def from_sequence(seq: Iterable[int]) -> EdgeColoring:
        """Normalize an arbitrary label sequence to first-occurrence numbering."""
        seq = list(seq)
        remap: dict[int, int] = {}
        out = []
        for label in seq:
            if label not in remap:
                remap[label] = len(remap)
            out.append(remap[label])
        return EdgeColoring(tuple(out), len(remap))


@dataclass(frozen=True)
class RainbowWitness:
    """A k-matching (edge indices) whose colors are pairwise distinct."""

    matching: tuple[int, ...]
    colors: tuple[int, ...]


def _check_lengths(g: Graph, coloring: EdgeColoring) -> None:
    if len(coloring.colors) != g.edge_count:
        raise ValueError(
            f"coloring covers {len(coloring.colors)} edges, graph has {g.edge_count}"
        )


def _walk(
    vmask: list[int], free: list[int], later: list[int], cand: int,
    used: int, picked: tuple[int, ...], left: int,
) -> tuple[int, ...] | None:
    # the first extension of `picked` by `left` edges from the mask cand,
    # which is never empty
    if left == 1:
        return picked + ((cand & -cand).bit_length() - 1,)
    while cand:
        low = cand & -cand
        i = low.bit_length() - 1
        if (free[i] & ~used).bit_count() < 2 * left:
            return None
        cand ^= low
        rest = cand & later[i]
        if rest:
            found = _walk(
                vmask, free, later, rest, used | vmask[i], picked + (i,),
                left - 1,
            )
            if found is not None:
                return found
    return None


def find_rainbow_matching(
    g: Graph, coloring: EdgeColoring, k: int
) -> RainbowWitness | None:
    """The lexicographically first rainbow k-matching under the coloring,
    or None.

    `later[i]` holds the edges after edge i that share neither a vertex nor
    a color with it.  The walk keeps one stop rule: a partial matching
    that still needs `left` edges stops at the first candidate i from
    which the edges i..m-1 cover fewer than 2 * left unused vertices, since
    no k-matching lies in the rest of its subtree.
    """
    _check_lengths(g, coloring)
    if k < 1:
        return RainbowWitness((), ()) if k == 0 else None
    colors = coloring.colors
    edges = g.edges
    m = len(edges)
    vmask = [0] * m
    # free[i]: the vertices covered by edges i..m-1
    free = [0] * (m + 1)
    later = [0] * m
    # built from the last edge down, so that at edge i they hold the edges
    # after i: all of them, those at vertex v and those colored c
    after = 0
    incident = [0] * g.n
    hued = [0] * (max(colors, default=0) + 1)
    for i in range(m - 1, -1, -1):
        u, v = edges[i]
        c = colors[i]
        later[i] = after & ~(incident[u] | incident[v] | hued[c])
        bit = 1 << i
        after |= bit
        incident[u] |= bit
        incident[v] |= bit
        hued[c] |= bit
        vmask[i] = 1 << u | 1 << v
        free[i] = free[i + 1] | vmask[i]
    matching = _walk(vmask, free, later, (1 << m) - 1, 0, (), k)
    if matching is None:
        return None
    return RainbowWitness(matching, tuple(colors[i] for i in matching))


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str
    witness: RainbowWitness | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(
    g: Graph, coloring: EdgeColoring, k: int, claimed_colors: int
) -> VerifyResult:
    """Check that the coloring uses exactly the claimed number of colors and
    admits no rainbow k-matching."""
    _check_lengths(g, coloring)
    used = set(coloring.colors)
    if used != set(range(coloring.num_colors)):
        return VerifyResult(False, NOT_SURJECTIVE)
    if coloring.num_colors != claimed_colors:
        return VerifyResult(False, WRONG_COUNT)
    witness = find_rainbow_matching(g, coloring, k)
    if witness is not None:
        return VerifyResult(False, RAINBOW_FOUND, witness)
    return VerifyResult(True, OK)


# ---------------------------------------------------------------------------
# certificate serialization
# ---------------------------------------------------------------------------

def certificate_to_json(graph6: str, k: int, coloring: EdgeColoring) -> dict:
    """The coloring certificate that `mop verify` reads, and that result
    JSON and cache lines carry as their witness."""
    return {
        "graph": graph6,
        "k": k,
        "colors": list(coloring.colors),
        "num_colors": coloring.num_colors,
    }


def is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def json_field(
    data: dict, key: str, valid: Callable[[object], bool], what: str,
    owner: str = "certificate",
):
    """data[key], or a ValueError naming the field when it is missing or
    fails `valid`."""
    if key not in data:
        raise ValueError(f"{owner} has no {key!r} field")
    if not valid(data[key]):
        raise ValueError(f"{owner} field {key!r} must be {what}")
    return data[key]


def certificate_from_json(data: dict) -> tuple[str, int, EdgeColoring]:
    """Parse a coloring certificate into its graph6 string, k and coloring;
    a missing or wrongly typed field, or a k below 1, is a ValueError
    naming it."""
    if not isinstance(data, dict):
        raise ValueError("certificate must be a JSON object")
    graph = json_field(
        data, "graph", lambda v: isinstance(v, str), "a graph6 string"
    )
    k = json_field(
        data, "k", lambda v: is_int(v) and v >= 1, "a positive integer"
    )
    colors = json_field(
        data, "colors", lambda v: isinstance(v, list) and all(map(is_int, v)),
        "a list of integers",
    )
    num_colors = json_field(data, "num_colors", is_int, "an integer")
    return graph, k, EdgeColoring(tuple(colors), num_colors)
