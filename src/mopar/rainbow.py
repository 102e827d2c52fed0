"""Edge colorings as partitions of the edge set, and rainbow-matching search.

A coloring is a surjection from edge indices onto [0, c).  The canonical
exchange form numbers color classes by first edge occurrence, which kills
relabeling symmetry in caches and fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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

    def normal_form(self) -> EdgeColoring:
        return EdgeColoring.from_sequence(self.colors)

    def merge_classes(self, a: int, b: int) -> EdgeColoring:
        """Coloring with classes a and b merged, renumbered to normal form."""
        if a == b:
            raise ValueError("cannot merge a class with itself")
        return EdgeColoring.from_sequence(
            a if c == b else c for c in self.colors
        )

    def classes(self) -> list[tuple[int, ...]]:
        out: list[list[int]] = [[] for _ in range(self.num_colors)]
        for idx, c in enumerate(self.colors):
            out[c].append(idx)
        return [tuple(c) for c in out]


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


def iterate_rainbow_matchings(
    g: Graph, colors: Sequence[int], k: int
) -> Iterator[tuple[int, ...]]:
    """All k-matchings with pairwise distinct colors, lexicographically.

    `colors` may be any per-edge label sequence; only equality matters.
    Color-seen pruning happens during matching extension, not after.  A
    partial matching that still needs `left` edges from edges i.. stops
    once those edges cover fewer than 2 * left unused vertices or carry
    fewer than `left` unseen colors: that subtree holds no rainbow
    k-matching, so nothing yielded changes.
    """
    edges = g.edges
    m = len(edges)
    vmask = [1 << u | 1 << v for u, v in edges]
    cbit = [1 << c for c in colors]
    # free[i], hues[i]: the vertices covered and colors used by edges i..m-1
    free = [0] * (m + 1)
    hues = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        free[i] = free[i + 1] | vmask[i]
        hues[i] = hues[i + 1] | cbit[i]

    def extend(start: int, used: int, seen: int, picked: tuple[int, ...]):
        left = k - len(picked)
        if left == 0:
            yield picked
            return
        for i in range(start, m):
            if (
                (free[i] & ~used).bit_count() < 2 * left
                or (hues[i] & ~seen).bit_count() < left
            ):
                return
            if vmask[i] & used or cbit[i] & seen:
                continue
            yield from extend(i + 1, used | vmask[i], seen | cbit[i], picked + (i,))

    yield from extend(0, 0, 0, ())


def find_rainbow_matching(
    g: Graph, coloring: EdgeColoring, k: int
) -> RainbowWitness | None:
    """First rainbow k-matching under the coloring, or None."""
    _check_lengths(g, coloring)
    for matching in iterate_rainbow_matchings(g, coloring.colors, k):
        return RainbowWitness(
            matching, tuple(coloring.colors[i] for i in matching)
        )
    return None


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
    a missing or wrongly typed field is a ValueError naming it."""
    if not isinstance(data, dict):
        raise ValueError("certificate must be a JSON object")
    graph = json_field(
        data, "graph", lambda v: isinstance(v, str), "a graph6 string"
    )
    k = json_field(data, "k", is_int, "an integer")
    colors = json_field(
        data, "colors", lambda v: isinstance(v, list) and all(map(is_int, v)),
        "a list of integers",
    )
    num_colors = json_field(data, "num_colors", is_int, "an integer")
    return graph, k, EdgeColoring(tuple(colors), num_colors)
