"""Maximal outerplanar graphs as polygon triangulations.

A maximal outerplanar graph (MOP) of order n >= 3 is a triangulation of
the convex n-gon, so labeled enumeration is the Catalan recursion and
isomorphism collapses to the dihedral action on the polygon (the outer
Hamiltonian cycle is unique for n >= 4).  A triangulation is fixed by its
quiddity sequence, so the classes are grown directly as sequences by ear
insertion, one per least rotation or reversal, and each is named by the
graph6 of its polygon labeling, read off the sequence without building a
graph.  A labeled triangulation is plain data: its sorted tuple of
diagonals (a, b), a < b.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .graphs import _graph6_of_key

# the class limit: order 18 has 983,244 classes (OEIS A000207)
MAX_ENUM_N = 18
# the labeled limit: Catalan(n - 2) triangulations, 2,674,440 at order 16
MAX_LABELED_N = 16


def enumerate_triangulations(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every triangulation of the convex polygon 0..n-1 exactly once
    (Catalan(n-2) total), as its sorted tuple of diagonals (a, b), a < b.

    Recursion roots at polygon edge {0,1}: choose the apex of the triangle
    on that edge, then triangulate the two sub-chains.  No deduplication is
    needed; distinct apex choices give distinct diagonal sets.
    """
    if not 3 <= n <= MAX_LABELED_N:
        raise ValueError(f"polygon size {n} outside 3..{MAX_LABELED_N}")

    def chords(chain: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        # chain is a run of polygon vertices; its first-last pair is the base
        # edge, already present.  Adjacent chain entries are polygon edges.
        m = len(chain)
        if m == 2:
            yield ()
            return
        for t in range(1, m - 1):
            new = []
            if t > 1:
                a, b = chain[0], chain[t]
                new.append((a, b) if a < b else (b, a))
            if t < m - 2:
                a, b = chain[t], chain[-1]
                new.append((a, b) if a < b else (b, a))
            for left in chords(chain[: t + 1]):
                for right in chords(chain[t:]):
                    yield tuple(new) + left + right

    base_chain = tuple(range(1, n)) + (0,)
    for diag in chords(base_chain):
        yield tuple(sorted(diag))


_EAR = b"\x01"


def _ear_children(quiddity: bytes) -> set[bytes]:
    """The least dihedral keys of the triangulations one order up whose
    key starts at an ear that, clipped, leaves this key's class.

    The quiddity sequence counts the triangles at each polygon vertex and
    determines the triangulation (Conway and Coxeter, 1973), so two
    triangulations share a key, their least rotation or reversal, exactly
    when a rotation or reflection of the polygon maps one onto the other.
    Inserting an ear between two cyclic neighbours adds 1 to both.  A key
    starts at an ear (a 1), and no two ears are neighbours from order 4
    on, so a key is read as the list of runs between its ears: two
    rotations compare as those lists do, since a run's end meets a 1,
    below every entry of a longer run.  A child is kept only when its new
    ear starts one of its least rotations or reversals (canonical
    augmentation, McKay 1998).  Every class then comes from one parent,
    the class its key's first ear leaves when clipped, so only insertions
    into the same parent can repeat it.
    """
    children = set()
    for i in range(len(quiddity)):
        # the child's sequence from the new ear's right neighbour round
        # to its left one
        r = bytearray(quiddity[i + 1:] + quiddity[:i + 1])
        r[0] += 1
        r[-1] += 1
        forward = bytes(r).split(_EAR)
        r.reverse()
        backward = bytes(r).split(_EAR)
        least = min(min(forward), min(backward))
        own = min(forward, backward)
        if own[0] != least:
            continue
        # only rotations that start at a least run can be below own
        if all(
            own <= runs[j:] + runs[:j]
            for runs in (forward, backward)
            for j in range(1, len(runs))
            if runs[j] == least
        ):
            children.add(_EAR + _EAR.join(own))
    return children


def _polygon_namer(n: int) -> Callable[[bytes], str]:
    """The graph6 of the polygon 0..n-1 triangulated as a key says.

    Vertices are pushed in polygon order.  One whose quiddity has fallen
    to 1 while it is on top of the stack is an ear between the vertex
    under it and the next one: it is clipped, its two neighbours gain a
    diagonal and lose a triangle each, and the new top is tested again.
    Vertex 0, an ear of every key, stays at the bottom; the last clip
    joins it to n - 1, a side.  Sides and diagonals are set as bits of a
    labeling key, graph6's bits in order.
    """
    nbits = n * (n - 1) // 2
    # pair_bit[v][a], a < v: the key bit of the pair (a, v)
    pair_bit = [
        [1 << nbits - 1 - v * (v - 1) // 2 - a for a in range(v)]
        for v in range(n)
    ]
    sides = pair_bit[n - 1][0]
    for v in range(1, n):
        sides |= pair_bit[v][v - 1]

    def name(quiddity: bytes) -> str:
        q = list(quiddity)
        q[0] = 0  # vertex 0 is never clipped off the bottom of the stack
        key = sides
        stack = [0]
        for v in range(1, n):
            column = pair_bit[v]
            while q[stack[-1]] == 1:
                stack.pop()
                a = stack[-1]
                key |= column[a]
                q[a] -= 1
                q[v] -= 1
            stack.append(v)
        return _graph6_of_key(n, key)

    return name


def enumerate_mops(n: int) -> list[str]:
    """One name per isomorphism class of maximal outerplanar graphs.

    Classes grow by ear insertion from the triangle 1, 1, 1: every
    triangulation of order n >= 4 has an ear, and cutting it off leaves one
    of order n - 1, so inserting an ear into every order n - 1 class
    reaches every order n class; `_ear_children` keeps each once.  A
    class's name is the graph6 of the polygon 0..n-1 labeled by its least
    dihedral key, and the names come in ascending key order.
    """
    if not 3 <= n <= MAX_ENUM_N:
        raise ValueError(f"polygon size {n} outside 3..{MAX_ENUM_N}")
    level = [bytes((1, 1, 1))]
    for _ in range(n - 3):
        level = [key for q in level for key in _ear_children(q)]
    level.sort()
    name = _polygon_namer(n)
    # each key is freed as its name takes its place
    for i, q in enumerate(level):
        level[i] = name(q)
    return level
