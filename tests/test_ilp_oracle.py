"""The solver's values and uppers against the clique-partitioning ILP of
`ilp_oracle`, an algorithm that shares nothing with the search."""

import json
import random
from pathlib import Path

import pytest

from ilp_oracle import ar_ilp, exceeds
from mopar.graphs import graph6_decode
from mopar.runner import _class_members
from mopar.solver import ar_exact

MEMBER_VALUES = Path(__file__).resolve().parent / "member_values.json"


def test_ilp_agrees_with_solver_on_every_8_3_member():
    # both directions of each value: a coloring at the value exists and
    # none has more colors
    for g6 in _class_members(8):
        g = graph6_decode(g6)
        value = ar_exact(g, 3).value
        assert ar_ilp(g, 3) == value, g6
        assert exceeds(g, 3, value - 1), g6
        assert not exceeds(g, 3, value), g6


@pytest.mark.extended
@pytest.mark.parametrize("cell, sample", [
    ("8,4", None), ("9,4", None), ("10,4", 20), ("10,5", 20), ("11,5", 20),
])
def test_ilp_agrees_with_pinned_members(cell, sample):
    # the pinned floor-0 values, and the uppers at floor n + k - 2: a
    # coloring above that floor exists exactly when the upper exceeds it
    pinned = json.loads(MEMBER_VALUES.read_text())
    values = pinned["values_at_floor_0"][cell]
    uppers = pinned["uppers_at_floor_n_plus_k_minus_2"][cell]
    n, k = map(int, cell.split(","))
    floor = n + k - 2
    members = list(enumerate(_class_members(n)))
    if sample is not None:
        members = random.Random(5).sample(members, sample)
    for i, g6 in members:
        g = graph6_decode(g6)
        assert ar_ilp(g, k) == values[i], g6
        assert exceeds(g, k, floor) == (uppers[i] > floor), g6
