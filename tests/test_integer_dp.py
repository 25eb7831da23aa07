"""The integer-numerator DPs against their ``Fraction`` references.

``oracle._engine``, the ``solve_approx`` sweep and ``line_optimal_value``
run on Python ints over one common denominator
(``core.integer_boxes``).  ``helpers.reference_engine``,
``helpers.reference_approx`` and ``helpers.reference_line_optimal_value``
are the same recursions on ``Fraction``s, so every value, policy action and
table entry must agree exactly, ties and stops at indifference included.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from pandorabox import ConstraintKind, MatroidSideConstraint, line_optimal_value, solve_approx
from pandorabox.core import integer_boxes
from pandorabox.oracle import _engine

from helpers import rand_case, reference_approx, reference_engine, reference_line_optimal_value

F = Fraction
# 7/3 and -1/2 lie off every reward grid; 5/2 and 0 on some
INITIAL_BESTS = (F(0), F(0), F(1), F(5, 2), F(7, 3), F(-1, 2))


@pytest.mark.parametrize(
    "kind",
    (ConstraintKind.DAG, ConstraintKind.TREE, ConstraintKind.LINE, ConstraintKind.FOREST, ConstraintKind.UNCONSTRAINED),
)
def test_oracle_matches_fraction_reference(kind):
    rng = random.Random(f"int-oracle-{kind}")
    half = off_grid = sided = 0
    for _ in range(150):
        inst = rand_case(rng, kind, max_n=7)
        initial_best = rng.choice(INITIAL_BESTS)
        weight = F(1, 2) if rng.random() < 0.3 else F(1)
        result = _engine(inst, initial_best, weight)
        value, e_max, e_cost, policy, values = reference_engine(inst, initial_best, weight)
        assert (result.value, result.e_max, result.e_cost) == (value, e_max, e_cost)
        assert result._policy == policy
        assert result._values.keys() == values.keys()
        ints = integer_boxes(inst.boxes, result.grid, weight)
        for (mask, yk), value in values.items():
            unopened = math.prod(d for i, d in enumerate(ints.dens) if not mask >> i & 1)
            assert F(result._values[mask, yk], ints.scale * unopened) == value
        half += weight != 1
        off_grid += initial_best not in inst.support_union()
        sided += inst.side.kind != MatroidSideConstraint.NONE
    assert half > 20 and off_grid > 20 and sided > 60


@pytest.mark.parametrize(
    "kind", (ConstraintKind.TREE, ConstraintKind.LINE, ConstraintKind.FOREST, ConstraintKind.UNCONSTRAINED)
)
def test_approx_matches_fraction_reference(kind):
    rng = random.Random(f"int-approx-{kind}")
    sided = negative = 0
    for _ in range(75):
        inst = rand_case(rng, kind, max_n=9)
        policy = solve_approx(inst)
        values, actions = reference_approx(inst)
        assert policy.values == values
        assert policy.actions == actions
        assert all(type(v) is Fraction for v in policy.values.values())
        sided += inst.side.kind != MatroidSideConstraint.NONE
        negative += any(b.cost < 0 for b in inst.boxes)
    assert sided > 30 and negative > 8


def test_line_value_matches_fraction_reference():
    rng = random.Random("int-line")
    negative = 0
    for _ in range(300):
        boxes = list(rand_case(rng, ConstraintKind.LINE, max_n=9).boxes)
        assert line_optimal_value(boxes) == reference_line_optimal_value(boxes)
        negative += any(b.cost < 0 for b in boxes)
    assert negative > 30
