"""The capped-value line and tree DPs against the slow piecewise reference.

``helpers.reference_solve_line`` runs the piecewise-linear backward step
(expectation of the next level, smallest fixed point, max with the
identity), and ``helpers.reference_solve_tree`` merges the children's lines
at every node and re-solves the merged line.  Both share no arithmetic with
the capped-value recursion, so every value, order and threshold must agree
as the same ``Fraction``.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pandorabox import ConstraintKind, solve_line, solve_tree

from helpers import rand_tie_instance, reference_solve_line, reference_solve_tree

F = Fraction
KINDS = (ConstraintKind.LINE, ConstraintKind.TREE, ConstraintKind.FOREST, ConstraintKind.UNCONSTRAINED)


@pytest.mark.parametrize("kind", KINDS)
def test_solve_tree_matches_reference(kind):
    rng = random.Random(f"capped-{kind}")
    negative = zero_cost = 0
    for _ in range(300):
        inst = rand_tie_instance(rng, kind)
        sol = solve_tree(inst)
        value, order, thresholds = reference_solve_tree(inst)
        assert sol.value == value
        assert sol.order.ids() == order
        assert sol.thresholds == thresholds
        negative += any(z < 0 for z in thresholds.values())
        zero_cost += any(b.cost == 0 for b in inst.boxes)
    assert negative > 50 and zero_cost > 50


def test_line_levels_match_reference_between_knots():
    rng = random.Random(61)
    for _ in range(150):
        boxes = list(rand_tie_instance(rng, ConstraintKind.LINE).boxes)
        sol = solve_line(boxes)
        zs, levels = reference_solve_line(boxes)
        assert sol.zs == tuple(zs)
        assert sol.value == levels[0](F(0))
        assert len(sol.kappas) == len(levels) == len(boxes) + 1
        for i, ref in enumerate(levels, 1):
            knots = sorted(set(sol.grid) | set(ref.xs))
            probes = knots + [(a + b) / 2 for a, b in zip(knots, knots[1:])] + [knots[-1] + F(7, 3)]
            for x in probes:
                assert sol.at(x, i) == ref(x)
