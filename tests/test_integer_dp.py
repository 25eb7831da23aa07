"""The integer-numerator DPs against their ``Fraction`` references.

``oracle.solve_exact``, the ``solve_approx`` sweep and ``line_optimal_value``
run on Python ints over one common denominator
(``core.integer_boxes``, itself checked field by field against the
``Fraction`` definition of its grid).  ``helpers.reference_engine``,
``helpers.reference_approx`` and ``helpers.reference_line_optimal_value``
are the same recursions on ``Fraction``s, so every value, policy action and
table entry must agree exactly, ties and stops at indifference included.
The reference also pays a weight w·y on stopping; at w = 1/2 the oracle
runs on the instance with every cost doubled, whose values are 1/w times
the reference's, with the same policy.  The oracle scans only the states
below their set's stop index, of the sets it reaches without an opening it
proves worse; the reference scans every reachable state.  Each one the
oracle leaves out must be a stop worth w·y there, or lie outside
``helpers.reference_undominated_states`` (the rule written from its
definition), and ``OracleResult.action`` must answer the
reference's action on every state the reference policy reaches.  The
approx table keeps only the cells a run can reach
(``helpers.reachable_approx_cells``); the reference fills them all.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from pandorabox import ConstraintKind, MatroidSideConstraint, line_optimal_value, solve_approx, solve_exact
from pandorabox.core import integer_boxes

from helpers import (
    rand_case,
    reachable_approx_cells,
    reference_approx,
    reference_engine,
    reference_line_optimal_value,
    reference_undominated_states,
    support_union,
    with_costs_times,
    with_negative_costs,
)

F = Fraction
# 7/3 and -1/2 lie off every reward grid; 5/2 and 0 on some
INITIAL_BESTS = (F(0), F(0), F(1), F(5, 2), F(7, 3), F(-1, 2))


@pytest.mark.parametrize(
    "kind",
    (ConstraintKind.DAG, ConstraintKind.TREE, ConstraintKind.LINE, ConstraintKind.FOREST, ConstraintKind.UNCONSTRAINED),
)
def test_oracle_matches_fraction_reference(kind):
    rng = random.Random(f"int-oracle-{kind}")
    half = off_grid = sided = dropped = 0
    for _ in range(150):
        inst = rand_case(rng, kind, max_n=7)
        initial_best = rng.choice(INITIAL_BESTS)
        weight = F(1, 2) if rng.random() < 0.3 else F(1)
        priced = with_costs_times(inst, 1 / weight)  # the costs doubled at w = 1/2
        result = solve_exact(priced, initial_best)
        value, e_max, e_cost, policy, values = reference_engine(inst, initial_best, weight)
        assert (weight * result.value, result.e_max, weight * result.e_cost) == (value, e_max, e_cost)
        assert result._values.keys() == result._policy.keys() <= values.keys()
        undominated = reference_undominated_states(inst, initial_best, weight)
        assert result._values.keys() <= undominated
        ints = integer_boxes(priced.boxes, initial_best)
        for (mask, yk), value in values.items():
            act = policy[mask, yk]
            if (mask, yk) in result._values:
                unopened = math.prod(d for i, d in enumerate(ints.dens) if not mask >> i & 1)
                assert weight * F(result._values[mask, yk], ints.scale * unopened) == value
                assert result._policy[mask, yk] == act
            else:
                assert (act is None and value == weight * result.grid[yk]) or (mask, yk) not in undominated
        ids = inst.order_model.ids
        for mask, yk in reference_policy_states(inst, policy, result.grid, result.grid.index(initial_best)):
            act = policy[mask, yk]
            opened = [ids[i] for i in range(inst.n) if mask >> i & 1]
            assert result.action(opened, result.grid[yk]) == (None if act is None else ids[act])
        dropped += len(values) - len(result._values)
        half += weight != 1
        off_grid += initial_best not in support_union(inst)
        sided += inst.side.kind != MatroidSideConstraint.NONE
    assert half > 20 and off_grid > 20 and sided > 60 and dropped > 500


def reference_policy_states(inst, policy, grid, start: int) -> set:
    """The states the reference policy reaches from the empty set at grid index ``start``."""
    reached, todo = set(), [(0, start)]
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        act = policy[key]
        if act is not None:
            todo.extend((key[0] | 1 << act, max(key[1], grid.index(v))) for v in inst.boxes[act].reward.values())
    return reached


@pytest.mark.parametrize("kind", ConstraintKind.ALL)
def test_integer_boxes_match_fraction_definition(kind):
    """The int grid against its ``Fraction`` definition: {start} and the support union,
    L the lcm of the grid's and the costs' denominators, field by field."""
    rng = random.Random(f"int-grid-{kind}")
    for _ in range(40):
        inst = rand_case(rng, kind, max_n=7)
        atoms = [v for b in inst.boxes for v in b.reward.values()]
        for case in (inst, with_negative_costs(inst, rng), with_costs_times(inst, 2)):
            # 1/7 brings a denominator that no reward or cost has
            assert math.lcm(*[q.denominator for q in (*atoms, *[b.cost for b in case.boxes])]) % 7
            for start in (F(0), rng.choice(atoms), F(1, 7), max(atoms) + F(1, 3)):
                ints = integer_boxes(case.boxes, start)
                grid = sorted(set(support_union(case)) | {start})
                scale = math.lcm(*[q.denominator for q in (*grid, *[b.cost for b in case.boxes])])
                dens = [math.lcm(*[p.denominator for p in b.reward.probs()]) for b in case.boxes]
                assert ints.scale == scale
                assert ints.grid == [y * scale for y in grid]
                assert ints.costs == [b.cost * scale for b in case.boxes]
                assert ints.dens == dens
                assert ints.atoms == [[(grid.index(v), p * d) for v, p in b.reward.atoms]
                                      for b, d in zip(case.boxes, dens)]
                assert all(type(y) is int for y in (*ints.grid, *ints.costs))


@pytest.mark.parametrize(
    "kind", (ConstraintKind.TREE, ConstraintKind.LINE, ConstraintKind.FOREST, ConstraintKind.UNCONSTRAINED)
)
def test_approx_matches_fraction_reference(kind):
    rng = random.Random(f"int-approx-{kind}")
    sided = negative = overflows = 0
    for _ in range(75):
        inst = rand_case(rng, kind, max_n=9)
        policy = solve_approx(inst)
        values, actions = reference_approx(inst)
        assert set(policy.values) == set(policy.actions) == reachable_approx_cells(inst)
        for key, value in policy.values.items():
            assert value == values[key]
            assert policy.actions[key] == actions[key]
        assert all(type(v) is Fraction for v in policy.values.values())
        sided += inst.side.kind != MatroidSideConstraint.NONE
        negative += any(b.cost < 0 for b in inst.boxes)
        # cells whose open overflows the side: their row starts from the stop values
        model, order = inst.order_model, policy.preorder.order
        overflows += sum(i <= inst.n and model.add(state, model.index[order[i - 1]]) is None
                         for i, _, state in policy.values)
    assert sided > 30 and negative > 8 and overflows > 0


def test_line_value_matches_fraction_reference():
    rng = random.Random("int-line")
    negative = 0
    for _ in range(300):
        boxes = list(rand_case(rng, ConstraintKind.LINE, max_n=9).boxes)
        assert line_optimal_value(boxes) == reference_line_optimal_value(boxes)
        negative += any(b.cost < 0 for b in boxes)
    assert negative > 30
