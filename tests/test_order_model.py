"""The compiled order model against the literal openability reference in
``helpers``: tree, forest and DAG instances, each with no side constraint, a
knapsack and a partition."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pandorabox import (
    ConstraintKind,
    MatroidSideConstraint,
    ThresholdPolicy,
    best_half_reward_benchmark,
    constraint_allows,
    feasible_next,
    fixed_opening_order,
    set_feasibility_violation,
)

from helpers import (
    decision_tree_sup_half,
    rand_graph_instance,
    rand_knapsack_side,
    rand_partition_side,
    reference_greedy_order,
    reference_next,
    reference_order_ok,
    reference_set_feasible,
    with_side,
)

F = Fraction
KINDS = (ConstraintKind.TREE, ConstraintKind.FOREST, ConstraintKind.DAG)
SIDES = ("none", "knapsack", "partition")


def instances(seed: int, count: int, kind: str, side: str, max_n: int = 7):
    rng = random.Random(seed)
    for _ in range(count):
        inst = rand_graph_instance(rng, rng.randint(1, max_n), kind)
        ids = [b.id for b in inst.boxes]
        if side == "knapsack":
            inst = with_side(inst, rand_knapsack_side(rng, ids))
        elif side == "partition":
            inst = with_side(inst, rand_partition_side(rng, ids))
        yield rng, inst


def random_subset(rng: random.Random, inst) -> set[str]:
    return {b.id for b in inst.boxes if rng.random() < 0.5}


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("kind", KINDS)
class TestAgainstReference:
    def test_feasible_next_and_constraint_allows(self, kind, side):
        for rng, inst in instances(101, 40, kind, side):
            for _ in range(6):
                opened = random_subset(rng, inst)
                assert feasible_next(inst, opened) == reference_next(inst, opened)
                for b in inst.boxes:
                    assert constraint_allows(inst, opened, b.id) == reference_order_ok(inst, opened, b.id)

    def test_set_feasibility_violation(self, kind, side):
        for rng, inst in instances(103, 40, kind, side):
            for _ in range(6):
                chosen = random_subset(rng, inst)
                violation = set_feasibility_violation(inst, chosen)
                assert (violation is None) == reference_set_feasible(inst, chosen), (chosen, violation)
                if violation is not None and violation.startswith("order"):
                    assert "parent" in violation

    def test_heap_fixed_opening_order(self, kind, side):
        for rng, inst in instances(107, 40, kind, side, max_n=9):
            # few distinct thresholds, so the rank and id tie-breaks matter
            thresholds = {b.id: F(rng.randint(-2, 3), rng.choice((1, 2))) for b in inst.boxes}
            tiebreak = [b.id for b in inst.boxes]
            rng.shuffle(tiebreak)
            policy = ThresholdPolicy.for_instance(inst, thresholds, tiebreak if rng.random() < 0.5 else ())
            assert fixed_opening_order(inst, policy) == reference_greedy_order(inst, thresholds, policy.rank())


@pytest.mark.parametrize("side", SIDES)
def test_half_reward_benchmark_on_small_dags(side):
    for _, inst in instances(109, 15, ConstraintKind.DAG, side, max_n=4):
        assert best_half_reward_benchmark(inst) == decision_tree_sup_half(inst)


def test_side_vectors_encode_partition_as_unit_vectors():
    side = MatroidSideConstraint.partition({"a": 0, "b": 2, "c": 1}, (1, 0, 2))
    assert side.vectors(["a", "b", "c"]) == ([(1, 0, 0), (0, 0, 1), (0, 1, 0)], (1, 0, 2))
    assert MatroidSideConstraint.none().vectors(["a"]) == ([()], ())
