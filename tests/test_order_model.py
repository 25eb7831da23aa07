"""The compiled order model against the literal openability reference in
``helpers``: line, tree, forest and DAG instances, each with no side
constraint, a knapsack and a partition."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest

from pandorabox import (
    BoxSpec,
    ConstraintKind,
    DiscreteDistribution,
    Instance,
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
    line_instance_of,
    rand_graph_instance,
    rand_line_boxes,
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
        n = rng.randint(1, max_n)
        if kind == ConstraintKind.LINE:
            inst = line_instance_of(rand_line_boxes(rng, n))
        else:
            inst = rand_graph_instance(rng, n, kind)
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


def close_thresholds(rng: random.Random) -> list:
    """Thresholds that the greedy must rank exactly: pairs closer than 2^-64
    (one floor of z·2^64), equal values written over different denominators,
    negatives, 0, ints above 2^64 and a denominator of 10^8600."""
    d = 2**70 + rng.randrange(2**20)
    tiny = F(1, d * (d + 1))
    out = [F(0), F(-7, 3), F(2**64 + 1), F(2**65), F(2**64 + 1) + tiny, F(1), F(10**8600 + 1, 10**8600)]
    for z in (F(rng.randint(-4, 4), rng.choice((1, 2, 3, 8))) for _ in range(3)):
        out += [z, z + tiny, z - tiny, f"{3 * z.numerator}/{3 * z.denominator}"]
    return out


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("kind", (ConstraintKind.LINE,) + KINDS)
def test_heap_order_is_exact_on_close_thresholds(kind, side):
    collisions = 0
    for rng, inst in instances(113, 40, kind, side, max_n=9):
        palette = close_thresholds(rng)
        thresholds = {b.id: rng.choice(palette) for b in inst.boxes}
        tiebreak = [b.id for b in inst.boxes]
        rng.shuffle(tiebreak)
        policy = ThresholdPolicy.for_instance(inst, thresholds, tiebreak if rng.random() < 0.5 else ())
        zs = set(policy.thresholds.values())
        collisions += len(zs) > len({(z.numerator << 64) // z.denominator for z in zs})
        assert fixed_opening_order(inst, policy) == reference_greedy_order(inst, policy.thresholds, policy.rank())
    assert collisions >= 10  # distinct thresholds with one floor of z·2^64 were ranked


def test_order_memory_stays_bounded():
    """One threshold with a 10^8600 denominator among 20 000 boxes: the
    levels keep each key the size of its own threshold, not of the largest."""
    n = 20_000
    inst = Instance(boxes=tuple(BoxSpec(f"b{i:05d}", F(0), DiscreteDistribution.point(i % 5)) for i in range(n)))
    thresholds = {b.id: F(i % 977, 7) for i, b in enumerate(inst.boxes)}
    thresholds["b00017"] = F(1, 10**8600)
    policy = ThresholdPolicy.for_instance(inst, thresholds)
    inst.order_model  # compiled once per instance, outside the measured peak
    tracemalloc.start()
    try:
        order = fixed_opening_order(inst, policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert order == sorted(thresholds, key=lambda b: (-thresholds[b], b))
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("side", SIDES)
def test_half_reward_benchmark_on_small_dags(side):
    for _, inst in instances(109, 15, ConstraintKind.DAG, side, max_n=4):
        assert best_half_reward_benchmark(inst) == decision_tree_sup_half(inst)


def test_side_vectors_encode_partition_as_unit_vectors():
    side = MatroidSideConstraint.partition({"a": 0, "b": 2, "c": 1}, (1, 0, 2))
    assert side.vectors(["a", "b", "c"]) == ([(1, 0, 0), (0, 0, 1), (0, 1, 0)], (1, 0, 2))
    assert MatroidSideConstraint.none().vectors(["a"]) == ([()], ())
