"""Metamorphic checks that guard refactors of the solvers.

Scaling every cost and reward by a positive factor scales every value and
threshold by it, the line solver's value grid and V(x, i) too (its horizons
and the oracle's stop indices stay), and also the simulated mean under the
same seed, since the sampler stream reads only the seed, trial, step, id and
probabilities (the factor 3/7 also brings a new denominator into the common
denominator of the integer DPs, and keeps every fixed-order tie);
renaming the boxes leaves every value unchanged; adding a free zero box as a
separate root changes no value and no other threshold.  The oracle's
reward/cost split (e_max, e_cost) is checked under all three, and on DAGs
under scaling and a renaming that keeps the ids' order (a tie goes to the
smallest id, and a tie between optimal actions can change the split, not
the value).  The approx sweep visits siblings in ascending id, and its
value can depend on that pre-order, so it too is renamed keeping the order.
"""

from __future__ import annotations

import random
from fractions import Fraction

from pandorabox import (
    BoxSpec,
    ConstraintGraph,
    ConstraintKind,
    DiscreteDistribution,
    Instance,
    MatroidSideConstraint,
    ThresholdPolicy,
    best_fixed_order,
    best_half_reward_benchmark,
    evaluate_threshold_exact,
    simulate,
    solve_approx,
    solve_exact,
    solve_line,
    solve_tree,
    validate_instance,
)

from helpers import (
    line_instance_of,
    rand_forest_of_paths,
    rand_graph_instance,
    rand_knapsack_side,
    rand_line_boxes,
    rand_partition_side,
    rand_tree_instance,
    with_side,
)

F = Fraction
LAMBDA = F(3, 7)


def rand_instances(seed: int, count: int):
    """Lines, trees and forests of paths with at most six boxes."""
    rng = random.Random(seed)
    for k in range(count):
        shape = k % 3
        if shape == 0:
            yield rng, line_instance_of(rand_line_boxes(rng, rng.randint(1, 5)))
        elif shape == 1:
            yield rng, rand_tree_instance(rng, rng.randint(1, 6))
        else:
            yield rng, rand_forest_of_paths(rng, max_paths=3, max_total=6)


def tree_policy(instance: Instance) -> ThresholdPolicy:
    solution = solve_tree(instance)
    return ThresholdPolicy.for_instance(instance, solution.thresholds, solution.order.ids())


def tree_values(instance: Instance) -> tuple[dict[str, Fraction], Fraction, Fraction]:
    """Thresholds and value of solve_tree, and the exact value of its policy."""
    solution = solve_tree(instance)
    policy = ThresholdPolicy.for_instance(instance, solution.thresholds, solution.order.ids())
    return solution.thresholds, solution.value, evaluate_threshold_exact(instance, policy)


def scaled(instance: Instance, lam: Fraction) -> Instance:
    boxes = tuple(
        BoxSpec(b.id, b.cost * lam, DiscreteDistribution.of([(v * lam, p) for v, p in b.reward.atoms]))
        for b in instance.boxes
    )
    return Instance(boxes=boxes, constraint=instance.constraint, side=instance.side)


def renamed(instance: Instance, rng: random.Random | None) -> Instance:
    """New ids in a random order, or in the old ids' order when ``rng`` is None; the side is renamed too."""
    ids = [b.id for b in instance.boxes]
    new_ids = [f"r{k:02d}" for k in range(len(ids))]
    if rng is None:
        ids = sorted(ids)
    else:
        rng.shuffle(new_ids)
    name = dict(zip(ids, new_ids))
    boxes = tuple(BoxSpec(name[b.id], b.cost, b.reward) for b in instance.boxes)
    edges = tuple((name[p], name[c]) for p, c in instance.constraint.edges)
    side = instance.side
    side = MatroidSideConstraint(side.kind, {name[k]: w for k, w in side.weights.items()}, side.capacity)
    return validate_instance(Instance(boxes, ConstraintGraph(instance.constraint.kind, edges), side))


def with_free_root(instance: Instance) -> Instance:
    free = BoxSpec("free", F(0), DiscreteDistribution.point(0))
    graph = ConstraintGraph(ConstraintKind.FOREST, instance.constraint.edges)
    return validate_instance(Instance(boxes=instance.boxes + (free,), constraint=graph))


def test_scaling_costs_and_rewards_scales_values_and_thresholds():
    for rng, inst in rand_instances(101, 60):
        big = scaled(inst, LAMBDA)
        thresholds, value, evaluated = tree_values(inst)
        big_thresholds, big_value, big_evaluated = tree_values(big)
        assert big_thresholds == {i: LAMBDA * z for i, z in thresholds.items()}
        assert big_value == LAMBDA * value
        assert big_evaluated == LAMBDA * evaluated
        exact, big_exact = solve_exact(inst), solve_exact(big)
        assert big_exact.value == LAMBDA * exact.value
        assert (big_exact.e_max, big_exact.e_cost) == (LAMBDA * exact.e_max, LAMBDA * exact.e_cost)
        # the stop indices scale with the grid, so the same states are scanned
        assert big_exact._stops == exact._stops and len(big_exact._policy) == len(exact._policy)
        if inst.constraint.kind == ConstraintKind.LINE:
            line, big_line = solve_line(inst.boxes), solve_line(big.boxes)
            assert big_line.grid == tuple(LAMBDA * x for x in line.grid)
            assert big_line.horizons == line.horizons
            assert all(big_line.at(LAMBDA * x, i) == LAMBDA * line.at(x, i)
                       for i in range(1, inst.n + 2) for x in line.grid)
        order, fixed_value = best_fixed_order(inst)
        assert best_fixed_order(big) == (order, LAMBDA * fixed_value)
        assert best_half_reward_benchmark(big) == LAMBDA * best_half_reward_benchmark(inst)
        assert (
            simulate(big, tree_policy(big), 40, 11).mean
            == LAMBDA * simulate(inst, tree_policy(inst), 40, 11).mean
        )
        ids = [b.id for b in inst.boxes]
        side = rand_knapsack_side(rng, ids) if rng.random() < 0.5 else rand_partition_side(rng, ids)
        assert (
            solve_approx(with_side(big, side)).value
            == LAMBDA * solve_approx(with_side(inst, side)).value
        )


def test_renaming_ids_keeps_values():
    for rng, inst in rand_instances(103, 60):
        other = renamed(inst, rng)
        _, value, evaluated = tree_values(inst)
        _, other_value, other_evaluated = tree_values(other)
        assert other_value == value
        assert other_evaluated == evaluated
        exact, other_exact = solve_exact(inst), solve_exact(other)
        assert (other_exact.value, other_exact.e_max, other_exact.e_cost) == (exact.value, exact.e_max, exact.e_cost)
        # neither the stop indices nor the skipped openings depend on the ids or the tie-break
        assert other_exact._stops == exact._stops and len(other_exact._policy) == len(exact._policy)
        assert best_fixed_order(other)[1] == best_fixed_order(inst)[1]
        ids = [b.id for b in inst.boxes]
        sided = with_side(inst, rand_knapsack_side(rng, ids) if rng.random() < 0.5 else rand_partition_side(rng, ids))
        assert solve_approx(renamed(sided, None)).value == solve_approx(sided).value


def test_dag_oracle_under_scaling_and_renaming():
    rng = random.Random(109)
    for _ in range(40):
        inst = rand_graph_instance(rng, rng.randint(1, 7), ConstraintKind.DAG)
        exact = solve_exact(inst)
        _, fixed_value = best_fixed_order(inst)
        # argmax ties go to the smallest id, so the split is kept only where the ids keep their order
        for other, factor, same_ties in ((scaled(inst, LAMBDA), LAMBDA, True), (renamed(inst, None), 1, True),
                                         (renamed(inst, rng), 1, False)):
            other_exact = solve_exact(other)
            assert other_exact.value == factor * exact.value
            if same_ties:
                assert (other_exact.e_max, other_exact.e_cost) == (factor * exact.e_max, factor * exact.e_cost)
            # the stop indices scale with the grid and ignore the ids, so the same states are scanned
            assert other_exact._stops == exact._stops and len(other_exact._policy) == len(exact._policy)
            assert best_fixed_order(other)[1] == factor * fixed_value


def test_free_zero_root_keeps_values_and_thresholds():
    for _, inst in rand_instances(107, 60):
        extended = with_free_root(inst)
        thresholds, value, evaluated = tree_values(inst)
        ext_thresholds, ext_value, ext_evaluated = tree_values(extended)
        assert ext_value == value
        assert ext_evaluated == evaluated
        assert {i: ext_thresholds[i] for i in thresholds} == thresholds
        exact, ext_exact = solve_exact(inst), solve_exact(extended)
        assert (ext_exact.value, ext_exact.e_max, ext_exact.e_cost) == (exact.value, exact.e_max, exact.e_cost)
