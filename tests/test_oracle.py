from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pandorabox import (
    BoxSpec,
    CapExceededError,
    DiscreteDistribution,
    Instance,
    best_fixed_order,
    best_half_reward_benchmark,
    solve_exact,
    solve_line,
    weitzman_reservation,
)
from pandorabox.instances import figure1

from helpers import (
    decision_tree_sup_half,
    line_instance_of,
    rand_box,
    rand_line_boxes,
    rand_knapsack_side,
    rand_tree_instance,
    with_side,
)

F = Fraction


def coin_box(bid="a", cost=1) -> BoxSpec:
    return BoxSpec(bid, F(cost), DiscreteDistribution.of([(3, "1/2"), (0, "1/2")]))


class TestSolveExact:
    def test_single_coin_box(self):
        inst = Instance(boxes=(coin_box(),))
        res = solve_exact(inst)
        assert res.value == F(1, 2)
        assert res.e_max == F(3, 2) and res.e_cost == 1
        assert res.action((), F(0)) == "a"
        # at the reservation value the policy is indifferent and stops
        assert solve_exact(inst, initial_best=F(1)).action((), F(1)) is None

    def test_split_identity(self):
        rng = random.Random(31)
        for _ in range(40):
            inst = rand_tree_instance(rng, rng.randint(1, 6))
            res = solve_exact(inst)
            assert res.value == res.e_max - res.e_cost

    def test_value_monotone_lipschitz_in_best(self):
        rng = random.Random(37)
        for _ in range(25):
            inst = rand_tree_instance(rng, rng.randint(1, 5))
            res = solve_exact(inst)
            values = [solve_exact(inst, initial_best=y).value for y in res.grid]
            for y, v in zip(res.grid, values):
                assert v >= y
            for (a, va), (b, vb) in zip(zip(res.grid, values), zip(res.grid[1:], values[1:])):
                assert F(0) <= vb - va <= b - a

    def test_diamond_instance_flips_second_action(self):
        for eps in (F(13, 10), F(3, 2), F(19, 10)):
            inst = figure1(eps)
            res = solve_exact(inst)
            assert res.action((), F(0)) == "A"
            high = res.action(("A",), F(5, 2))
            low = res.action(("A",), F(0))
            assert high == "B" and low == "C"
            _, fixed_value = best_fixed_order(inst)
            assert res.value > fixed_value

    def test_box_cap(self):
        boxes = tuple(coin_box(f"b{i:02d}") for i in range(21))
        with pytest.raises(CapExceededError):
            solve_exact(Instance(boxes=boxes))

    def test_diamond_flip_across_parameter_range(self):
        # the flip and the fixed-order gap hold on a grid spanning the
        # builtin's whole validity range, not just the three headline points
        for k in range(20, 32):  # eps = k/16 in [5/4, 31/16]
            inst = figure1(F(k, 16))
            res = solve_exact(inst)
            assert res.action(("A",), F(5, 2)) == "B"
            assert res.action(("A",), F(0)) == "C"
            assert res.value > best_fixed_order(inst)[1]

    def test_diamond_epsilon_range_validated(self):
        from pandorabox import ValidationError

        for bad in (F(1), F(2), F(5, 2)):
            with pytest.raises(ValidationError):
                figure1(bad)


class TestBestFixedOrder:
    def test_line_has_unique_order(self):
        rng = random.Random(41)
        boxes = rand_line_boxes(rng, 5)
        inst = line_instance_of(boxes)
        order, value = best_fixed_order(inst)
        assert order == tuple(b.id for b in boxes)
        assert value == solve_line(boxes).value

    def test_unconstrained_two_boxes_weitzman_order(self):
        rng = random.Random(43)
        for _ in range(40):
            a, b = rand_box(rng, 0), rand_box(rng, 1)
            inst = Instance(boxes=(a, b))
            order, value = best_fixed_order(inst)
            zetas = {x.id: weitzman_reservation(x) for x in (a, b)}
            expected = tuple(sorted(zetas, key=lambda i: (-zetas[i], i)))
            assert value == solve_exact(inst).value  # Weitzman rule optimal
            assert set(order) == {a.id, b.id}
            # descending reservation order always attains the maximum;
            # the other order is returned only when it ties (lexicographic)
            first, second = expected
            by_zeta = solve_line([inst.box_map[first], inst.box_map[second]]).value
            assert by_zeta == value
            other = solve_line([inst.box_map[second], inst.box_map[first]]).value
            if other != value:
                assert order == expected

    def test_never_beats_adaptive(self):
        rng = random.Random(47)
        for _ in range(30):
            inst = rand_tree_instance(rng, rng.randint(1, 6))
            _, fixed_value = best_fixed_order(inst)
            assert fixed_value <= solve_exact(inst).value


class TestNegativeCosts:
    def test_free_money_box_always_opened(self):
        box = BoxSpec("a", F(-1), DiscreteDistribution.point(0))
        res = solve_exact(Instance(boxes=(box,)))
        assert res.value == 1
        assert res.action((), F(0)) == "a"

    def test_cost_decrease_raises_value_by_at_most_delta(self):
        rng = random.Random(53)
        for _ in range(30):
            inst = rand_tree_instance(rng, rng.randint(1, 5))
            base = solve_exact(inst).value
            i = rng.randrange(inst.n)
            delta = F(rng.randint(1, 4), rng.choice((1, 2)))
            boxes = list(inst.boxes)
            boxes[i] = BoxSpec(boxes[i].id, boxes[i].cost - delta, boxes[i].reward)
            shifted = solve_exact(
                Instance(boxes=tuple(boxes), constraint=inst.constraint)
            ).value
            assert F(0) <= shifted - base <= delta

    def test_negative_cost_leaf_never_hurts(self):
        rng = random.Random(59)
        inst = rand_tree_instance(rng, 5)
        base = solve_exact(inst).value
        boxes = list(inst.boxes)
        boxes[-1] = BoxSpec(boxes[-1].id, F(-2), boxes[-1].reward)
        bumped = solve_exact(
            Instance(boxes=tuple(boxes), constraint=inst.constraint)
        ).value
        assert bumped >= base


class TestHalfRewardBenchmark:
    def test_matches_decision_tree_enumeration(self):
        rng = random.Random(61)
        for _ in range(25):
            inst = rand_tree_instance(rng, rng.randint(1, 3))
            if rng.random() < 0.5:
                inst = with_side(inst, rand_knapsack_side(rng, [b.id for b in inst.boxes]))
            assert best_half_reward_benchmark(inst) == decision_tree_sup_half(inst)

    def test_at_least_half_the_optimum_split(self):
        rng = random.Random(67)
        for _ in range(25):
            inst = rand_tree_instance(rng, rng.randint(1, 5))
            res = solve_exact(inst)
            assert best_half_reward_benchmark(inst) >= res.e_max / 2 - res.e_cost
