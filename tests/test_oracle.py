from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from pandorabox import (
    BoxSpec,
    CapExceededError,
    ConstraintGraph,
    ConstraintKind,
    DiscreteDistribution,
    Instance,
    MatroidSideConstraint,
    best_fixed_order,
    best_half_reward_benchmark,
    solve_exact,
    solve_line,
    weitzman_reservation,
)
from pandorabox import oracle
from pandorabox.core import integer_boxes
from pandorabox.instances import figure1

from helpers import (
    decision_tree_sup_half,
    line_instance_of,
    rand_box,
    rand_case,
    rand_line_boxes,
    rand_knapsack_side,
    rand_tree_instance,
    reference_best_fixed_order,
    reference_next,
    reference_set_feasible,
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


@pytest.mark.parametrize("kind", ConstraintKind.ALL)
def test_opened_sets_match_brute_force(kind):
    """The shared forward pass: every feasible set once, at its popcount level,
    with its openable boxes, its scale and the best rewards every atom choice gives."""
    rng = random.Random(31)
    for _ in range(40):
        inst = rand_case(rng, kind, max_n=7)
        grid = inst.support_union()
        start = rng.randrange(len(grid))
        ints = integer_boxes(inst.boxes, grid)
        model, ids = inst.order_model, inst.order_model.ids
        levels = oracle._opened_sets(model, ints, start)
        seen = set()
        for size, level in enumerate(levels):
            for mask, ys, r, openable in level:
                opened = [b.id for i, b in enumerate(inst.boxes) if mask >> i & 1]
                assert len(opened) == size and mask not in seen
                seen.add(mask)
                assert openable == sorted((model.index[b] for b in reference_next(inst, opened)), key=ids.__getitem__)
                assert r == math.prod(ints.dens[i] for i in range(inst.n) if not mask >> i & 1)
                bests = {grid[start]}
                for box_id in opened:
                    bests = {max(y, v) for y in bests for v in inst.box_map[box_id].reward.values()}
                assert ys == sum(1 << grid.index(y) for y in bests)
        feasible = {
            sum(1 << i for i in chosen)
            for k in range(inst.n + 1)
            for chosen in itertools.combinations(range(inst.n), k)
            if reference_set_feasible(inst, [ids[i] for i in chosen])
        }
        assert seen == feasible


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

    def test_matches_reference(self, monkeypatch):
        rng = random.Random("fixed-order")
        cut_short = negative = 0
        for kind in ConstraintKind.ALL:
            for _ in range(60):
                inst = rand_case(rng, kind, max_n=6)
                order, value = best_fixed_order(inst)
                assert (order, value) == reference_best_fixed_order(inst)
                cut_short += len(order) < inst.n
                negative += any(b.cost < 0 for b in inst.boxes)
        assert cut_short > 50 and negative > 30
        # every box overflows the side alone: the one maximal order is empty
        inst = rand_tree_instance(rng, 4)
        inst = with_side(inst, MatroidSideConstraint.partition({b.id: 0 for b in inst.boxes}, (0,)))
        assert best_fixed_order(inst) == reference_best_fixed_order(inst) == ((), 0)
        monkeypatch.setattr(oracle, "FIXED_ORDER_SEQUENCE_CAP", 5)
        inst = Instance(boxes=tuple(rand_box(rng, i) for i in range(4)))  # 24 orders
        messages = []
        for search in (best_fixed_order, reference_best_fixed_order):
            with pytest.raises(CapExceededError) as caught:
                search(inst)
            messages.append(str(caught.value))
        assert messages[0] == messages[1] == "more than 5 feasible orders; instance too loose"

    def test_star_enumerates_fast(self):
        # a root with 8 leaves has 8! = 40 320 maximal orders
        rng = random.Random(71)
        boxes = tuple(rand_box(rng, i) for i in range(9))
        edges = tuple((boxes[0].id, leaf.id) for leaf in boxes[1:])
        inst = Instance(boxes=boxes, constraint=ConstraintGraph(ConstraintKind.TREE, edges))
        start = time.perf_counter()
        order, value = best_fixed_order(inst)
        assert time.perf_counter() - start < 2
        assert order[0] == boxes[0].id and value <= solve_exact(inst).value


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
