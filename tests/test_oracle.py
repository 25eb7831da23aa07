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
    solve_tree,
    weitzman_reservation,
)
from pandorabox import oracle
from pandorabox.core import OrderModel, integer_boxes
from pandorabox.instances import figure1

from helpers import (
    decision_tree_sup_half,
    graph_children,
    line_instance_of,
    rand_box,
    rand_case,
    rand_graph_instance,
    rand_line_boxes,
    rand_knapsack_side,
    rand_tree_instance,
    reference_best_fixed_order,
    reference_engine,
    reference_next,
    reference_order_ok,
    reference_set_feasible,
    reference_undominated_states,
    with_costs_times,
    with_side,
)

F = Fraction


def coin_box(bid="a", cost=1, top=3) -> BoxSpec:
    return BoxSpec(bid, F(cost), DiscreteDistribution.of([(top, "1/2"), (0, "1/2")]))


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

    def test_side_dimension_cap_covers_every_engine(self):
        # all 2^10 opened sets are reachable, each with a 5 000-entry load: 5.12 * 10^6 cells, past
        # BUILT_CELL_CAP (a top reward of 6 keeps every box worth opening at doubled cost too)
        boxes = tuple(coin_box(f"b{i:02d}", top=6) for i in range(10))
        d = 5_000
        side = MatroidSideConstraint.knapsack({b.id: (0,) * d for b in boxes}, (1,) * d)
        inst = Instance(boxes=boxes, side=side)
        for engine in (solve_exact, best_half_reward_benchmark, best_fixed_order):
            with pytest.raises(CapExceededError, match=r"^more than 5000000 cells to build; instance too large$"):
                engine(inst)

    def test_built_cell_cap_counts_the_sets_built(self, monkeypatch):
        # each set built, the root and every child tried (one OrderModel.add each, overflowing or not),
        # costs max(|grid|, d) cells: a cap of exactly the call's count passes, and one cell less is refused
        tried = []
        add = OrderModel.add
        monkeypatch.setattr(OrderModel, "add", lambda model, load, i: tried.append(i) or add(model, load, i))
        rng = random.Random(59)
        refused, cap = 0, oracle.BUILT_CELL_CAP
        for _ in range(12):
            inst = rand_case(rng, ConstraintKind.DAG, max_n=7)
            per_set = max(len(inst.support_union()), len(inst.order_model.capacity))
            for engine in (solve_exact, best_fixed_order, best_half_reward_benchmark):
                monkeypatch.setattr(oracle, "BUILT_CELL_CAP", cap)
                tried.clear()
                result = engine(inst)
                built = per_set * (1 + len(tried))
                monkeypatch.setattr(oracle, "BUILT_CELL_CAP", built)
                assert engine(inst) == result
                if not tried:  # the root alone is charged but not checked: it is no larger than the input
                    continue
                monkeypatch.setattr(oracle, "BUILT_CELL_CAP", built - 1)
                with pytest.raises(CapExceededError, match=f"^more than {built - 1} cells to build; instance too large$"):
                    engine(inst)
                refused += 1
        assert refused >= 30

    def test_built_cell_cap_never_refuses_a_call_inside_the_old_estimates(self, monkeypatch):
        # every call with 2^n * |grid| and 2^n * d both within the cap builds at most 2^n sets of
        # max(|grid|, d) cells each, so the count never refuses it
        cap = 3_000
        monkeypatch.setattr(oracle, "BUILT_CELL_CAP", cap)
        rng = random.Random(61)
        checked = 0
        while checked < 40:
            inst = rand_case(rng, rng.choice((ConstraintKind.TREE, ConstraintKind.DAG)), max_n=8)
            if (1 << inst.n) * max(len(inst.support_union()), len(inst.order_model.capacity)) > cap:
                continue
            checked += 1
            for engine in (solve_exact, best_fixed_order, best_half_reward_benchmark):
                engine(inst)

    def test_twenty_box_trees_match_the_tree_solver(self):
        # 2^20 * |grid| is far over BUILT_CELL_CAP, but the sets these instances build are not
        for seed in range(0, 40, 2):
            inst = rand_tree_instance(random.Random(seed), 20)
            assert solve_exact(inst).value == solve_tree(inst).value

    def test_twenty_box_dags_solve(self):
        for seed in range(1, 40, 2):
            res = solve_exact(rand_graph_instance(random.Random(seed), 20, ConstraintKind.DAG))
            assert res.value == res.e_max - res.e_cost >= 0

    def test_scanned_state_cap_counts_the_scanned_states(self, monkeypatch):
        # a call that scans exactly the cap's count of states passes, and one state more is refused
        rng = random.Random(53)
        instances = [rand_graph_instance(rng, 8, ConstraintKind.DAG) for _ in range(10)]
        for inst, result in [(inst, solve_exact(inst)) for inst in instances]:
            scanned = len(result._values)
            monkeypatch.setattr(oracle, "SCANNED_STATE_CAP", scanned)
            assert solve_exact(inst) == result
            monkeypatch.setattr(oracle, "SCANNED_STATE_CAP", scanned - 1)
            with pytest.raises(CapExceededError, match=f"^more than {scanned - 1} states to scan; instance too loose$"):
                solve_exact(inst)
        monkeypatch.setattr(oracle, "SCANNED_STATE_CAP", 0)
        for engine in (best_half_reward_benchmark, best_fixed_order):
            with pytest.raises(CapExceededError, match="^more than 0 states to scan"):
                engine(figure1())

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
    with its stop index, its openable boxes, its scale and the best rewards every
    atom choice gives; with the boxes' stop indices, only the sets reached through
    sets whose lowest best reward is below their stop index; with their strict
    indices too, only through openings that are not dominated."""
    rng = random.Random(31)
    unbuilt = skipped = 0
    for _ in range(40):
        inst = rand_case(rng, kind, max_n=7)
        grid = inst.support_union()
        start = rng.randrange(len(grid))
        # at w = 1/2 (the half-reward benchmark) the costs are doubled
        weight = rng.choice((F(1), F(1, 2)))
        priced = with_costs_times(inst, 1 / weight)
        ints = integer_boxes(priced.boxes, grid)
        model, ids = inst.order_model, inst.order_model.ids
        children = graph_children(inst.constraint)
        stops, strict = oracle._stop_indices(priced.boxes, ints)
        for box, h, d in zip(inst.boxes, stops, strict):
            # straight from the weighted definition: the first k with w * E[(X - y_k)^+] <= c, and < c
            excess = [weight * sum(p * max(v - y, 0) for v, p in box.reward.atoms) for y in grid]
            assert h == next((k for k, e in enumerate(excess) if e <= box.cost), len(grid))
            assert d == next((k for k, e in enumerate(excess) if e < box.cost), len(grid))
        feasible = {
            sum(1 << i for i in chosen)
            for k in range(inst.n + 1)
            for chosen in itertools.combinations(range(inst.n), k)
            if reference_set_feasible(inst, [ids[i] for i in chosen])
        }
        never = [len(grid)] * inst.n
        for box_stops, box_strict in ((never, never), (stops, never), (stops, strict)):
            offered, seen = set(), set()
            for size, level in enumerate(oracle._opened_sets(model, ints, start, box_stops, box_strict)):
                for mask, ys, stop, r, openable in level:
                    opened = [b.id for i, b in enumerate(inst.boxes) if mask >> i & 1]
                    assert len(opened) == size and mask not in seen
                    seen.add(mask)
                    assert stop == max((h for i, h in enumerate(box_stops) if not mask >> i & 1), default=0)
                    bests = {grid[start]}
                    for box_id in opened:
                        bests = {max(y, v) for y in bests for v in inst.box_map[box_id].reward.values()}
                    assert ys == sum(1 << grid.index(y) for y in bests)
                    low = grid.index(min(bests))
                    nxt = sorted((model.index[b] for b in reference_next(inst, opened)), key=ids.__getitem__)
                    # dominated: at or above its strict index, and every child already openable
                    kept = [i for i in nxt if low < box_strict[i] or any(
                        not reference_order_ok(inst, opened, c) for c in children.get(ids[i], ()))]
                    assert openable == (kept if low < stop else [])
                    skipped += len(openable) < len(nxt) and low < stop
                    offered |= {mask | 1 << i for i in openable}
                    assert r == math.prod(ints.dens[i] for i in range(inst.n) if not mask >> i & 1)
            # the empty set, and each set one offered box beyond another
            assert seen == {0} | offered
            if box_stops is never:
                assert seen == feasible
        unbuilt += len(feasible) - len(seen)
    assert unbuilt > 20
    # on a line only the last box unlocks nothing, and it is the only box left: its set stops instead
    assert (skipped > 0) == (kind != ConstraintKind.LINE)


class TestStopIndex:
    """A state at or above every unopened box's Weitzman index stops unscanned."""

    def test_scans_far_fewer_states_than_the_reference(self):
        inst = rand_graph_instance(random.Random(1), 8, ConstraintKind.DAG)
        res = solve_exact(inst)
        value, e_max, e_cost, _, values = reference_engine(inst)
        assert (res.value, res.e_max, res.e_cost) == (value, e_max, e_cost)
        assert len(values) == 254 and len(res._policy) <= 40

    def test_negative_cost_box_opened_above_every_atom(self):
        refund = BoxSpec("a", F(-1), DiscreteDistribution.point(0))
        res = solve_exact(Instance(boxes=(refund, coin_box("b"))), initial_best=F(5))
        assert res.value == 6 and res.action((), F(5)) == "a"
        # once it is open, b's index (1) is below the best reward: a stop, unscanned
        assert res.action(("a",), F(5)) is None and (1, res.grid.index(F(5))) not in res._policy

    def test_start_above_every_index_stops_at_once(self):
        inst = Instance(boxes=(coin_box("a"), coin_box("b", cost=0)))
        res = solve_exact(inst, initial_best=F(4))
        assert res.value == res.e_max == 4 and res.e_cost == 0
        assert res.action((), F(4)) is None and res._policy == res._values == {}


def leaf_dag() -> Instance:
    """Two roots with index 8 over a shared leaf c with index 2."""
    edges = (("a", "c"), ("b", "c"))
    return Instance(boxes=(coin_box("a", 1, 10), coin_box("b", 1, 10), coin_box("c", 1, 4)),
                    constraint=ConstraintGraph(ConstraintKind.DAG, edges))


class TestDominatedOpen:
    """A box that unlocks nothing is not offered below the set's lowest best reward."""

    def test_leaf_below_the_best_reward_is_never_scanned(self):
        inst = leaf_dag()
        res = solve_exact(inst, initial_best=F(3))
        value, e_max, e_cost, _, values = reference_engine(inst, F(3))
        assert (res.value, res.e_max, res.e_cost) == (value, e_max, e_cost)
        assert any(mask >> 2 & 1 for mask, _ in values)
        assert res._values and not any(mask >> 2 & 1 for mask, _ in res._values)

    def test_box_that_unlocks_a_valuable_child_is_opened(self):
        # p's own index is -1, below the start's best reward 1, but it unlocks q (index 18)
        inst = Instance(boxes=(BoxSpec("p", F(1), DiscreteDistribution.point(0)), coin_box("q", 1, 20)),
                        constraint=ConstraintGraph(ConstraintKind.TREE, (("p", "q"),)))
        res = solve_exact(inst, initial_best=F(1))
        ints = integer_boxes(inst.boxes, res.grid)
        assert oracle._stop_indices(inst.boxes, ints)[1][0] <= res.grid.index(F(1))
        assert res.value == reference_engine(inst, F(1))[0] == F(17, 2)
        assert res.action((), F(1)) == "p" and res.action(("p",), F(1)) == "q"

    def test_zero_and_negative_cost_boxes_are_never_skipped(self):
        free = BoxSpec("a", F(0), DiscreteDistribution.point(0))
        refund = BoxSpec("b", F(-1), DiscreteDistribution.point(0))
        inst = Instance(boxes=(free, refund, coin_box("c", 1, 10)))
        res = solve_exact(inst, initial_best=F(5))
        ints = integer_boxes(inst.boxes, res.grid)
        assert oracle._stop_indices(inst.boxes, ints)[1][:2] == [len(res.grid)] * 2
        value, e_max, e_cost, policy, _ = reference_engine(inst, F(5))
        assert (res.value, res.e_max, res.e_cost) == (value, e_max, e_cost)
        # the free box ties the best option and comes first by id, so it opens first
        assert res.action((), F(5)) == "a" and res.action(("a",), F(5)) == "b"
        assert policy[0, res.grid.index(F(5))] == 0

    def test_knapsack_sided_trees_match_the_reference(self):
        rng = random.Random(57)
        dominated = 0
        for _ in range(40):
            inst = rand_tree_instance(rng, rng.randint(3, 7))
            inst = with_side(inst, rand_knapsack_side(rng, [b.id for b in inst.boxes]))
            initial_best = rng.choice(inst.support_union())
            res = solve_exact(inst, initial_best)
            value, e_max, e_cost, policy, values = reference_engine(inst, initial_best)
            assert (res.value, res.e_max, res.e_cost) == (value, e_max, e_cost)
            assert all(policy[key] == act for key, act in res._policy.items())
            dominated += len(values.keys() - reference_undominated_states(inst, initial_best))
        assert dominated > 0


class TestOracleAction:
    def test_pruned_state_stops(self):
        res = solve_exact(figure1())
        # C's index is 2, so with A, C and D open at best reward 5/2 every box left stops
        assert res.action(("A", "C", "D"), F(5, 2)) is None
        assert (0b1101, res.grid.index(F(5, 2))) not in res._policy

    def test_unreached_state_is_a_key_error(self):
        with pytest.raises(KeyError, match=r"state \(B\) at best reward 0 is not reachable") as caught:
            solve_exact(figure1()).action(("B",), F(0))
        assert "\n" not in str(caught.value)

    def test_state_behind_a_skipped_opening_is_a_key_error(self):
        with pytest.raises(KeyError, match=r"state \(a, c\) at best reward 3 is not reachable .* proves worse") as caught:
            solve_exact(leaf_dag(), initial_best=F(3)).action(("a", "c"), F(3))
        assert "\n" not in str(caught.value)

    def test_off_grid_best_is_a_value_error(self):
        with pytest.raises(ValueError, match="^best reward 1 is not on the oracle's grid$"):
            solve_exact(figure1()).action((), F(1))

    def test_repeated_id_is_a_value_error(self):
        with pytest.raises(ValueError, match="^box 'A' is opened twice$"):
            solve_exact(figure1()).action(("A", "A"), F(0))

    def test_unknown_id_is_a_value_error(self):
        with pytest.raises(ValueError, match="^box 'Z' is unknown$"):
            solve_exact(figure1()).action(("A", "Z"), F(0))


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
