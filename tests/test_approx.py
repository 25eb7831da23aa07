from __future__ import annotations

import itertools
import math
import random
import sys
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
    UnsupportedConstraintError,
    ValidationError,
    best_half_reward_benchmark,
    build_preorder,
    dump_instance,
    evaluate_set,
    exact_policy_value,
    format_rational,
    solve_approx,
    solve_exact,
    solve_tree,
    verify_guarantee,
)
from pandorabox import approx, cli
from pandorabox.approx import _enumerate_set_margin
from pandorabox.instances import figure1, guard_line

from helpers import (
    brute_max_distribution,
    figure1_tree_matroid,
    graph_children,
    graph_parents,
    rand_box,
    rand_case,
    rand_knapsack_side,
    rand_partition_side,
    rand_tree_instance,
    reachable_approx_cells,
    reference_engine,
    reference_set_feasible,
    reference_set_margin,
    reference_side_ok,
    support_union,
    with_negative_costs,
    with_side,
)

F = Fraction


def cardinality(instance: Instance, k: int) -> Instance:
    side = MatroidSideConstraint.knapsack({b.id: (1,) for b in instance.boxes}, (k,))
    return with_side(instance, side)


def coin_box(bid="a", cost=1) -> BoxSpec:
    return BoxSpec(bid, F(cost), DiscreteDistribution.of([(3, "1/2"), (0, "1/2")]))


class TestBuildPreorder:
    def test_path(self):
        inst = guard_line()
        pre = build_preorder(inst)
        assert pre.order == ("g1", "g2")
        assert pre.next_position == (3, 3)

    def test_root_with_two_leaves(self):
        boxes = (coin_box("r"), coin_box("l"), coin_box("s"))
        inst = Instance(
            boxes=boxes,
            constraint=ConstraintGraph("tree", (("r", "l"), ("r", "s"))),
        )
        pre = build_preorder(inst)
        assert pre.order == ("r", "l", "s")
        assert pre.next_position == (4, 3, 4)

    def test_single_node(self):
        inst = Instance(boxes=(coin_box("v"),))
        pre = build_preorder(inst)
        assert pre.order == ("v",)
        assert pre.next_position == (2,)

    def test_descendants_are_contiguous(self):
        rng = random.Random(71)
        for _ in range(30):
            inst = rand_tree_instance(rng, rng.randint(1, 8))
            pre = build_preorder(inst)
            children = graph_children(inst.constraint)
            position = {b: i + 1 for i, b in enumerate(pre.order)}

            def subtree(node):
                out = {node}
                for c in children.get(node, ()):
                    out |= subtree(c)
                return out

            for node in pre.order:
                i = position[node]
                nxt = pre.next_position[i - 1]
                assert {position[d] for d in subtree(node)} == set(range(i, nxt))

    def test_dag_rejected(self):
        with pytest.raises(UnsupportedConstraintError):
            build_preorder(figure1())

    def test_roots_and_children_in_ascending_id(self):
        # neither box order nor edge order decides the pre-order
        boxes = tuple(coin_box(b) for b in ("z", "y", "c", "b", "a"))
        edges = (("y", "c"), ("z", "b"), ("y", "a"))
        pre = build_preorder(Instance(boxes=boxes, constraint=ConstraintGraph("forest", edges)))
        assert pre.order == ("y", "a", "c", "z", "b")
        assert pre.next_position == (4, 3, 4, 6, 6)

    @pytest.mark.parametrize(
        "edges",
        [
            (("a", "c"), ("b", "c")),  # two parents
            (("b", "c"), ("c", "b")),  # a cycle no root reaches
        ],
    )
    def test_unvalidated_non_forest_rejected(self, edges):
        inst = Instance(
            boxes=(coin_box("a"), coin_box("b"), coin_box("c")),
            constraint=ConstraintGraph("tree", edges),
        )
        with pytest.raises(ValidationError):
            build_preorder(inst)


class TestKnapsackOracle:
    """The oblivious oracle state is the side load of ``Instance.order_model``."""

    def test_cardinality_counts(self):
        side = MatroidSideConstraint.knapsack({"a": (1,), "b": (1,)}, (1,))
        model = with_side(Instance(boxes=(coin_box("a"), coin_box("b"))), side).order_model
        state = model.empty_load
        assert state == (0,)
        state = model.add(state, 0)
        assert state == (1,)
        assert model.add(state, 1) is None  # overflow

    def test_partition_encoded_as_unit_knapsack(self):
        side = MatroidSideConstraint.partition({"a": 0, "b": 0, "c": 1}, (1, 1))
        boxes = (coin_box("a"), coin_box("b"), coin_box("c"))
        model = with_side(Instance(boxes=boxes), side).order_model
        s = model.add(model.empty_load, 0)
        assert s == (1, 0)
        assert model.add(s, 1) is None
        assert model.add(s, 2) == (1, 1)

    def test_empty_set_always_feasible(self):
        side = MatroidSideConstraint.knapsack({"a": (5,)}, (0,))
        model = with_side(Instance(boxes=(coin_box("a"),)), side).order_model
        assert model.empty_load == (0,)
        assert model.load_of(0) == (0,)

    def test_capacity_bound(self):
        # a capacity above every reachable load (and above 10n, which only documents refuse)
        # solves like a tight one: the sweep is bounded by the loads it reaches
        boxes = (coin_box("a"), coin_box("b"))
        loose, tight = (solve_approx(with_side(Instance(boxes=boxes), MatroidSideConstraint.knapsack(
            {"a": (1,), "b": (1,)}, (cap,)))) for cap in (100, 2))
        assert loose.value == tight.value == F(3, 4)
        assert dict(loose.actions) == dict(tight.actions)

    def test_dimension_bound(self, monkeypatch):
        # the sweep takes a side of any dimension; the guarantee check refuses more than 4
        # dimensions, and more than 12 boxes, before it sweeps
        side = MatroidSideConstraint.knapsack({"a": (1,) * 5}, (1,) * 5)
        inst = with_side(Instance(boxes=(coin_box("a"),)), side)
        policy = solve_approx(inst)
        assert policy.value == F(1, 2) and exact_policy_value(inst, policy) == policy.value
        swept = []
        monkeypatch.setattr(approx, "solve_approx", lambda instance: swept.append(instance))
        with pytest.raises(CapExceededError, match=r"^oracle dimension 5 exceeds 4$"):
            verify_guarantee(inst)
        with pytest.raises(CapExceededError, match=r"^oracle dimension 5 exceeds 4$"):
            verify_guarantee(inst, policy)
        wide = cardinality(Instance(boxes=tuple(coin_box(f"b{k:02d}") for k in range(13))), 2)
        with pytest.raises(CapExceededError, match=r"^set enumeration handles at most 12 boxes, got 13$"):
            verify_guarantee(wide)
        assert swept == []


class TestSolveApprox:
    def test_single_box_opens(self):
        inst = cardinality(Instance(boxes=(coin_box(),)), 1)
        policy = solve_approx(inst)
        assert policy.value == F(1, 2)
        assert policy.actions[(1, 0, (0,))] == 1  # open at start

    def test_single_box_zero_capacity(self):
        inst = cardinality(Instance(boxes=(coin_box(),)), 0)
        policy = solve_approx(inst)
        assert policy.value == 0
        assert policy.actions[(1, 0, (0,))] is None

    def test_box_that_never_fits_is_not_opened_for_its_refund(self):
        # a negative cost (library callers only) must not make an overflowing open a move
        box = BoxSpec("b00", F(-1), DiscreteDistribution.point(2))
        inst = Instance((box,), side=MatroidSideConstraint.knapsack({"b00": (0, 3)}, (2, 2)))
        policy = solve_approx(inst)
        assert policy.value == 0
        assert policy.actions[(1, 0, policy.start_state)] is None
        assert exact_policy_value(inst, policy) == policy.value

    def test_recorded_opens_fit_with_negative_costs(self):
        rng = random.Random(5)
        for _ in range(400):
            inst = rand_case(rng, ConstraintKind.TREE, max_n=7)
            model, policy = inst.order_model, solve_approx(inst)
            for (_, _, state), act in policy.actions.items():
                if act is not None:
                    assert model.add(state, model.index[policy.preorder.order[act - 1]]) is not None
            assert exact_policy_value(inst, policy) == policy.value

    def test_guard_path_with_loose_capacity(self):
        inst = cardinality(guard_line(), 2)
        policy = solve_approx(inst)
        assert policy.value == 1

    def test_value_monotone_in_best(self):
        rng = random.Random(73)
        for _ in range(25):
            inst = rand_tree_instance(rng, rng.randint(1, 6))
            if rng.random() < 0.7:
                inst = with_side(inst, rand_knapsack_side(rng, [b.id for b in inst.boxes]))
            policy = solve_approx(inst)
            grid = policy.grid
            for (i, yk, state), v in policy.values.items():
                assert v >= grid[yk]  # can always stop on the collected best
            start = policy.start_state
            values = [policy.values[(1, yk, start)] for yk in range(len(grid))]
            for (a, va), (b, vb) in zip(
                zip(grid, values), zip(grid[1:], values[1:])
            ):
                assert vb >= va  # monotone
                assert vb - b <= va - a  # gain shrinks with the best reward

    def test_table_cell_cap(self):
        # 18 free boxes with random weights in [0, 10]^4 under a capacity of 180 reach hundreds of
        # thousands of distinct loads: past 2 * 10^6 cells at |grid| per (position, load)
        rng = random.Random(77)
        inst = Instance(boxes=tuple(rand_box(rng, i) for i in range(18)))
        side = MatroidSideConstraint.knapsack(
            {b.id: tuple(rng.randint(0, 10) for _ in range(4)) for b in inst.boxes}, (180, 180, 180, 180)
        )
        with pytest.raises(CapExceededError, match=r"^more than 2000000 table cells to build; instance too large$"):
            solve_approx(with_side(inst, side))

    def test_table_cell_cap_counts_the_reached_loads(self, monkeypatch):
        # a cap of exactly max(|grid|, d) cells per reached (position, load) passes, and one cell less
        # is refused
        rng, cap = random.Random(79), approx.TABLE_CELL_CAP
        for _ in range(20):
            inst = rand_case(rng, ConstraintKind.TREE, max_n=8)
            monkeypatch.setattr(approx, "TABLE_CELL_CAP", cap)
            policy = solve_approx(inst)
            cells = len(policy.values._rows) * max(len(policy.grid), len(inst.order_model.capacity))
            monkeypatch.setattr(approx, "TABLE_CELL_CAP", cells)
            again = solve_approx(inst)
            assert again.value == policy.value and dict(again.actions) == dict(policy.actions)
            monkeypatch.setattr(approx, "TABLE_CELL_CAP", cells - 1)
            with pytest.raises(CapExceededError, match=f"^more than {cells - 1} table cells to build"):
                solve_approx(inst)

    def test_wide_sides_solve_between_the_oracle_bounds(self, monkeypatch):
        # 5- to 12-dimensional knapsacks and 5- to 9-part partitions, past the guarantee check's
        # dimension cap: the sweep's value is achieved, at most the optimum and at least the half-reward
        # benchmark, and its cell count charges d per row where d exceeds the grid
        rng, cap = random.Random(89), approx.TABLE_CELL_CAP
        over_grid = 0
        for k in range(48):
            inst = rand_tree_instance(rng, rng.randint(1, 7))
            ids = [b.id for b in inst.boxes]
            inst = with_side(inst, rand_knapsack_side(rng, ids, max_dim=12, min_dim=5) if k % 2
                             else rand_partition_side(rng, ids, max_parts=9, min_parts=5))
            monkeypatch.setattr(approx, "TABLE_CELL_CAP", cap)
            policy = solve_approx(inst)
            assert best_half_reward_benchmark(inst) <= policy.value <= solve_exact(inst).value
            assert exact_policy_value(inst, policy) == policy.value
            d = len(inst.order_model.capacity)
            over_grid += d > len(policy.grid)
            cells = len(policy.values._rows) * max(len(policy.grid), d)
            monkeypatch.setattr(approx, "TABLE_CELL_CAP", cells)
            assert solve_approx(inst).value == policy.value
            monkeypatch.setattr(approx, "TABLE_CELL_CAP", cells - 1)
            with pytest.raises(CapExceededError, match=f"^more than {cells - 1} table cells to build"):
                solve_approx(inst)
        assert over_grid >= 10

    def test_table_cell_cap_never_refuses_a_call_inside_the_old_estimate(self, monkeypatch):
        # (n + 1) * |grid| * prod(cap + 1) bounds the reached (position, load) rows of |grid| cells
        cap = 2_000
        monkeypatch.setattr(approx, "TABLE_CELL_CAP", cap)
        rng = random.Random(83)
        checked = 0
        while checked < 40:
            inst = rand_case(rng, ConstraintKind.TREE, max_n=8)
            full = (inst.n + 1) * len(support_union(inst)) * math.prod(c + 1 for c in inst.order_model.capacity)
            if full <= cap:
                checked += 1
                solve_approx(inst)

    def test_table_keeps_only_reachable_cells(self):
        # a full table is (n + 1) positions x |grid| x (capacity + 1)^4 loads: 767 637 cells at
        # n = 12, about 3.8 * 10^11 at n = 20; unit weights leave at most n + 1 loads
        for n, capacity in ((12, 8), (20, 200)):
            inst = rand_tree_instance(random.Random(77), n)
            side = MatroidSideConstraint.knapsack({b.id: (1, 1, 1, 1) for b in inst.boxes}, (capacity,) * 4)
            inst = with_side(inst, side)
            policy = solve_approx(inst)
            assert len(policy.actions) <= 1000
            assert exact_policy_value(inst, policy) == policy.value

    def test_views_read_only_the_reached_cells(self):
        # the rows hold every grid index of a reached (position, load); the other indices are no cells
        rng = random.Random(91)
        stale = 0
        for _ in range(60):
            inst = rand_case(rng, ConstraintKind.TREE, max_n=8)
            policy = solve_approx(inst)
            cells = reachable_approx_cells(inst)
            assert len(policy.values) == len(policy.actions) == len(cells)
            unreached = [(i, yk, state) for i, state in {(i, state) for i, _, state in cells}
                         for yk in range(len(policy.grid)) if (i, yk, state) not in cells]
            stale += len(unreached)
            over = tuple(c + 1 for c in inst.order_model.capacity) + (0,)  # a load no run holds
            unreached += [(i, 0, over) for i in range(1, inst.n + 2)]
            unreached += [(i, 0, policy.start_state) for i in (-1, 0, inst.n + 2)]
            for view in (policy.values, policy.actions):
                for key in unreached:
                    assert key not in view
                    with pytest.raises(KeyError):
                        view[key]
        assert stale > 100

    def test_matches_tree_solver_when_capacity_never_binds(self):
        rng = random.Random(79)
        for _ in range(30):
            inst = rand_tree_instance(rng, rng.randint(1, 6))
            loose = cardinality(inst, inst.n)
            assert solve_approx(loose).value == solve_tree(inst).value

    def test_exact_policy_value_agrees_with_table(self):
        rng = random.Random(83)
        for _ in range(30):
            inst = rand_tree_instance(rng, rng.randint(1, 6))
            inst = with_side(inst, rand_knapsack_side(rng, [b.id for b in inst.boxes]))
            policy = solve_approx(inst)
            assert exact_policy_value(inst, policy) == policy.value

    def test_exact_policy_value_refuses_an_open_the_side_forbids(self):
        loose, tight = cardinality(guard_line(), 2), cardinality(guard_line(), 1)
        policy = solve_approx(loose)  # opens g1, then g2
        assert exact_policy_value(loose, policy) == policy.value == 1
        with pytest.raises(ValidationError, match="policy opens 'g2' into an infeasible state"):
            exact_policy_value(tight, policy)

    def test_literal_action_walk_matches_exact_value(self):
        # execute the recorded actions on every realization and average:
        # must reproduce exact_policy_value through a separate code path
        rng = random.Random(85)
        from helpers import enumerate_realizations

        for _ in range(20):
            inst = rand_tree_instance(rng, rng.randint(1, 5))
            inst = with_side(inst, rand_knapsack_side(rng, [b.id for b in inst.boxes]))
            policy = solve_approx(inst)
            y_index = {y: k for k, y in enumerate(policy.grid)}
            total = F(0)
            for values, prob in enumerate_realizations(inst.boxes):
                pos, y, state = 1, F(0), policy.start_state
                spent = F(0)
                while True:
                    act = policy.actions[(pos, y_index[y], state)]
                    if act is None:
                        break
                    box = inst.box_map[policy.preorder.order[act - 1]]
                    spent += box.cost
                    if values[box.id] > y:
                        y = values[box.id]
                    state = inst.order_model.add(state, inst.order_model.index[box.id])
                    assert state is not None
                    pos = act + 1
                total += prob * (y - spent)
            assert total == exact_policy_value(inst, policy) == policy.value


def action_runs(instance: Instance, policy):
    """The opened boxes, in order, of every run of the recorded actions from
    the start, over every reward outcome."""
    model = instance.order_model
    y_index = {y: k for k, y in enumerate(policy.grid)}
    stack = [((1, 0, policy.start_state), ())]
    while stack:
        key, opened = stack.pop()
        act = policy.actions[key]
        if act is None:
            yield opened
            continue
        box = instance.box_map[policy.preorder.order[act - 1]]
        after = model.add(key[2], model.index[box.id])
        y = policy.grid[key[1]]
        for v, _ in box.reward.atoms:
            stack.append(((act + 1, y_index[v] if v > y else key[1], after), opened + (box.id,)))


class TestManyAtoms:
    """Two boxes of 120 equiprobable atoms each, with interleaved values (the
    pools' boxes have 1 to 3 atoms)."""

    def test_forward_passes_match_the_references(self):
        boxes = tuple(BoxSpec(bid, F(1, 7), DiscreteDistribution.of([(2 * k + odd, "1/120") for k in range(120)]))
                      for bid, odd in (("a", 0), ("b", 1)))
        inst = cardinality(Instance(boxes=boxes), 2)
        policy = solve_approx(inst)
        assert policy.value > 0
        assert exact_policy_value(inst, policy) == policy.value
        result = solve_exact(inst)
        assert (result.value, result.e_max, result.e_cost) == reference_engine(inst)[:3]


class TestRunApprox:
    """Runs of the recorded actions from the start, over every reward outcome."""

    def test_never_violates_side_constraint(self):
        rng = random.Random(89)
        for _ in range(20):
            inst = rand_tree_instance(rng, rng.randint(1, 6))
            inst = with_side(inst, rand_knapsack_side(rng, [b.id for b in inst.boxes]))
            parents = graph_parents(inst.constraint)
            for opened in action_runs(inst, solve_approx(inst)):
                assert reference_side_ok(inst, opened)
                for k, box_id in enumerate(opened):
                    assert set(parents.get(box_id, ())) <= set(opened[:k])

    def test_deterministic_instance_trajectory(self):
        inst = cardinality(guard_line(), 2)
        policy = solve_approx(inst)
        assert list(action_runs(inst, policy)) == [("g1", "g2")]
        assert exact_policy_value(inst, policy) == 1

    def test_zero_capacity_terminates_immediately(self):
        inst = cardinality(Instance(boxes=(coin_box(),)), 0)
        policy = solve_approx(inst)
        assert policy.actions[(1, 0, policy.start_state)] is None
        assert list(action_runs(inst, policy)) == [()]


class TestVerifyGuarantee:
    def test_guard_line_margin_tight_at_full_set(self):
        inst = cardinality(guard_line(), 2)
        report = verify_guarantee(inst)
        assert report.set_margin == 0
        assert set(report.worst_set) == {"g1", "g2"}
        assert report.feasible_sets == 3  # {}, {g1}, {g1, g2}

    def test_diamond_tree_matroid_variant(self):
        inst = figure1_tree_matroid(F(3, 2))
        report = verify_guarantee(inst)
        assert report.set_margin >= 0
        assert report.benchmark_margin is not None and report.benchmark_margin >= 0

    def test_degenerate_single_box_zero_capacity(self):
        inst = cardinality(Instance(boxes=(coin_box(),)), 0)
        report = verify_guarantee(inst)
        assert report.policy_value == 0
        assert report.set_margin == 0
        assert report.benchmark_margin == 0  # oracle can open nothing either

    def test_dominates_every_feasible_set(self):
        rng = random.Random(97)
        for _ in range(25):
            inst = rand_tree_instance(rng, rng.randint(1, 7))
            inst = with_side(inst, rand_knapsack_side(rng, [b.id for b in inst.boxes]))
            report = verify_guarantee(inst)
            assert report.set_margin >= 0

    def test_margin_matches_direct_set_evaluation(self):
        rng = random.Random(101)
        inst = rand_tree_instance(rng, 5)
        inst = cardinality(inst, 3)
        policy = solve_approx(inst)
        report = verify_guarantee(inst, policy)
        if report.worst_set:
            direct = evaluate_set(inst, report.worst_set)
            assert policy.value - direct == report.set_margin

    def test_set_margin_is_the_minimum_over_every_feasible_set(self):
        """Against brute force over every subset: the margin is the policy value
        minus the best feasible set's value, the count is the number of feasible
        subsets (the empty set included), and the reported worst set attains it."""
        rng = random.Random(107)
        for k in range(60):
            inst = rand_tree_instance(rng, rng.randint(1, 7))
            ids = [b.id for b in inst.boxes]
            inst = with_side(inst, (rand_knapsack_side if k % 2 else rand_partition_side)(rng, ids))

            def brute(subset) -> Fraction:
                if not subset:
                    return F(0)
                dist = brute_max_distribution([inst.box_map[b].reward for b in subset])
                return sum(v * p for v, p in dist) - sum(inst.box_map[b].cost for b in subset)

            values = [brute(subset) for r in range(len(ids) + 1) for subset in itertools.combinations(ids, r)
                      if reference_set_feasible(inst, subset)]
            policy = solve_approx(inst)
            report = verify_guarantee(inst, policy)
            best = max(values)
            assert report.set_margin == policy.value - best
            assert report.feasible_sets == len(values)
            assert brute(report.worst_set) == best

    def test_set_margin_with_negative_costs_is_the_minimum_over_every_feasible_set(self):
        """The brute force above on instances with costs below 0, which the
        pruned walk's bound must count ahead of the current position."""
        rng = random.Random(109)
        for k in range(60):
            inst = rand_tree_instance(rng, rng.randint(1, 7))
            ids = [b.id for b in inst.boxes]
            inst = with_side(inst, (rand_knapsack_side if k % 2 else rand_partition_side)(rng, ids))
            inst = with_negative_costs(inst, rng)

            def brute(subset) -> Fraction:
                if not subset:
                    return F(0)
                dist = brute_max_distribution([inst.box_map[b].reward for b in subset])
                return sum(v * p for v, p in dist) - sum(inst.box_map[b].cost for b in subset)

            values = [brute(subset) for r in range(len(ids) + 1) for subset in itertools.combinations(ids, r)
                      if reference_set_feasible(inst, subset)]
            policy = solve_approx(inst)
            report = verify_guarantee(inst, policy)
            best = max(values)
            assert report.set_margin == policy.value - best
            assert report.feasible_sets == len(values)
            assert brute(report.worst_set) == best

    def test_set_margin_matches_the_reference_walk(self):
        """The pruned int walk and the forward count against the unpruned walk
        that values every feasible set: the same margin, the same worst set
        (the first strict minimum in walk order) and the same count."""
        rng = random.Random(113)
        cases = [cardinality(guard_line(), 2), cardinality(Instance(boxes=(coin_box(),)), 0)]
        for k in range(400):
            inst = rand_tree_instance(rng, rng.randint(1, 8))
            ids = [b.id for b in inst.boxes]
            inst = with_side(inst, (rand_knapsack_side if k % 2 else rand_partition_side)(rng, ids))
            cases.append(with_negative_costs(inst, rng))
        for inst in cases:
            policy = solve_approx(inst)
            assert _enumerate_set_margin(inst, policy) == reference_set_margin(inst, policy)

    def test_half_benchmark_margin_nonneg_on_random_instances(self):
        rng = random.Random(103)
        for _ in range(25):
            inst = rand_tree_instance(rng, rng.randint(1, 6))
            inst = with_side(inst, rand_knapsack_side(rng, [b.id for b in inst.boxes]))
            report = verify_guarantee(inst)
            assert report.benchmark_margin is not None
            res = solve_exact(inst)
            assert report.benchmark_margin == report.executed_value - (
                res.e_max / 2 - res.e_cost
            )
            assert report.benchmark_margin >= 0


class TestLongLine:
    """A line deeper than the interpreter's recursion limit."""

    N = 1500

    def line(self, n: int = N, spread: int = 3) -> Instance:
        boxes = tuple(
            BoxSpec(f"b{i:04d}", F(1, 10), DiscreteDistribution.of([(0, "1/2"), (1 + i % spread, "1/2")]))
            for i in range(n)
        )
        edges = tuple((a.id, b.id) for a, b in zip(boxes, boxes[1:]))
        return Instance(boxes=boxes, constraint=ConstraintGraph("line", edges))

    def test_solve_and_approx_agree(self, tmp_path, capsys):
        assert self.N > sys.getrecursionlimit()
        inst = self.line()
        policy = solve_approx(inst)
        value = solve_tree(inst).value
        assert policy.value == value
        assert exact_policy_value(inst, policy) == policy.value

        path = tmp_path / "line.json"
        path.write_text(dump_instance(inst))
        for command in ("solve", "approx"):
            assert cli.main([command, "--input", str(path)]) == 0
            out = capsys.readouterr().out.splitlines()
            assert out[-1] == f"value={format_rational(value)}"

    def test_sweep_scales_are_one_running_product(self):
        # with one math.prod per suffix of the reward denominators, solve_approx took 28-42 s here (2-vCPU VM)
        inst = self.line(16_000, spread=1)
        start = time.perf_counter()
        assert solve_approx(inst).value == solve_tree(inst).value
        assert time.perf_counter() - start < 5
