from __future__ import annotations

import random
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from pandorabox import (
    BoxSpec,
    CapExceededError,
    DiscreteDistribution,
    Instance,
    OrderModel,
    ParseError,
    SimulationSummary,
    ThresholdPolicy,
    ValidationError,
    evaluate_set,
    evaluate_threshold_exact,
    fixed_opening_order,
    load_instance,
    run_threshold,
    simulate,
    solve_exact,
    solve_tree,
)
from pandorabox.instances import adaptivity_gap, guard_line
from pandorabox import strategy
from pandorabox.strategy import MAX_TRIALS, TRIAL_BLOCK, RewardSampler, u64

from helpers import (
    FRACTION_BUILDS,
    distinct_value_line,
    expectation,
    fraction_calls,
    graph_parents,
    line_instance_of,
    literal_u64,
    max_distribution,
    rand_dist,
    rand_fixed_draw_box,
    rand_knapsack_side,
    rand_line_boxes,
    rand_partition_side,
    rand_tie_instance,
    rand_tree_instance,
    reference_draw,
    reference_evaluate_threshold_exact,
    reference_simulate,
    with_side,
)

F = Fraction


def policy_of(instance, thresholds) -> ThresholdPolicy:
    return ThresholdPolicy.for_instance(instance, {b.id: F(t) for b, t in zip(instance.boxes, thresholds)})


class TestRunThreshold:
    def test_all_negative_thresholds_open_nothing(self):
        inst = line_instance_of(rand_line_boxes(random.Random(1), 3))
        traj = run_threshold(inst, policy_of(inst, [-1, -2, -3]), rng_seed=5)
        assert traj.steps == ()
        assert traj.net_revenue == 0

    def test_single_forced_step(self):
        box = BoxSpec("a", F(1), DiscreteDistribution.point(4))
        inst = Instance(boxes=(box,))
        traj = run_threshold(inst, policy_of(inst, [2]), rng_seed=0)
        assert traj.steps == (("a", F(4)),)
        assert traj.net_revenue == 3

    def test_guard_line_deterministic_run(self):
        inst = guard_line()
        sol = solve_tree(inst)
        policy = ThresholdPolicy.for_instance(inst, sol.thresholds, sol.order.ids())
        for seed in (0, 1, 99):
            traj = run_threshold(inst, policy, rng_seed=seed)
            assert [s[0] for s in traj.steps] == ["g1", "g2"]
            assert traj.net_revenue == 1

    def test_fixed_order_across_seeds(self):
        rng = random.Random(3)
        for _ in range(10):
            inst = rand_tree_instance(rng, rng.randint(2, 6))
            sol = solve_tree(inst)
            policy = ThresholdPolicy.for_instance(inst, sol.thresholds, sol.order.ids())
            runs = [run_threshold(inst, policy, rng_seed=s) for s in range(100)]
            reference = fixed_opening_order(inst, policy)
            for traj in runs:
                opened = [s[0] for s in traj.steps]
                assert opened == reference[: len(opened)]

    def test_nothing_openable_gives_empty_trajectory(self):
        from pandorabox import MatroidSideConstraint

        box = BoxSpec("a", F(1), DiscreteDistribution.point(4))
        inst = Instance(
            boxes=(box,),
            side=MatroidSideConstraint.knapsack({"a": (1,)}, (0,)),
        )
        traj = run_threshold(inst, policy_of(inst, [10]), rng_seed=2)
        assert traj.steps == () and traj.net_revenue == 0

    def test_stops_at_equality(self):
        # best == threshold means stop: the guard of the loop is strict.
        first = BoxSpec("a", F(0), DiscreteDistribution.point(2))
        second = BoxSpec("b", F(0), DiscreteDistribution.point(5))
        inst = Instance(boxes=(first, second))
        policy = ThresholdPolicy.for_instance(inst, {"a": F(3), "b": F(2)})
        traj = run_threshold(inst, policy, rng_seed=0)
        assert [s[0] for s in traj.steps] == ["a"]


class TestPolicyThresholds:
    """``for_instance`` takes exact rationals and rational text, and names the box of any other threshold."""

    def two_boxes(self) -> Instance:
        return Instance(boxes=(BoxSpec("a", F(1), DiscreteDistribution.of([(0, "1/2"), (4, "1/2")])),
                               BoxSpec("b", F(0), DiscreteDistribution.point(1))))

    @pytest.mark.parametrize("bad, why", [(0.5, "float"), (True, "boolean"), (False, "boolean"),
                                          ("two", "cannot parse")])
    def test_refuses_non_rational(self, bad, why):
        with pytest.raises(ParseError, match=f"threshold of box 'b': .*{why}"):
            ThresholdPolicy.for_instance(self.two_boxes(), {"a": F(3, 2), "b": bad})

    def test_parses_rational_text(self):
        inst = self.two_boxes()
        policy = ThresholdPolicy.for_instance(inst, {"a": "1/2", "b": 3})
        assert policy.thresholds == {"a": F(1, 2), "b": F(3)}
        assert all(type(z) is Fraction for z in policy.thresholds.values())
        assert fixed_opening_order(inst, policy) == ["b", "a"]
        assert evaluate_threshold_exact(inst, policy) == 1

    @pytest.mark.parametrize("tiebreak, why", [
        (("b",), r"missing \['a'\], unknown \[\], repeated \[\]"),
        (("zz", "b"), r"missing \['a'\], unknown \['zz'\], repeated \[\]"),
        (("b", "a", "b"), r"missing \[\], unknown \[\], repeated \['b'\]"),
    ], ids=["partial", "unknown", "repeated"])
    def test_refuses_a_tiebreak_that_is_not_a_permutation(self, tiebreak, why):
        with pytest.raises(ValidationError, match=f"tiebreak must list each box id once: {why}"):
            ThresholdPolicy.for_instance(self.two_boxes(), {"a": 1, "b": 1}, tiebreak)

    def test_refuses_thresholds_for_unknown_boxes(self):
        with pytest.raises(ValidationError, match=r"policy has thresholds for unknown boxes \['zz'\]"):
            ThresholdPolicy.for_instance(self.two_boxes(), {"a": 1, "b": 2, "zz": 5})

    def test_tiebreak_orders_equal_thresholds(self):
        inst = self.two_boxes()
        for tiebreak, order in [((), ["a", "b"]), (("b", "a"), ["b", "a"]), (("a", "b"), ["a", "b"])]:
            policy = ThresholdPolicy.for_instance(inst, {"a": 1, "b": 1}, tiebreak)
            assert fixed_opening_order(inst, policy) == order


class TestEvaluateThresholdExact:
    def test_tree_solution_value_reproduced(self):
        rng = random.Random(7)
        for _ in range(30):
            inst = rand_tree_instance(rng, rng.randint(1, 7))
            sol = solve_tree(inst)
            policy = ThresholdPolicy.for_instance(inst, sol.thresholds, sol.order.ids())
            assert evaluate_threshold_exact(inst, policy) == sol.value

    def test_open_everything_policy(self):
        rng = random.Random(11)
        for _ in range(30):
            inst = rand_tree_instance(rng, rng.randint(1, 6))
            high = max(v for b in inst.boxes for v in b.reward.values()) + 1
            policy = policy_of(inst, [high] * inst.n)
            expected = (
                expectation(max_distribution([b.reward for b in inst.boxes]))
                - sum((b.cost for b in inst.boxes), F(0))
            )
            assert evaluate_threshold_exact(inst, policy) == expected

    def test_open_nothing_policy(self):
        inst = rand_tree_instance(random.Random(13), 4)
        assert evaluate_threshold_exact(inst, policy_of(inst, [-1] * 4)) == 0

    def test_agrees_with_trajectory_enumeration(self):
        # exact evaluator vs direct expectation over full product space
        rng = random.Random(17)
        from helpers import enumerate_realizations

        for _ in range(25):
            boxes = rand_line_boxes(rng, rng.randint(1, 4))
            inst = line_instance_of(boxes)
            thresholds = {b.id: F(rng.randint(-1, 8), rng.choice((1, 2))) for b in boxes}
            policy = ThresholdPolicy.for_instance(inst, thresholds)
            total = F(0)
            for values, prob in enumerate_realizations(boxes):
                y = F(0)
                spent = F(0)
                for b in boxes:
                    if y >= thresholds[b.id]:
                        break
                    spent += b.cost
                    y = max(y, values[b.id])
                total += prob * (y - spent)
            assert evaluate_threshold_exact(inst, policy) == total

    def test_agrees_with_literal_greedy_rule_on_any_constraint(self):
        # the fixed-order sweep must reproduce the literal while-loop
        # semantics, including DAGs and binding side constraints
        rng = random.Random(117)
        from helpers import enumerate_realizations, rand_knapsack_side, with_side
        from pandorabox.instances import figure1
        from helpers import run_greedy_threshold_on_realization

        cases = []
        for _ in range(12):
            inst = rand_tree_instance(rng, rng.randint(1, 5))
            if rng.random() < 0.5:
                inst = with_side(inst, rand_knapsack_side(rng, [b.id for b in inst.boxes]))
            cases.append(inst)
        cases.append(figure1())
        for inst in cases:
            thresholds = {
                b.id: F(rng.randint(-1, 10), rng.choice((1, 2))) for b in inst.boxes
            }
            policy = ThresholdPolicy.for_instance(inst, thresholds)
            total = F(0)
            for values, prob in enumerate_realizations(inst.boxes):
                total += prob * run_greedy_threshold_on_realization(inst, thresholds, values)
            assert evaluate_threshold_exact(inst, policy) == total


class TestEvaluateMatchesReference:
    """The int sweep over the lazy walk against the ``Fraction`` sweep of the
    whole order in ``helpers``: every value must be the same ``Fraction``."""

    @staticmethod
    def check(inst, policy) -> None:
        assert evaluate_threshold_exact(inst, policy) == reference_evaluate_threshold_exact(inst, policy)

    def test_bench_pools(self):
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
        import gen

        for seed in (1, 2, 3):
            for item in gen.tree_solve_pool(seed) + gen.simulate_pool(seed):
                inst = load_instance(item["text"])
                self.check(inst, solved_policy(inst))

    def test_tie_instances_with_random_thresholds_and_sides(self):
        rng = random.Random(19)
        kinds = ("line", "tree", "forest", "dag", "unconstrained")
        for case in range(1600):
            inst = rand_tie_instance(rng, kinds[case % 5])
            ids = [b.id for b in inst.boxes]
            if case % 3 == 1:
                inst = with_side(inst, rand_knapsack_side(rng, ids))
            elif case % 3 == 2:
                inst = with_side(inst, rand_partition_side(rng, ids))
            # reward values as thresholds make masses stop at equality
            palette = [F(rng.randint(-2, 9), rng.choice((1, 2, 3))) for _ in range(4)]
            palette += [v for b in inst.boxes for v in b.reward.values()]
            thresholds = {i: rng.choice(palette) for i in ids}
            tiebreak = rng.sample(ids, len(ids)) if rng.random() < 0.5 else ()
            self.check(inst, ThresholdPolicy.for_instance(inst, thresholds, tiebreak))

    @pytest.mark.parametrize("side", ("none", "knapsack", "partition"))
    @pytest.mark.parametrize("kind", ("line", "tree", "forest", "dag"))
    def test_close_threshold_palettes(self, kind, side):
        from test_order_model import close_thresholds, instances

        for rng, inst in instances(113, 40, kind, side, max_n=9):
            palette = close_thresholds(rng)
            thresholds = {b.id: rng.choice(palette) for b in inst.boxes}
            ids = [b.id for b in inst.boxes]
            self.check(inst, ThresholdPolicy.for_instance(inst, thresholds, rng.sample(ids, len(ids))))

    def test_adaptivity_gap_line(self):
        inst = adaptivity_gap(F(1, 10))
        self.check(inst, solved_policy(inst))

    def test_distinct_value_lines(self):
        for n in (60, 120, 180, 240, 300):
            inst = distinct_value_line(n, seed=n)
            self.check(inst, solved_policy(inst))


class TestEvaluationWalk:
    def test_distinct_value_line_evaluates_fast(self):
        # the running support grows by about one key per box; on Fraction
        # masses this line took over 10 s
        inst = distinct_value_line(1000)
        policy = solved_policy(inst)
        start = time.perf_counter()
        assert evaluate_threshold_exact(inst, policy) == solve_tree(inst).value
        assert time.perf_counter() - start < 3.0

    def test_walk_stops_once_no_mass_runs(self, monkeypatch):
        # the first box pays more than every threshold, so every realization
        # stops at the second box; the other 1 998 are never taken from the heap
        boxes = [BoxSpec("a0000", F(1), DiscreteDistribution.point(10**6))]
        boxes += [BoxSpec(f"b{k:04d}", F(1), DiscreteDistribution.point(1)) for k in range(1, 2000)]
        inst = Instance(boxes=tuple(boxes))
        policy = ThresholdPolicy.for_instance(inst, {b.id: 100 if b.id == "a0000" else 50 for b in boxes})
        calls = []
        try_open = OrderModel.try_open

        def counted(self, mask, load, i):
            calls.append(i)
            return try_open(self, mask, load, i)

        monkeypatch.setattr(OrderModel, "try_open", counted)
        assert evaluate_threshold_exact(inst, policy) == 10**6 - 1
        assert len(calls) < 10
        calls.clear()
        assert [box_id for box_id, _ in run_threshold(inst, policy, rng_seed=1).steps] == ["a0000"]
        assert len(calls) < 10


class TestEvaluateSet:
    def test_empty_set(self):
        inst = rand_tree_instance(random.Random(19), 3)
        assert evaluate_set(inst, []) == 0

    def test_single_box(self):
        box = BoxSpec("a", F(1), DiscreteDistribution.of([(3, "1/2"), (0, "1/2")]))
        assert evaluate_set(Instance(boxes=(box,)), ["a"]) == F(1, 2)

    def test_identical_lottery_line_prefixes_match_closed_form(self):
        p = F(1, 5)
        inst = adaptivity_gap(p, n=6)
        jackpot = 1 / (p * p)
        cost = 1 - p / 2
        for k in range(0, 7):
            ids = [b.id for b in inst.boxes[:k]]
            expected = jackpot * (1 - (1 - p * p) ** k) - k * cost
            assert evaluate_set(inst, ids) == expected

    def test_refuses_a_repeated_id(self):
        box = BoxSpec("a", F(1), DiscreteDistribution.of([(3, "1/2"), (0, "1/2")]))
        inst = Instance(boxes=(box, BoxSpec("b", F(0), DiscreteDistribution.point(1))))
        with pytest.raises(ValidationError, match=r"set lists boxes \['a'\] more than once"):
            evaluate_set(inst, ["a", "b", "a"])

    def test_infeasible_set_names_constraint(self):
        inst = guard_line()
        with pytest.raises(ValidationError, match="parent"):
            evaluate_set(inst, ["g2"])

    def test_side_constraint_checked(self):
        from pandorabox import MatroidSideConstraint

        box_a = BoxSpec("a", F(0), DiscreteDistribution.point(1))
        box_b = BoxSpec("b", F(0), DiscreteDistribution.point(1))
        inst = Instance(
            boxes=(box_a, box_b),
            side=MatroidSideConstraint.knapsack({"a": (1,), "b": (1,)}, (1,)),
        )
        assert evaluate_set(inst, ["a"]) == 1
        with pytest.raises(ValidationError, match="side"):
            evaluate_set(inst, ["a", "b"])

    def test_never_beats_adaptive_optimum(self):
        rng = random.Random(23)
        import itertools

        for _ in range(20):
            inst = rand_tree_instance(rng, rng.randint(1, 5))
            optimum = solve_exact(inst).value
            parents = graph_parents(inst.constraint)
            ids = [b.id for b in inst.boxes]
            for r in range(len(ids) + 1):
                for combo in itertools.combinations(ids, r):
                    chosen = set(combo)
                    if any(p not in chosen for i in chosen for p in parents.get(i, ())):
                        continue
                    assert evaluate_set(inst, combo) <= optimum


class TestSimulate:
    def test_deterministic_instance_stddev_zero(self):
        inst = guard_line()
        sol = solve_tree(inst)
        policy = ThresholdPolicy.for_instance(inst, sol.thresholds, sol.order.ids())
        summary = simulate(inst, policy, trials=500, rng_seed=42)
        assert summary.mean == 1
        assert summary.stddev == 0.0

    def test_reproducible(self):
        rng = random.Random(29)
        inst = rand_tree_instance(rng, 5)
        sol = solve_tree(inst)
        policy = ThresholdPolicy.for_instance(inst, sol.thresholds, sol.order.ids())
        a = simulate(inst, policy, trials=400, rng_seed=7)
        b = simulate(inst, policy, trials=400, rng_seed=7)
        assert a == b
        c = simulate(inst, policy, trials=400, rng_seed=8)
        assert c != a  # different stream

    def test_calibrated_on_coin_box(self):
        box = BoxSpec("a", F(1), DiscreteDistribution.of([(3, "1/2"), (0, "1/2")]))
        inst = Instance(boxes=(box,))
        policy = ThresholdPolicy.for_instance(inst, {"a": F(1)})
        summary = simulate(inst, policy, trials=10_000, rng_seed=3)
        exact = evaluate_threshold_exact(inst, policy)
        assert exact == F(1, 2)
        bound = 4 * summary.stddev / (summary.trials ** 0.5)
        assert abs(float(summary.mean - exact)) <= bound

    def test_trials_validated(self):
        inst = guard_line()
        sol = solve_tree(inst)
        policy = ThresholdPolicy.for_instance(inst, sol.thresholds, sol.order.ids())
        with pytest.raises(ValidationError):
            simulate(inst, policy, trials=0, rng_seed=1)

    @pytest.mark.parametrize("big", ["1e154", "1e155"])
    def test_variance_past_the_float_range_is_a_cap(self, big):
        """The stddev is the reference's float wherever the variance fits a
        float; past that range it is refused with the variance's size."""
        inst = Instance(boxes=(
            BoxSpec("a", F(1), DiscreteDistribution.of([(big, "1/2"), (0, "1/2")])),
            BoxSpec("b", F(1), DiscreteDistribution.of([(3, "1/2"), (0, "1/2")])),
        ))
        sol = solve_tree(inst)
        policy = ThresholdPolicy.for_instance(inst, sol.thresholds, sol.order.ids())
        if big == "1e154":
            assert simulate(inst, policy, trials=50, rng_seed=1) == reference_simulate(inst, policy, 50, 1)
            return
        with pytest.raises(CapExceededError) as exc:
            simulate(inst, policy, trials=50, rng_seed=1)
        assert str(exc.value) == "sample variance about 2^1028 is past the float range"

    def test_trials_capped_before_the_order_is_built(self, monkeypatch):
        inst = guard_line()
        sol = solve_tree(inst)
        policy = ThresholdPolicy.for_instance(inst, sol.thresholds, sol.order.ids())
        monkeypatch.setattr(strategy, "fixed_opening_order", lambda *args: pytest.fail("order built"))
        for trials, got in ((MAX_TRIALS + 1, str(MAX_TRIALS + 1)), (1 << 200, "about 2^200")):
            with pytest.raises(CapExceededError) as exc:
                simulate(inst, policy, trials=trials, rng_seed=1)
            assert str(exc.value) == f"simulate handles at most {MAX_TRIALS} trials, got {got}"


class FixedPoint(RewardSampler):
    """A sampler whose 64-bit point is set by hand."""

    def __init__(self, u: int):
        super().__init__(0)
        self.u = u

    def uniform_u64(self, step: int, box_id: str) -> int:
        return self.u


KINDS = ("line", "tree", "forest", "unconstrained")


def solved_policy(inst) -> ThresholdPolicy:
    sol = solve_tree(inst)
    return ThresholdPolicy.for_instance(inst, sol.thresholds, sol.order.ids())


def with_zero_costs(inst) -> Instance:
    boxes = tuple(BoxSpec(b.id, F(0), b.reward) for b in inst.boxes)
    return Instance(boxes=boxes, constraint=inst.constraint)


class TestSimulateMatchesReference:
    """``simulate`` tallies integer ranks; the reference sums a ``Fraction``
    per trial over the literal CDF scan.  Whole summaries must be equal."""

    def test_draw_at_cut_points(self):
        rng = random.Random(61)
        for _ in range(200):
            dist = rand_dist(rng, max_support=5)
            points = {0, (1 << 64) - 1}
            for cut in dist.cut_points:
                points |= {cut - 1, cut} - {1 << 64}
            for u in points:
                assert FixedPoint(u).draw(dist, 0, "a") == reference_draw(dist, u)

    def test_solved_policies_on_tie_instances(self):
        rng = random.Random(67)
        for k in range(320):
            inst = rand_tie_instance(rng, KINDS[k % 4])
            trials = (1, 2, rng.randint(3, 40))[k % 3]
            seed = rng.randrange(1000)
            policy = solved_policy(inst)
            assert simulate(inst, policy, trials, seed) == reference_simulate(inst, policy, trials, seed)

    def test_hand_set_thresholds_and_zero_costs(self):
        # thresholds at support values (stop at equality), below 0 and above
        # every value, on the instances as given and with every cost 0
        rng = random.Random(71)
        for k in range(120):
            inst = rand_tie_instance(rng, KINDS[k % 4])
            if k % 2:
                inst = with_zero_costs(inst)
            support = sorted({v for b in inst.boxes for v in b.reward.values()})
            choices = support + [F(-1), support[-1] + 1]
            policy = ThresholdPolicy.for_instance(inst, {b.id: rng.choice(choices) for b in inst.boxes})
            for trials in (1, 2, 25):
                assert simulate(inst, policy, trials, k) == reference_simulate(inst, policy, trials, k)

    def test_stops_at_equality(self):
        first = BoxSpec("a", F(0), DiscreteDistribution.point(2))
        second = BoxSpec("b", F(1), DiscreteDistribution.point(5))
        inst = line_instance_of([first, second])
        summary = simulate(inst, policy_of(inst, [3, 2]), trials=5, rng_seed=0)
        assert summary == reference_simulate(inst, policy_of(inst, [3, 2]), 5, 0)
        assert summary.mean == 2 and summary.stddev == 0.0
        assert simulate(inst, policy_of(inst, [3, 3]), trials=5, rng_seed=0).mean == 4

    def test_mean_is_the_run_threshold_prefix_mean(self):
        rng = random.Random(73)
        for k in range(40):
            inst = rand_tie_instance(rng, KINDS[k % 4])
            policy = solved_policy(inst)
            trials = rng.randint(1, 30)
            nets = [run_threshold(inst, policy, k, t).net_revenue for t in range(trials)]
            assert simulate(inst, policy, trials, k).mean == sum(nets, F(0)) / trials


class TestSamplerStream:
    """``u64``, ``uniform_u64`` and ``draw`` against the stream's literal
    definition, ``helpers.literal_u64``."""

    SEEDS = (0, 1, 42, -1, -(1 << 31), 1 << 70, -(1 << 70))
    IDS = ("a", "b7", "12", "3|4", "|", "x||y|", "caf\u00e9", "\u7bb1|9", "\U0001f4e6")

    def test_points_match_literal_definition(self):
        for seed in self.SEEDS:
            for trial in (0, 1, 977):
                sampler = RewardSampler(seed, trial)
                for step in (0, 1, 25):
                    for box_id in self.IDS:
                        point = literal_u64(seed, trial, step, box_id)
                        assert sampler.uniform_u64(step, box_id) == point
                        assert u64(f"{seed}|{trial}".encode(), f"|{step}|{box_id}".encode()) == point

    def test_draws_match_literal_definition(self):
        rng = random.Random(79)
        for seed in self.SEEDS:
            for box_id in self.IDS:
                dist = rand_dist(rng, max_support=5)
                trial, step = rng.choice((0, 3)), rng.randrange(4)
                expected = reference_draw(dist, literal_u64(seed, trial, step, box_id))
                assert RewardSampler(seed, trial).draw(dist, step, box_id) == expected

    def test_simulate_with_unusual_ids_and_seeds(self):
        rng = random.Random(83)
        dists = [rand_dist(rng, max_support=4) for _ in self.IDS]
        inst = line_instance_of([BoxSpec(i, F(rng.randint(0, 2), 2), d) for i, d in zip(self.IDS, dists)])
        policy = policy_of(inst, [9] * inst.n)
        for seed in self.SEEDS:
            assert simulate(inst, policy, 30, seed) == reference_simulate(inst, policy, 30, seed)


def opened_counts(inst, policy, trials, seed) -> list[int]:
    return [len(run_threshold(inst, policy, seed, t).steps) for t in range(trials)]


class TestTrialBlocks:
    """``simulate`` walks blocks of ``TRIAL_BLOCK`` trials step by step; the
    counts are additive, so any block size gives the same summary."""

    @pytest.mark.parametrize("block", (1, 2, 3))
    def test_small_blocks_match_reference(self, monkeypatch, block):
        monkeypatch.setattr(strategy, "TRIAL_BLOCK", block)
        rng = random.Random(f"blocks-{block}")
        at_zero = early = 0
        for k in range(120):
            inst = rand_tie_instance(rng, KINDS[k % 4])
            if k % 3 == 0:
                policy = solved_policy(inst)
            else:
                # support values (stop at equality), 0 and -1 (stop at step 0)
                support = sorted({v for b in inst.boxes for v in b.reward.values()})
                choices = support + [F(0), F(-1), support[-1] + 1]
                policy = ThresholdPolicy.for_instance(inst, {b.id: rng.choice(choices) for b in inst.boxes})
            trials = rng.randint(1, 40)
            seed = rng.randrange(1000)
            assert simulate(inst, policy, trials, seed) == reference_simulate(inst, policy, trials, seed)
            opened = max(opened_counts(inst, policy, trials, seed))
            at_zero += opened == 0
            early += 0 < opened < len(fixed_opening_order(inst, policy))
        assert at_zero > 10 and early > 40

    def test_every_trial_stops_at_step_zero(self, monkeypatch):
        monkeypatch.setattr(strategy, "TRIAL_BLOCK", 2)
        inst = rand_tie_instance(random.Random(89), "tree")
        for threshold in (0, -1):
            policy = policy_of(inst, [threshold] * inst.n)
            summary = simulate(inst, policy, 5, 1)
            assert summary == reference_simulate(inst, policy, 5, 1)
            assert summary.mean == 0 and summary.stddev == 0.0

    def test_block_edges_at_the_real_block_size(self):
        rng = random.Random(97)
        for k in range(3):
            inst = rand_tie_instance(rng, KINDS[k], max_n=5)
            policy = solved_policy(inst)
            for trials in (TRIAL_BLOCK - 1, TRIAL_BLOCK, TRIAL_BLOCK + 1):
                assert simulate(inst, policy, trials, k) == reference_simulate(inst, policy, trials, k)

    def test_memory_is_bounded_by_one_block(self):
        inst = rand_tree_instance(random.Random(101), 3)
        policy = policy_of(inst, [100] * inst.n)  # every trial opens every box
        tracemalloc.start()
        try:
            simulate(inst, policy, 100_000, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


def live_openings(inst, policy, trials, seed) -> Counter:
    """Every live (trial, step) pair of the ``run_threshold`` trajectories, by
    what the opened box's atoms do to the trial's best reward: ``point`` (one
    atom), ``below`` (several, none above the best), ``partial`` (the two
    smallest at or below the best, the top above it) or ``spread`` (the rest)."""
    kinds = Counter()
    for t in range(trials):
        best = F(0)
        for box_id, reward in run_threshold(inst, policy, seed, t).steps:
            values = inst.box_map[box_id].reward.values()
            if len(values) == 1:
                kinds["point"] += 1
            elif values[-1] <= best:
                kinds["below"] += 1
            else:
                kinds["partial" if values[1] <= best else "spread"] += 1
            best = max(best, reward)
    return kinds


def counted_simulate(inst, policy, trials, seed) -> tuple[SimulationSummary, int]:
    """``simulate`` with ``strategy.u64`` wrapped to count its calls."""
    calls = 0

    def counting(head, tail):
        nonlocal calls
        calls += 1
        return u64(head, tail)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(strategy, "u64", counting)
        summary = simulate(inst, policy, trials, seed)
    return summary, calls


def fixed_draw_cases(rng, count, max_n=9):
    """(case, instance, policy) on instances made of ``rand_fixed_draw_box``,
    every second with zero costs.  Solved thresholds on every third case;
    else thresholds at support values (stop at equality), 0, -1 (stop at
    step 0) and above the top atom."""
    for k in range(count):
        inst = rand_tie_instance(rng, KINDS[k % 4], max_n=max_n, box=rand_fixed_draw_box)
        if k % 2:
            inst = with_zero_costs(inst)
        if k % 3 == 0:
            yield k, inst, solved_policy(inst)
            continue
        support = sorted({v for b in inst.boxes for v in b.reward.values()})
        choices = support + [F(0), F(-1), support[-1] + 1]
        yield k, inst, ThresholdPolicy.for_instance(inst, {b.id: rng.choice(choices) for b in inst.boxes})


class TestFixedDrawsMatchReference:
    """A group whose atoms all lift to one rank moves without a hash; the
    reference takes every hash.  On instances built to hit that branch, whole
    summaries must be equal."""

    def test_point_masses_and_supports_below_the_best(self):
        rng = random.Random(103)
        kinds = Counter()
        for k, inst, policy in fixed_draw_cases(rng, 240):
            trials = (1, 2, rng.randint(3, 40))[k % 3]
            seed = rng.randrange(1000)
            assert simulate(inst, policy, trials, seed) == reference_simulate(inst, policy, trials, seed)
            kinds += live_openings(inst, policy, trials, seed)
        assert min(kinds["point"], kinds["below"], kinds["partial"], kinds["spread"]) > 50

    @pytest.mark.parametrize("block", (1, 2, 3))
    def test_small_blocks(self, monkeypatch, block):
        monkeypatch.setattr(strategy, "TRIAL_BLOCK", block)
        rng = random.Random(f"fixed-draw-blocks-{block}")
        for k, inst, policy in fixed_draw_cases(rng, 90):
            trials = rng.randint(1, 12)
            assert simulate(inst, policy, trials, k) == reference_simulate(inst, policy, trials, k)

    def test_block_edges_at_the_real_block_size(self):
        for k, inst, policy in fixed_draw_cases(random.Random(107), 3, max_n=5):
            for trials in (TRIAL_BLOCK - 1, TRIAL_BLOCK, TRIAL_BLOCK + 1):
                assert simulate(inst, policy, trials, k) == reference_simulate(inst, policy, trials, k)


class TestHashCount:
    """``simulate`` hashes exactly the live openings of a box with two or more
    atoms and a top atom above the trial's best: the others cannot change a trial."""

    def test_point_mass_line_takes_no_hash(self):
        values = (0, 3, 1, 6, 6, 2)
        inst = line_instance_of([BoxSpec(f"p{k}", F(k, 7), DiscreteDistribution.point(v))
                                 for k, v in enumerate(values)])
        policy = policy_of(inst, [7] * inst.n)  # every trial opens every box
        summary, calls = counted_simulate(inst, policy, 10**4, 1)
        assert calls == 0
        assert summary.mean == 6 - F(sum(range(len(values))), 7) and summary.stddev == 0.0

    def test_count_is_the_live_openings_that_can_change_a_trial(self):
        rng = random.Random(109)
        cases = [(k, rand_tie_instance(rng, KINDS[k % 4])) for k in range(80)]
        cases = [(k, inst, solved_policy(inst)) for k, inst in cases] + list(fixed_draw_cases(rng, 80))
        for k, inst, policy in cases:
            trials = rng.randint(1, 30)
            summary, calls = counted_simulate(inst, policy, trials, k)
            kinds = live_openings(inst, policy, trials, k)
            assert calls == kinds["partial"] + kinds["spread"]
            assert summary == reference_simulate(inst, policy, trials, k)

    def test_seed_one_simulate_pool(self):
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
        import gen

        total = 0
        for item in gen.simulate_pool(1):
            inst = load_instance(item["text"])
            total += counted_simulate(inst, solved_policy(inst), item["trials"], item["rng_seed"])[1]
        assert total <= 38_723  # every draw took a hash before: 90 503


def scaled_boxes() -> Instance:
    """Four boxes with reward scales 2, 3, 5 and 7, so the common scale 210
    exceeds each box's, and cost denominators 11, 13, 17 and 19 coprime to them."""
    rewards = ([(0, "1/3"), ("1/2", "1/3"), ("3/2", "1/3")], [("1/3", "1/2"), ("4/3", "1/2")],
               [("2/5", "1/4"), ("7/5", "3/4")], [("3/7", "2/3"), ("10/7", "1/3")])
    costs = (F(1, 11), F(2, 13), F(1, 17), F(3, 19))
    return Instance(boxes=tuple(BoxSpec(box_id, cost, DiscreteDistribution.of(reward))
                                for box_id, cost, reward in zip("abcd", costs, rewards)))


# each an atom value; the greedy order is a, d, c, b, and a best of 10/7 reaches c, one of 1/2 reaches b
ATOM_THRESHOLDS = {"a": F(3, 2), "b": F(1, 2), "c": F(10, 7), "d": F(3, 2)}
EPS = F(1, (1 << 70) * ((1 << 70) + 1))  # 1/(d(d+1)) with d = 2^70


class TestIntSetUp:
    """``simulate`` ranks rewards as int keys over the lcm L of the reward scales
    and stops a best key y at threshold z when y >= ceil(z·L)."""

    CASES = {
        "at atoms": ATOM_THRESHOLDS,
        "just above atoms": {i: z + EPS for i, z in ATOM_THRESHOLDS.items()},
        "just below atoms": {i: z - EPS for i, z in ATOM_THRESHOLDS.items()},
        "zero": {**ATOM_THRESHOLDS, "c": F(0)},
        "negative": {**ATOM_THRESHOLDS, "b": F(-1, 3)},
        "all zero": dict.fromkeys(ATOM_THRESHOLDS, F(0)),
        "above every value": dict.fromkeys(ATOM_THRESHOLDS, F(3, 2) + F(1, 11)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_rounding_edges_match_reference(self, case):
        inst = scaled_boxes()
        policy = ThresholdPolicy.for_instance(inst, self.CASES[case])
        cached = [(list(w.keys), w.scale, list(w.probs), w.den) for w in (b.reward.integer for b in inst.boxes)]
        for trials in (1, 2, TRIAL_BLOCK + 1):
            assert simulate(inst, policy, trials, 5) == reference_simulate(inst, policy, trials, 5)
        assert [(w.keys, w.scale, w.probs, w.den) for w in (b.reward.integer for b in inst.boxes)] == cached


class TestFractionBuilds:
    """Set-up, ranks and tally run on ints: one ``simulate`` builds the mean,
    and the variance when there are two trials or more."""

    def test_seed_one_ten_box_tree(self):
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
        import gen

        item = next(item for item in gen.simulate_pool(1) if item["name"].endswith("-10"))
        inst = load_instance(item["text"])
        policy = solved_policy(inst)
        assert inst.n == 10
        for trials, most in ((item["trials"], 2), (2, 2), (1, 1)):
            assert fraction_calls(lambda: simulate(inst, policy, trials, item["rng_seed"]), *FRACTION_BUILDS) <= most

    def test_counter_sees_arithmetic(self):
        a, b = F(1, 3), F(1, 5)
        assert fraction_calls(lambda: a + b * 2, *FRACTION_BUILDS) == 2
        assert fraction_calls(lambda: F(7, 3), *FRACTION_BUILDS) == 1
