from __future__ import annotations

import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from pandorabox import (
    BoxSpec,
    CapExceededError,
    ConstraintGraph,
    DiscreteDistribution,
    Instance,
    LearningConfig,
    ValidationError,
    learn_and_solve,
    learn_model,
    sample_bound,
    solve_tree,
)
from pandorabox.learning import round_down_to_grid

from helpers import check_line_submartingale, rand_probs

F = Fraction


def unit_tree(rng: random.Random, n: int, denominators=(2, 4, 5, 10, 20)) -> Instance:
    """Random tree with rewards and costs inside [0, 1]."""
    boxes = []
    for i in range(n):
        k = rng.randint(1, 3)
        den = rng.choice(denominators)
        numerators = sorted(rng.sample(range(0, den + 1), k))
        probs = rand_probs(rng, k)
        dist = DiscreteDistribution.of([(F(num, den), p) for num, p in zip(numerators, probs)])
        cost = F(rng.randint(0, 4), 20)
        boxes.append(BoxSpec(f"b{i:02d}", cost, dist))
    edges = tuple((boxes[rng.randrange(i)].id, boxes[i].id) for i in range(1, n))
    kind = "tree" if n > 1 else "unconstrained"
    return Instance(boxes=tuple(boxes), constraint=ConstraintGraph(kind, edges))


class TestSampleBound:
    def test_tree_formula_value(self):
        n, eps, dlt = 4, 0.25, 0.1
        expected = math.ceil(
            n / eps**2 * math.log(1 / eps) ** 2 * math.log(n / eps) * math.log(n / (eps * dlt))
        )
        assert sample_bound(4, F(1, 4), F(1, 10), "tree") == expected

    def test_general_formula_value(self):
        n, eps, dlt = 4, 0.25, 0.1
        expected = math.ceil(n**3 / eps**3 * math.log(n / (eps * dlt)))
        assert sample_bound(4, F(1, 4), F(1, 10), "general") == expected

    def test_monotone_in_epsilon(self):
        for mode in ("tree", "general"):
            bounds = [
                sample_bound(5, F(num, 100), F(1, 10), mode) for num in (5, 10, 20, 40)
            ]
            assert bounds == sorted(bounds, reverse=True)

    def test_general_dominates_tree_for_large_n(self):
        for n in (8, 16, 64, 256):
            assert sample_bound(n, F(1, 10), F(1, 10), "general") >= sample_bound(
                n, F(1, 10), F(1, 10), "tree"
            )

    def test_constant_knob(self):
        base = sample_bound(5, F(1, 10), F(1, 10), "tree", constant=1.0)
        doubled = sample_bound(5, F(1, 10), F(1, 10), "tree", constant=2.0)
        assert doubled >= 2 * base - 1

    def test_epsilon_below_the_float_range_exceeds_the_cap(self):
        for eps in (F(1, 10**200), F(1, 10**400)):
            for mode in ("tree", "general"):
                with pytest.raises(CapExceededError):
                    sample_bound(3, eps, F(1, 10), mode)

    def test_delta_below_the_float_range_is_finite(self):
        # log(n / (eps * delta)) read exactly: 10**-400 adds 400 log 10 to it
        n, eps = 3, 0.1
        confidence = math.log(n / eps) + 400 * math.log(10)
        expected = math.ceil(n / eps**2 * math.log(1 / eps) ** 2 * math.log(n / eps) * confidence)
        got = sample_bound(n, F(1, 10), F(1, 10**400), "tree")
        assert abs(got - expected) <= 1
        assert got > sample_bound(n, F(1, 10), F(1, 10**300), "tree")

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            sample_bound(0, F(1, 10), F(1, 10))
        with pytest.raises(ValidationError):
            sample_bound(3, F(2), F(1, 10))
        with pytest.raises(ValidationError):
            sample_bound(3, F(1, 10), F(1, 10), mode="magic")


class TestLearnModel:
    def test_on_grid_point_mass_is_exact(self):
        box = BoxSpec("a", F(0), DiscreteDistribution.point(F(1, 2)))
        inst = Instance(boxes=(box,))
        config = LearningConfig(F(1, 4), F(1, 10), samples_per_box=50)
        model = learn_model(inst, config, rng_seed=1)
        assert model.distribution("a").atoms == ((F(1, 2), F(1)),)

    def test_off_grid_point_mass_rounds_down(self):
        box = BoxSpec("a", F(0), DiscreteDistribution.point(F(3, 10)))
        inst = Instance(boxes=(box,))
        config = LearningConfig(F(1, 4), F(1, 10), samples_per_box=50)
        model = learn_model(inst, config, rng_seed=1)
        assert model.distribution("a").atoms == ((F(1, 4), F(1)),)

    def test_probabilities_are_exact_counts(self):
        rng = random.Random(5)
        inst = unit_tree(rng, 4)
        config = LearningConfig(F(1, 10), F(1, 10), samples_per_box=200)
        model = learn_model(inst, config, rng_seed=9)
        for box in inst.boxes:
            dist = model.distribution(box.id)
            assert sum(dist.probs()) == 1
            assert all(p.denominator <= 200 for p in dist.probs())
            assert all(
                (v / F(1, 10)).denominator == 1 for v in dist.values()
            )  # on the grid

    def test_close_to_truth_at_large_n(self):
        box = BoxSpec(
            "a",
            F(0),
            DiscreteDistribution.of([(F(0), F(1, 3)), (F(1, 2), F(1, 3)), (F(1), F(1, 3))]),
        )
        inst = Instance(boxes=(box,))
        config = LearningConfig(F(1, 10), F(1, 10), samples_per_box=100_000)
        model = learn_model(inst, config, rng_seed=13)
        learned = dict(model.distribution("a").atoms)
        tv = sum(abs(learned.get(v, F(0)) - F(1, 3)) for v in (F(0), F(1, 2), F(1))) / 2
        assert tv <= F(1, 50)

    def test_reproducible_and_seed_sensitive(self):
        rng = random.Random(17)
        inst = unit_tree(rng, 3)
        config = LearningConfig(F(1, 10), F(1, 10), samples_per_box=100)
        a = learn_model(inst, config, rng_seed=3)
        b = learn_model(inst, config, rng_seed=3)
        assert a == b

    def test_out_of_regime_rejected(self):
        box = BoxSpec("a", F(0), DiscreteDistribution.point(2))
        inst = Instance(boxes=(box,))
        config = LearningConfig(F(1, 10), F(1, 10), samples_per_box=10)
        with pytest.raises(ValidationError, match="outside"):
            learn_model(inst, config, rng_seed=1)

    def test_round_down_to_grid(self):
        assert round_down_to_grid(F(3, 10), F(1, 4)) == F(1, 4)
        assert round_down_to_grid(F(1, 2), F(1, 4)) == F(1, 2)
        assert round_down_to_grid(F(0), F(1, 4)) == 0


class TestLearnAndSolve:
    def test_deterministic_rewards_give_zero_gap(self):
        boxes = (
            BoxSpec("a", F(1, 10), DiscreteDistribution.point(F(1, 2))),
            BoxSpec("b", F(0), DiscreteDistribution.point(F(9, 10))),
        )
        inst = Instance(
            boxes=boxes, constraint=ConstraintGraph("tree", (("a", "b"),))
        )
        config = LearningConfig(F(1, 10), F(1, 10), samples_per_box=20)
        _, report = learn_and_solve(inst, config, rng_seed=2)
        assert report.gap == 0
        assert report.true_opt == solve_tree(inst).value

    def test_single_on_grid_box(self):
        box = BoxSpec("a", F(1, 10), DiscreteDistribution.point(F(7, 10)))
        inst = Instance(boxes=(box,))
        config = LearningConfig(F(1, 10), F(1, 10), samples_per_box=5)
        _, report = learn_and_solve(inst, config, rng_seed=4)
        assert report.gap == 0

    def test_gap_nonnegative_and_policy_covers_boxes(self):
        rng = random.Random(23)
        for trial in range(15):
            inst = unit_tree(rng, rng.randint(1, 5))
            config = LearningConfig(F(1, 10), F(1, 10), samples_per_box=500)
            policy, report = learn_and_solve(inst, config, rng_seed=trial)
            assert report.gap >= 0
            assert set(policy.thresholds) == {b.id for b in inst.boxes}

    def test_submartingale_holds_on_learned_instance(self):
        rng = random.Random(29)
        for trial in range(10):
            inst = unit_tree(rng, rng.randint(1, 5))
            config = LearningConfig(F(1, 5), F(1, 10), samples_per_box=60)
            model = learn_model(inst, config, rng_seed=trial)
            empirical = model.empirical_instance(inst)
            # linearize and check on the learned instance's own optimum
            sol = solve_tree(empirical)
            ordered = [empirical.box_map[i] for i in sol.order.ids()]
            check_line_submartingale(ordered)


class TestLearningConfig:
    def test_grid_step_must_divide_one(self):
        with pytest.raises(ValidationError, match="divide"):
            LearningConfig(F(3, 10), F(1, 10))

    def test_defaults(self):
        config = LearningConfig(F(1, 10), F(1, 10))
        assert config.sample_count(5) == sample_bound(5, F(1, 10), F(1, 10), "tree")


def test_cli_import_leaves_numpy_out():
    # numpy is imported inside learn_model, so every CLI command but learn
    # skips its import; no solver imports the piecewise reference step
    code = "import sys, pandorabox.cli; print([m in sys.modules for m in ('numpy', 'pandorabox.piecewise')])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[False, False]"
