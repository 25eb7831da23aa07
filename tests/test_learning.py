from __future__ import annotations

import hashlib
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from pandorabox import (
    BoxSpec,
    CapExceededError,
    ConstraintGraph,
    ConstraintKind,
    DiscreteDistribution,
    Instance,
    LearningConfig,
    ValidationError,
    dump_instance,
    guard_line,
    learn_and_solve,
    learn_model,
    sample_bound,
    solve_tree,
)
from pandorabox.learning import (
    MAX_SAMPLES,
    _binomial,
    _log_pmf_ratio,
    _multinomial,
    _uniforms,
    round_down_to_grid,
)

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
        assert sample_bound(4, F(1, 4), F(1, 10)) == expected

    def test_monotone_in_epsilon(self):
        bounds = [sample_bound(5, F(num, 100), F(1, 10)) for num in (5, 10, 20, 40)]
        assert bounds == sorted(bounds, reverse=True)

    def test_constant_knob(self):
        base = sample_bound(5, F(1, 10), F(1, 10), constant=1.0)
        doubled = sample_bound(5, F(1, 10), F(1, 10), constant=2.0)
        assert doubled >= 2 * base - 1

    def test_epsilon_below_the_float_range_exceeds_the_cap(self):
        for eps in (F(1, 10**200), F(1, 10**400)):
            with pytest.raises(CapExceededError):
                sample_bound(3, eps, F(1, 10))

    def test_delta_below_the_float_range_is_finite(self):
        # log(n / (eps * delta)) read exactly: 10**-400 adds 400 log 10 to it
        n, eps = 3, 0.1
        confidence = math.log(n / eps) + 400 * math.log(10)
        expected = math.ceil(n / eps**2 * math.log(1 / eps) ** 2 * math.log(n / eps) * confidence)
        got = sample_bound(n, F(1, 10), F(1, 10**400))
        assert abs(got - expected) <= 1
        assert got > sample_bound(n, F(1, 10), F(1, 10**300))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            sample_bound(0, F(1, 10), F(1, 10))
        with pytest.raises(ValidationError):
            sample_bound(3, F(2), F(1, 10))


def binomial_pmf(n: int, p: Fraction, lo: int, hi: int) -> list[float]:
    """The Binomial(n, p) pmf at k = lo .. hi: comb(n, k) a^k (d - a)^(n - k) / d^n
    for p = a/d, exact in ints and rounded once (a Fraction's gcd at n = 64 000 is slow)."""
    a, d = p.numerator, p.denominator
    weight = math.comb(n, lo) * a**lo * (d - a) ** (n - lo)
    scale = d**n
    shift = max(0, scale.bit_length() - 128)  # both sides to 128 bits: one small division each
    pmf = []
    for k in range(lo, hi + 1):
        pmf.append((weight >> shift) / (scale >> shift))
        weight = weight * (n - k) * a // ((k + 1) * (d - a))
    return pmf


class TestSampler:
    # n·p below 10 (geometric skips), at or above it (BTRS), and p above 1/2 (n minus the flipped draw)
    CASES = [(30, F(3, 10)), (10, F(1, 2)), (2677, F(1, 3)), (64000, F(1, 5)), (12, F(4, 5)), (2677, F(2, 3))]

    @pytest.mark.parametrize("n, p", CASES)
    def test_binomial_matches_the_exact_pmf(self, n, p):
        draws = 20_000
        uniforms = _uniforms(f"test|{n}|{p}".encode())
        tally = Counter(_binomial(n, p, uniforms) for _ in range(draws))
        mean, var = n * p, n * p * (1 - p)
        got_mean = F(sum(k * c for k, c in tally.items()), draws)
        got_var = sum(c * (k - got_mean) ** 2 for k, c in tally.items()) / (draws - 1)
        assert abs(got_mean - mean) < 5 * math.sqrt(var / draws)
        assert abs(got_var / var - 1) < 5 * math.sqrt(2 / draws)
        # chi-square over consecutive bins of at least 20 expected draws; the mass beyond 10
        # standard deviations (below 1e-20) joins the end bins
        spread = 10 * math.isqrt(math.ceil(var)) + 10
        lo, hi = max(0, math.floor(mean) - spread), min(n, math.ceil(mean) + spread)
        assert lo <= min(tally) and max(tally) <= hi
        bins, expected, observed = [], 0.0, 0
        for k, mass in zip(range(lo, hi + 1), binomial_pmf(n, p, lo, hi)):
            expected, observed = expected + mass * draws, observed + tally[k]
            if expected >= 20:
                bins.append((expected, observed))
                expected, observed = 0.0, 0
        last_expected, last_observed = bins.pop()
        bins.append((last_expected + expected, last_observed + observed))
        chi2 = sum((o - e) ** 2 / e for e, o in bins)
        df = len(bins) - 1
        assert df >= 5
        assert chi2 < df + 5 * math.sqrt(2 * df), (chi2, df)

    @pytest.mark.parametrize("n, p", [(20, F(1, 2)), (2677, F(1, 3)), (64000, F(1, 5)), (10**12, F(1, 7)),
                                      (MAX_SAMPLES, F(1, 3)), (MAX_SAMPLES, F(1, 10**15))])
    def test_log_pmf_ratio_is_exact_to_1e_9(self, n, p):
        # BTRS's acceptance test against log of the exact ratio comb(n, k) q^k (1-q)^(n-k) / (same at m),
        # q the float the draw uses; lgamma-based log k! would be off by about 10^5 at n near 2^63
        q = float(p)
        exact_q = F(q)
        r = exact_q / (1 - exact_q)
        m = math.floor((n + 1) * q)
        for k in range(max(0, m - 40), min(n, m + 40) + 1, 3):
            ratio = r ** (k - m)
            for i in range(min(k, m) + 1, max(k, m) + 1):  # comb(n, i) / comb(n, i - 1) = (n - i + 1) / i
                ratio = ratio * F(n - i + 1, i) if k > m else ratio / F(n - i + 1, i)
            exact = math.log(ratio.numerator) - math.log(ratio.denominator)
            assert abs(_log_pmf_ratio(n, q, k, m) - exact) < 1e-9, (k, m)

    def test_multinomial_counts_are_ints_in_range_summing_to_n(self):
        rng = random.Random(3)
        for trial in range(300):
            probs = tuple(rand_probs(rng, rng.randint(1, 6)))
            if trial % 5 == 0:  # a probability far below the float range, and its complement
                probs = (F(1, 10**400), 1 - F(1, 10**400))
            n = rng.choice([0, 1, 2, 7, 100, 2677, 10**6, 10**12, MAX_SAMPLES])
            counts = _multinomial(n, probs, _uniforms(b"multinomial|%d" % trial))
            assert len(counts) == len(probs) and sum(counts) == n
            assert all(type(c) is int and 0 <= c <= n for c in counts)

    def test_draws_are_uniforms_with_53_bits(self):
        uniforms = _uniforms(b"7|learn|a")
        values = [next(uniforms) for _ in range(1000)]
        assert all(0 <= u < 1 and (u * 2**53).is_integer() for u in values)
        assert values[3] == (int.from_bytes(hashlib.sha256(b"7|learn|a|3").digest()[:8], "big") >> 11) * 2.0**-53


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

    def test_an_atom_no_sample_draws_is_left_out(self):
        box = BoxSpec("a", F(0), DiscreteDistribution.of([(F(0), F(999, 1000)), (F(1), F(1, 1000))]))
        config = LearningConfig(F(1, 4), F(1, 10), samples_per_box=3)
        model = learn_model(Instance(boxes=(box,)), config, rng_seed=1)
        assert model.counts == {"a": ((0, 3),)}
        assert model.distribution("a").atoms == ((F(0), F(1)),)

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

    def test_equal_in_a_fresh_process_and_fixed_by_the_stream(self, tmp_path):
        # the counts read only u64("seed|learn|box id", "|k"): no installed library's generator
        inst = unit_tree(random.Random(19), 4)
        path = tmp_path / "inst.json"
        path.write_text(dump_instance(inst))
        config = LearningConfig(F(1, 10), F(1, 10), samples_per_box=2677)
        code = ("import sys\nfrom fractions import Fraction as F\n"
                "from pandorabox import LearningConfig, learn_model, load_instance\n"
                "with open(sys.argv[1]) as f:\n    inst = load_instance(f.read())\n"
                "config = LearningConfig(F(1, 10), F(1, 10), samples_per_box=2677)\n"
                "print(repr(learn_model(inst, config, rng_seed=3).counts))")
        out = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == repr(learn_model(inst, config, rng_seed=3).counts)
        box = BoxSpec("a", F(0), DiscreteDistribution.of([(F(0), F(1, 3)), (F(1, 2), F(1, 3)), (F(1), F(1, 3))]))
        config = LearningConfig(F(1, 10), F(1, 10), samples_per_box=1000)
        model = learn_model(Instance(boxes=(box,)), config, rng_seed=1)
        assert model.counts == {"a": ((F(0), 307), (F(1, 2), 349), (F(1), 344))}

    def test_counts_follow_the_box_id_not_its_position(self):
        # permuting the boxes, or putting a free zero box in front, leaves every box's counts
        rng = random.Random(37)
        config = LearningConfig(F(1, 10), F(1, 10), samples_per_box=500)
        free = BoxSpec("free", F(0), DiscreteDistribution.point(0))
        for trial in range(10):
            inst = unit_tree(rng, rng.randint(2, 5))
            counts = learn_model(inst, config, rng_seed=trial).counts
            boxes = list(inst.boxes)
            rng.shuffle(boxes)
            permuted = Instance(boxes=tuple(boxes), constraint=inst.constraint)
            assert learn_model(permuted, config, rng_seed=trial).counts == counts
            extended = Instance(boxes=(free, *inst.boxes),
                                constraint=ConstraintGraph(ConstraintKind.FOREST, inst.constraint.edges))
            with_free = learn_model(extended, config, rng_seed=trial).counts
            assert with_free.pop("free") == ((F(0), 500),)
            assert with_free == counts

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
        assert config.sample_count(5) == sample_bound(5, F(1, 10), F(1, 10))


def loaded_modules(code: str, *args: str) -> set[str]:
    """Names in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    code += "\nprint(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, check=True)
    return set(out.stdout.splitlines()[-1].split())


def cli_modules(tmp_path, *argv: str, instance: Instance | None = None) -> set[str]:
    """Modules loaded by ``python -m pandorabox.cli ARGV``; every command but ``example`` reads
    ``--input PATH`` on ``instance``, the guard line by default."""
    if argv[0] != "example":
        path = tmp_path / "inst.json"
        path.write_text(dump_instance(instance or guard_line()))
        argv = (*argv, "--input", str(path))
    code = ("import runpy, sys\nsys.argv = ['pandorabox', *sys.argv[1:]]\ntry:\n"
            "    runpy.run_module('pandorabox.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n    assert not exc.code, exc.code")
    return loaded_modules(code, *argv)


def test_cli_import_leaves_numpy_out(tmp_path):
    # each command imports only the solver modules it runs: no solver imports the piecewise reference step
    skipped = {"pandorabox.oracle", "pandorabox.approx", "pandorabox.learning", "pandorabox.instances",
               "pandorabox.piecewise", "numpy", "dataclasses", "inspect"}
    for argv in (["solve"], ["simulate", "--trials", "5", "--seed", "1"]):
        loaded = cli_modules(tmp_path, *argv)
        assert "pandorabox.tree_solver" in loaded
        assert not loaded & skipped, argv
    # and no command loads numpy: learning draws from the package's own stream
    for argv in (["evaluate", "--set", "g1"], ["oracle"], ["fixed-order"], ["approx", "--verify"],
                 ["example", "guard-line"]):
        assert "numpy" not in cli_modules(tmp_path, *argv), argv
    loaded = cli_modules(tmp_path, "learn", "--epsilon", "1/4", "--delta", "1/4", "--seed", "1",
                         instance=unit_tree(random.Random(1), 4))
    assert "pandorabox.learning" in loaded and "numpy" not in loaded


def test_cli_learns_at_the_sample_cap(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(dump_instance(unit_tree(random.Random(43), 4)))
    argv = ["learn", "--input", str(path), "--epsilon", "1/10", "--delta", "1/10", "--seed", "7",
            "--samples", str(MAX_SAMPLES)]
    start = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "pandorabox.cli", *argv], capture_output=True, text=True)
    assert time.perf_counter() - start < 2
    assert res.returncode == 0 and res.stderr == ""
    assert f"N={MAX_SAMPLES}" in res.stdout.splitlines()


def test_cli_oracle_leaves_the_tree_solver_out(tmp_path):
    # the exhaustive engines score fixed orders themselves, so not even the line DP loads
    for command in ("oracle", "fixed-order"):
        loaded = cli_modules(tmp_path, command)
        assert "pandorabox.oracle" in loaded
        skipped = {"pandorabox.tree_solver", "pandorabox.line_solver", "pandorabox.approx", "pandorabox.learning"}
        assert not loaded & skipped, command


def test_cli_approx_leaves_the_threshold_sampler_out(tmp_path):
    # the approx policy is valued exactly, so neither the sampler nor the greedy heap loads
    loaded = cli_modules(tmp_path, "approx", "--verify")
    assert "pandorabox.approx" in loaded
    assert not loaded & {"pandorabox.strategy", "hashlib", "heapq"}


def test_bare_package_import_loads_no_submodule():
    loaded = loaded_modules("import sys, pandorabox")
    assert "pandorabox" in loaded
    assert not {m for m in loaded if m.startswith("pandorabox.")}


def test_no_submodule_imports_typing():
    # without site (-S), which may import typing itself: the package's own imports alone
    package = Path(__file__).resolve().parents[1] / "src" / "pandorabox"
    names = sorted(path.stem for path in package.glob("*.py") if path.stem != "__init__")
    code = "import sys\nfor name in sys.argv[1:]:\n    __import__(f'pandorabox.{name}')\nprint(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", code, *names], capture_output=True, text=True, check=True,
                         env=env)
    loaded = set(out.stdout.split())
    assert {f"pandorabox.{name}" for name in names} <= loaded and "pandorabox.cli" in loaded
    assert "typing" not in loaded
