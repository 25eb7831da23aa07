"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figures (run with -s to see them inline)."""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from fractions import Fraction


from pandorabox import (
    BoxSpec,
    ConstraintGraph,
    DiscreteDistribution,
    Instance,
    LearningConfig,
    ThresholdPolicy,
    best_fixed_order,
    best_half_reward_benchmark,
    dump_instance,
    evaluate_threshold_exact,
    learn_and_solve,
    line_optimal_value,
    simulate,
    solve_exact,
    solve_line,
    solve_tree,
    verify_guarantee,
    weitzman_reservation,
)
from pandorabox.instances import adaptivity_gap, figure1, guard_line

from helpers import (
    line_instance_of,
    rand_box,
    rand_forest_of_paths,
    rand_knapsack_side,
    rand_line_boxes,
    rand_tree_instance,
    with_side,
)

F = Fraction


def report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:2d}] PASS: {message}")


def test_criterion_1_oracle_equivalence():
    rng = random.Random(20240617)
    start = time.time()
    for _ in range(200):
        boxes = rand_line_boxes(rng, rng.randint(1, 8))
        assert solve_line(boxes).value == solve_exact(line_instance_of(boxes)).value
    for _ in range(200):
        inst = rand_forest_of_paths(rng, max_paths=3, max_total=9)
        assert solve_tree(inst).value == solve_exact(inst).value
    for _ in range(200):
        inst = rand_tree_instance(rng, rng.randint(1, 9))
        assert solve_tree(inst).value == solve_exact(inst).value
    elapsed = time.time() - start
    assert elapsed < 120
    report(1, f"600 instances (200 lines / 200 forests / 200 trees) exactly "
              f"match the exhaustive oracle in {elapsed:.1f}s")


def test_criterion_2_weitzman_recovery():
    rng = random.Random(20240618)
    for _ in range(40):
        k = rng.randint(1, 6)
        root = BoxSpec("root", F(0), DiscreteDistribution.point(0))
        leaves = [rand_box(rng, i) for i in range(k)]
        star = Instance(
            boxes=(root, *leaves),
            constraint=ConstraintGraph("tree", tuple(("root", l.id) for l in leaves)),
        )
        sol = solve_tree(star)
        zetas = {l.id: weitzman_reservation(l) for l in leaves}
        assert all(sol.thresholds[l.id] == zetas[l.id] for l in leaves)
        assert sol.order.ids() == ("root",) + tuple(
            sorted(zetas, key=lambda i: (-zetas[i], i))
        )
        unconstrained = Instance(boxes=tuple(leaves))
        assert sol.value == solve_exact(star).value == solve_exact(unconstrained).value
    report(2, "40 free-root stars reproduce descending reservation order and "
              "the unconstrained optimum exactly")


def test_criterion_3_nonfixed_exploration_instance():
    start = time.time()
    gaps = []
    for eps in (F(13, 10), F(3, 2), F(19, 10)):
        inst = figure1(eps)
        res = solve_exact(inst)
        assert res.action((), F(0)) == "A"
        high = res.action(("A",), F(5, 2))
        low = res.action(("A",), F(0))
        assert high != low
        _, fixed_value = best_fixed_order(inst)
        assert res.value > fixed_value
        gaps.append(res.value - fixed_value)
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(3, f"diamond instance: adaptive order flips (B/C) and beats every "
              f"fixed order by {[str(g) for g in gaps]} in {elapsed:.2f}s")


def test_criterion_4_threshold_structure_invariants():
    rng = random.Random(20240619)
    lines = 500
    for _ in range(lines):
        boxes = rand_line_boxes(rng, rng.randint(1, 6))
        sol = solve_line(boxes)
        z = sol.zs
        d = sol.horizons
        # monotone append
        appended = solve_line(boxes + [rand_box(rng, 88)]).zs
        assert all(b >= a for a, b in zip(z, appended))
        # prefix dependence through the horizon
        for i in range(1, len(boxes) + 1):
            window = boxes[i - 1 : d[i - 1]]
            assert solve_line(window).zs[0] == z[i - 1]
        # fixed point, minimality, Lipschitz
        for i, zi in enumerate(z, start=1):
            if zi >= 0:
                assert sol.at(zi, i) == zi
            for x in sol.grid:
                if x < zi:
                    assert sol.at(x, i) > x
        for i in range(1, len(boxes) + 2):
            for a, b in zip(sol.grid, sol.grid[1:]):
                diff = sol.at(b, i) - sol.at(a, i)
                assert F(0) <= diff <= b - a
    report(4, f"{lines} random lines: monotone append, horizon windows, "
              f"smallest-fixed-point minimality and 1-Lipschitz tables hold exactly")


def _bushy_tree(rng: random.Random, n: int) -> Instance:
    boxes = tuple(rand_box(rng, i) for i in range(n))
    # shallow trees have many order-closed sets, which makes the
    # exhaustive dominance check meaningful
    edges = tuple(
        (boxes[rng.randrange(min(i, 3))].id, boxes[i].id) for i in range(1, n)
    )
    kind = "tree" if n > 1 else "unconstrained"
    return Instance(boxes=boxes, constraint=ConstraintGraph(kind, edges))


def test_criterion_5_dominates_every_feasible_set():
    rng = random.Random(20240620)
    total_sets = 0
    for trial in range(100):
        n = rng.randint(1, 12)
        inst = _bushy_tree(rng, n) if trial % 2 else rand_tree_instance(rng, n)
        inst = with_side(inst, rand_knapsack_side(rng, [b.id for b in inst.boxes]))
        rep = verify_guarantee(inst)
        assert rep.set_margin >= 0
        total_sets += rep.feasible_sets
    report(5, f"100 tree+knapsack instances: sweep policy dominates all "
              f"{total_sets} enumerated feasible sets")


def test_criterion_6_half_reward_benchmark():
    rng = random.Random(20240621)
    for _ in range(100):
        inst = rand_tree_instance(rng, rng.randint(1, 10))
        inst = with_side(inst, rand_knapsack_side(rng, [b.id for b in inst.boxes]))
        rep = verify_guarantee(inst)
        assert rep.benchmark_margin is not None and rep.benchmark_margin >= 0
    exhaustive = 0
    for _ in range(60):
        inst = rand_tree_instance(rng, rng.randint(1, 4))
        if rng.random() < 0.7:
            inst = with_side(inst, rand_knapsack_side(rng, [b.id for b in inst.boxes]))
        rep = verify_guarantee(inst)
        supremum = best_half_reward_benchmark(inst)
        assert rep.executed_value >= supremum
        exhaustive += 1
    report(6, f"100 instances beat half-max-minus-cost of the oracle policy; "
              f"{exhaustive} small instances beat the sup over all Markov policies")


def test_criterion_7_adaptivity_gap_scaling():
    for p in (F(1, 5), F(1, 10)):
        inst = adaptivity_gap(p)
        n = inst.n
        adaptive = line_optimal_value(inst.boxes)
        assert adaptive >= F(99, 100) / (2 * p)
        jackpot = 1 / (p * p)
        cost = 1 - p / 2
        best_value = F(0)
        miss = F(1)
        for k in range(1, n + 1):
            miss *= 1 - p * p
            value = jackpot * (1 - miss) - k * cost
            if value > best_value:
                best_value = value
        assert best_value <= F(1, 2)
        ratio = adaptive / best_value
        assert ratio >= F(9, 10) / p
        report(7, f"p={p}: n={n}, adaptive={float(adaptive):.4f} >= {float(F(99,100)/(2*p)):.4f}, "
                  f"best fixed set={float(best_value):.4f} <= 1/2, ratio={float(ratio):.2f} >= {float(F(9,10)/p):.2f}")


def test_criterion_8_learning_gap():
    rng = random.Random(20240622)
    config = LearningConfig(F(1, 10), F(1, 10))
    sample_size = config.sample_count(5)
    start = time.time()
    exceeded = 0
    trials = 100
    from test_learning import unit_tree

    for trial in range(trials):
        inst = unit_tree(rng, 5)
        _, rep = learn_and_solve(inst, config, rng_seed=trial)
        assert rep.gap >= 0
        if rep.gap > F(1, 10):
            exceeded += 1
    elapsed = time.time() - start
    allowed = int(F(1, 10) * trials) + 5
    assert exceeded <= allowed
    assert elapsed < 300
    report(8, f"{trials} learned 5-box trees at N={sample_size}/box: gap > 0.1 in "
              f"{exceeded} trials (allowed {allowed}), {elapsed:.1f}s")


def test_criterion_9_simulator_calibration():
    rng = random.Random(20240623)
    trials = 10_000
    calibrated = 0
    pairs = 100
    for i in range(pairs):
        inst = rand_tree_instance(rng, rng.randint(1, 3))
        sol = solve_tree(inst)
        policy = ThresholdPolicy.for_instance(inst, sol.thresholds, sol.order.ids())
        exact = evaluate_threshold_exact(inst, policy)
        summary = simulate(inst, policy, trials=trials, rng_seed=31_000 + i)
        if summary.stddev == 0.0:
            calibrated += summary.mean == exact
        else:
            bound = 4 * summary.stddev / (trials ** 0.5)
            calibrated += abs(float(summary.mean - exact)) <= bound
    assert calibrated >= 95
    report(9, f"{calibrated}/{pairs} simulations within 4 sigma/sqrt(trials) "
              f"of the exact value at {trials} trials")


def test_criterion_10_cli_determinism(tmp_path):
    guard_path = tmp_path / "guard.json"
    guard_path.write_text(dump_instance(guard_line()))
    learn_path = tmp_path / "learnable.json"
    learn_path.write_text(
        json.dumps(
            {
                "boxes": [
                    {"id": "a", "cost": "1/10", "reward": [
                        {"value": "0", "prob": "1/2"}, {"value": "1", "prob": "1/2"}]},
                ],
                "constraint": {"kind": "unconstrained", "edges": [], "roots": []},
            }
        )
    )
    commands = [
        ["solve", "--input", str(guard_path)],
        ["evaluate", "--input", str(guard_path), "--set", "g1,g2"],
        ["simulate", "--input", str(guard_path), "--trials", "300", "--seed", "12"],
        ["oracle", "--input", str(guard_path)],
        ["fixed-order", "--input", str(guard_path)],
        ["approx", "--input", str(guard_path), "--verify"],
        ["learn", "--input", str(learn_path), "--epsilon", "1/10", "--delta", "1/10",
         "--seed", "3", "--samples", "200"],
        ["example", "figure1"],
        ["example", "adaptivity-gap", "--p", "1/4", "--n", "30"],
        ["example", "guard-line"],
    ]
    for cmd in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "pandorabox.cli", *cmd],
                capture_output=True,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0, (cmd, runs[0].stderr)
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stderr == runs[1].stderr
    report(10, f"{len(commands)} CLI commands byte-identical across repeated runs")


def test_runtime_note_tree_solver_scaling():
    """Qualitative polynomial-time check: solve_tree stays near-quadratic in
    the box count on random recursive trees (support size fixed)."""

    def rec_tree(seed: int, n: int) -> Instance:
        rng = random.Random(seed)
        boxes = tuple(
            BoxSpec(
                f"b{i:03d}",
                F(rng.randint(0, 4), 2),
                DiscreteDistribution.of(
                    [(rng.randint(0, 6), F(1, 2)), (rng.randint(7, 12), F(1, 2))]
                ),
            )
            for i in range(n)
        )
        edges = tuple((boxes[rng.randrange(i)].id, boxes[i].id) for i in range(1, n))
        return Instance(boxes=boxes, constraint=ConstraintGraph("tree", edges))

    timings = {}
    for n in (40, 80, 160):
        best = float("inf")
        for rep in range(3):
            inst = rec_tree(5 + rep, n)
            t0 = time.perf_counter()
            solve_tree(inst)
            best = min(best, time.perf_counter() - t0)
        timings[n] = max(best, 1e-3)
    ratio = timings[160] / timings[40]
    assert ratio <= 40, timings  # quadratic predicts 16x, cubic 64x
    print(f"[scaling note] solve_tree: {timings} -> x4 boxes gives x{ratio:.1f} time")
