"""Engine work on the benchmark's seed-1 pools, pinned as upper bounds.

Each pruning change cut counted work without changing a value, and a
weakened prune shows on wall clock only through a noisy benchmark run.  So
the totals are counted here on ``bench/gen.py``'s pools.  A change that
lowers a total may tighten its pin; one that raises it says so in CHANGES.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

from pandorabox import (ThresholdPolicy, best_fixed_order, best_half_reward_benchmark, evaluate_threshold_exact,
                        line_optimal_value, load_instance, solve_approx, solve_exact, solve_tree)
from pandorabox import core, strategy, tree_solver

from helpers import fraction_calls

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402

# tree_solve_pool(1): capped_step calls, keys over the capped values they
# return, and boxes the exact evaluation takes from the greedy walk
CAPPED_STEPS = 4_920
KAPPA_KEYS = 7_210
EVALUATED_BOXES = 390
# exhaustive_pool(1): oracle states scanned on the DAG documents, approx cells
# reached on the tree+side documents, and IntegerBoxes.step calls of
# best_fixed_order on the fixed-order documents
ORACLE_STATES = 13_770
APPROX_CELLS = 12_971
FIXED_ORDER_STEPS = 10_025


def test_tree_pool_work(monkeypatch):
    steps = keys = walked = 0
    step, walk = tree_solver.capped_step, strategy._greedy_walk

    def counted_step(box, after):
        nonlocal steps, keys
        z, kappa = step(box, after)
        steps, keys = steps + 1, keys + len(kappa.keys)
        return z, kappa

    def counted_walk(instance, policy):
        nonlocal walked
        for box_id in walk(instance, policy):
            walked += 1
            yield box_id

    monkeypatch.setattr(tree_solver, "capped_step", counted_step)
    for item in gen.tree_solve_pool(1):
        instance = load_instance(item["text"])
        solution = solve_tree(instance)
        policy = ThresholdPolicy.for_instance(instance, solution.thresholds, solution.order.ids())
        with monkeypatch.context() as m:  # solve_tree walks every box for its order; count the evaluation's walk
            m.setattr(strategy, "_greedy_walk", counted_walk)
            evaluate_threshold_exact(instance, policy)
    assert steps <= CAPPED_STEPS
    assert keys <= KAPPA_KEYS
    assert walked <= EVALUATED_BOXES


def test_exhaustive_pool_work(monkeypatch):
    states = cells = steps = 0
    step = core.IntegerBoxes.step

    def counted_step(self, *args):
        nonlocal steps
        steps += 1
        return step(self, *args)

    for item in gen.exhaustive_pool(1):
        instance = load_instance(item["text"])
        if item["kind"] == "dag":
            states += len(solve_exact(instance)._values)
        elif item["kind"] == "approx":
            cells += len(solve_approx(instance).values)
        else:
            with monkeypatch.context() as m:
                m.setattr(core.IntegerBoxes, "step", counted_step)
                best_fixed_order(instance)
    assert states <= ORACLE_STATES
    assert cells <= APPROX_CELLS
    assert steps <= FIXED_ORDER_STEPS


def test_exhaustive_grid_hashes_no_fraction():
    # integer_boxes builds the grid on ints, so no engine's set-up hashes a Fraction
    pool = [(item["kind"], load_instance(item["text"])) for item in gen.exhaustive_pool(1)]
    lines = [load_instance(item["text"]) for item in gen.tree_solve_pool(1) if item["shape"] == "line"]
    assert lines

    def run():
        for kind, instance in pool:
            solve_exact(instance)
            if kind == "approx":
                solve_approx(instance)
            elif kind == "fixed":
                best_fixed_order(instance)
                best_half_reward_benchmark(instance)
        for instance in lines:
            line_optimal_value(instance.boxes)

    assert fraction_calls(run, "__hash__") == 0
