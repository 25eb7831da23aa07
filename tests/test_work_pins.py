"""Engine work on the benchmark's seed-1 pools, pinned as upper bounds.

Each pruning change cut counted work without changing a value, and a
weakened prune shows on wall clock only through a noisy benchmark run.  So
the totals are counted here on ``bench/gen.py``'s pools.  A change that
lowers a total may tighten its pin; one that raises it says so in CHANGES.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

from pandorabox import ThresholdPolicy, evaluate_threshold_exact, load_instance, solve_tree
from pandorabox import strategy, tree_solver

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402

# tree_solve_pool(1): capped_step calls, keys over the capped values they
# return, and boxes the exact evaluation takes from the greedy walk
CAPPED_STEPS = 4_920
KAPPA_KEYS = 7_210
EVALUATED_BOXES = 390


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
