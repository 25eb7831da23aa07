"""``core.IntDistribution`` stores its fields unchecked, so this module holds
its invariant: while the κ DP, the exact evaluation and ``evaluate_set`` run
on the benchmark's tree pools, the long lines and random tie instances,
every ``IntDistribution`` built passes ``int_distribution_violation``."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from pandorabox import (
    ConstraintKind,
    ThresholdPolicy,
    evaluate_set,
    evaluate_threshold_exact,
    load_instance,
    solve_line,
    solve_tree,
)
from pandorabox.core import IntDistribution
from pandorabox.instances import adaptivity_gap
from pandorabox.line_solver import NOTHING

from helpers import distinct_value_line, int_distribution_violation, rand_tie_instance

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402


@pytest.fixture
def checked_builds(monkeypatch):
    """Checks every ``IntDistribution`` built from here on; returns the key count of each build."""
    built = []
    init = IntDistribution.__init__

    def checked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        violation = int_distribution_violation(self)
        assert violation is None, violation
        built.append(len(self.keys))

    monkeypatch.setattr(IntDistribution, "__init__", checked)
    return built


def solve_and_evaluate(instance):
    solution = solve_tree(instance)
    policy = ThresholdPolicy.for_instance(instance, solution.thresholds, solution.order.ids())
    return solution, evaluate_threshold_exact(instance, policy)


def test_the_empty_lines_capped_value_holds():
    assert int_distribution_violation(NOTHING) is None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tree_pool(checked_builds, seed):
    for item in gen.tree_solve_pool(seed):
        solve_and_evaluate(load_instance(item["text"]))
    assert len(checked_builds) > 10_000


def test_long_lines(checked_builds):
    for instance in (adaptivity_gap(), distinct_value_line(300)):
        solution, _ = solve_and_evaluate(instance)
        assert solve_line(instance.boxes).value == solution.value
    assert max(checked_builds) >= 300  # the distinct-value line's support grows by a key a box


def test_tie_instances(checked_builds):
    rng = random.Random(36)
    kinds = (ConstraintKind.LINE, ConstraintKind.TREE, ConstraintKind.FOREST, ConstraintKind.UNCONSTRAINED)
    for t in range(200):
        instance = rand_tie_instance(rng, kinds[t % len(kinds)])
        solution, _ = solve_and_evaluate(instance)
        order = solution.order.ids()
        for k in range(2, len(order) + 1):  # each prefix of the opening order is a feasible set
            evaluate_set(instance, order[:k])
    assert len(checked_builds) > 1_000
