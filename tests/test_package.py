"""The package's exported names resolve lazily to the objects of their home
modules, and are listed exactly as when ``__init__`` imported them all."""

from __future__ import annotations

import importlib

import pytest

import pandorabox

EXPORTS = {
    "core": [
        "BoxSpec", "CapExceededError", "ConstraintGraph", "ConstraintKind", "DiscreteDistribution",
        "ExecutionState", "Instance", "InvariantError", "MatroidSideConstraint", "OrderModel", "PandoraError",
        "ParseError", "PreOrderIndex", "UnsupportedConstraintError", "ValidationError", "build_preorder",
        "constraint_allows", "dump_instance", "feasible_next", "format_rational", "load_instance",
        "parse_rational", "set_feasibility_violation", "validate_instance", "weitzman_reservation",
    ],
    "line_solver": ["LineSolution", "line_optimal_value", "solve_line"],
    "tree_solver": ["AnnotatedEntry", "AnnotatedLine", "TreeSolution", "merge", "solve_tree"],
    "strategy": [
        "SimulationSummary", "ThresholdPolicy", "Trajectory", "evaluate_set", "evaluate_threshold_exact",
        "fixed_opening_order", "run_threshold", "simulate",
    ],
    "oracle": ["OracleResult", "best_fixed_order", "best_half_reward_benchmark", "solve_exact"],
    "approx": ["ApproxPolicy", "GuaranteeReport", "exact_policy_value", "run_approx", "solve_approx",
               "verify_guarantee"],
    "learning": ["EmpiricalModel", "LearnReport", "LearningConfig", "learn_and_solve", "learn_model",
                 "sample_bound"],
    "instances": ["adaptivity_gap", "figure1", "figure1_tree_matroid", "guard_line"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES)
def test_export_is_the_home_module_object(module, name):
    value = getattr(pandorabox, name)
    assert value is getattr(importlib.import_module(f"pandorabox.{module}"), name)
    # stored on the package, so later reads (and the benchmark's rebind scan) find it
    assert vars(pandorabox)[name] is value
    assert name in dir(pandorabox)
    assert name in pandorabox.__all__


def test_all_lists_exactly_the_exports():
    assert sorted(pandorabox.__all__) == sorted(name for _, name in NAMES)
    namespace: dict = {}
    exec("from pandorabox import *", namespace)
    assert set(namespace) - {"__builtins__"} == {name for _, name in NAMES}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        pandorabox.nope  # noqa: B018
    assert not hasattr(pandorabox, "nope")
    with pytest.raises(ImportError):
        exec("from pandorabox import nope", {})
