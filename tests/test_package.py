"""The package's exported names resolve lazily to the objects of their home
modules, and are listed exactly as when ``__init__`` imported them all.
Every top-level import of a package module is used or marked ``noqa``, and
every import, top-level or inside a function, is relative or of the standard
library."""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

import pandorabox

EXPORTS = {
    "core": [
        "BoxSpec", "CapExceededError", "ConstraintGraph", "ConstraintKind", "DiscreteDistribution",
        "Instance", "InvariantError", "MatroidSideConstraint", "OrderModel", "PandoraError",
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
    "approx": ["ApproxPolicy", "GuaranteeReport", "exact_policy_value", "solve_approx", "verify_guarantee"],
    "learning": ["EmpiricalModel", "LearnReport", "LearningConfig", "learn_and_solve", "learn_model",
                 "sample_bound"],
    "instances": ["adaptivity_gap", "figure1", "guard_line"],
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


MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "pandorabox").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_top_level_import_is_used(path):
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line of its import
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1] and "# noqa" not in lines[node.lineno - 1]:
                    imported[(alias.asname or alias.name).partition(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_relative_or_stdlib(path):
    outside = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        outside += [(name, node.lineno) for name in names if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"{path.name}: imports outside the standard library {outside}"
