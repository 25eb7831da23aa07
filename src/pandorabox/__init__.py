"""Exact and approximate solvers for costly sequential inspection under
order constraints (line, tree, forest, DAG) with optional matroid-style
side constraints on the opened set.

Exported names resolve lazily (PEP 562): ``import pandorabox`` loads no
submodule, and the first read of a name imports its home module and stores
the object here, so later reads are plain lookups.
"""

from importlib import import_module as _import_module

_HOMES = {
    "core": (
        "BoxSpec", "CapExceededError", "ConstraintGraph", "ConstraintKind", "DiscreteDistribution",
        "Instance", "InvariantError", "MatroidSideConstraint", "OrderModel", "PandoraError", "ParseError",
        "PreOrderIndex", "UnsupportedConstraintError", "ValidationError", "build_preorder", "constraint_allows",
        "dump_instance", "feasible_next", "format_rational", "load_instance", "parse_rational",
        "set_feasibility_violation", "validate_instance", "weitzman_reservation",
    ),
    "line_solver": ("LineSolution", "line_optimal_value", "solve_line"),
    "tree_solver": ("AnnotatedEntry", "AnnotatedLine", "TreeSolution", "merge", "solve_tree"),
    "strategy": (
        "SimulationSummary", "ThresholdPolicy", "Trajectory", "evaluate_set", "evaluate_threshold_exact",
        "fixed_opening_order", "run_threshold", "simulate",
    ),
    "oracle": ("OracleResult", "best_fixed_order", "best_half_reward_benchmark", "solve_exact"),
    "approx": ("ApproxPolicy", "GuaranteeReport", "exact_policy_value", "solve_approx", "verify_guarantee"),
    "learning": ("EmpiricalModel", "LearnReport", "LearningConfig", "learn_and_solve", "learn_model", "sample_bound"),
    "instances": ("adaptivity_gap", "figure1", "guard_line"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
