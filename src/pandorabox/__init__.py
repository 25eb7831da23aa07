"""Exact and approximate solvers for costly sequential inspection under
order constraints (line, tree, forest, DAG) with optional matroid-style
side constraints on the opened set."""

from .core import (
    BoxSpec,
    CapExceededError,
    ConstraintGraph,
    ConstraintKind,
    DiscreteDistribution,
    ExecutionState,
    Instance,
    InvariantError,
    MatroidSideConstraint,
    OrderModel,
    PandoraError,
    ParseError,
    PreOrderIndex,
    UnsupportedConstraintError,
    ValidationError,
    build_preorder,
    constraint_allows,
    dump_instance,
    expected_excess,
    feasible_next,
    format_rational,
    load_instance,
    max_distribution,
    parse_rational,
    set_feasibility_violation,
    validate_instance,
    weitzman_reservation,
)
from .line_solver import (
    LineSolution,
    MacroBoxPartition,
    ThresholdTable,
    ValueTable,
    compute_threshold,
    line_optimal_value,
    macro_partition,
    solve_line,
)
from .tree_solver import AnnotatedEntry, AnnotatedLine, TreeSolution, merge, solve_tree
from .strategy import (
    SimulationSummary,
    ThresholdPolicy,
    Trajectory,
    evaluate_set,
    evaluate_threshold_exact,
    fixed_opening_order,
    run_threshold,
    simulate,
)
from .oracle import (
    OracleResult,
    best_fixed_order,
    best_half_reward_benchmark,
    solve_exact,
)
from .approx import (
    ApproxPolicy,
    GuaranteeReport,
    exact_policy_value,
    run_approx,
    solve_approx,
    verify_guarantee,
)
from .learning import (
    EmpiricalModel,
    LearnReport,
    LearningConfig,
    learn_and_solve,
    learn_model,
    sample_bound,
)
from .instances import adaptivity_gap, figure1, figure1_tree_matroid, guard_line

__version__ = "0.1.0"
