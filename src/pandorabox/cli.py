"""Command-line front end.

Every command is deterministic given its arguments; randomized commands
require an explicit --seed.  Output is a flat key=value block, or a JSON
object with the same keys under --json.  Exit codes: 0 success, 2 input or
validation error, 3 unsupported constraint or cap exceeded, 4 internal
invariant violation.  Each command imports only the solver modules it runs.

Every command is a function ``cmd_<name>(args, instance)`` that turns its
flags and the instance read from ``--input`` (None for ``example``, which
builds its own and writes it to ``--out``) into a list of (key, value)
pairs.  Only :func:`main` reads ``--input``, prints the pairs through
:func:`emit` and maps errors to exit codes.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from fractions import Fraction

from .core import (
    MAX_DOCUMENT_BYTES,
    CapExceededError,
    Instance,
    InvariantError,
    MatroidSideConstraint,
    ParseError,
    PandoraError,
    UnsupportedConstraintError,
    ValidationError,
    dump_instance,
    format_rational,
    load_instance,
    parse_rational,
    validate_instance,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _rational(key: str, value: Fraction) -> str:
    try:
        return format_rational(value)
    except ValueError:  # Python refuses to print an int over sys.get_int_max_str_digits()
        raise CapExceededError(
            f"{key} has more than {sys.get_int_max_str_digits()} digits to print"
        ) from None


def emit(pairs: Sequence[tuple[str, object]], as_json: bool) -> None:
    """Print the pairs once all of them are formatted, so a value that
    cannot be printed leaves stdout empty."""
    shown = [(key, _rational(key, value) if isinstance(value, Fraction) else value)
             for key, value in pairs]
    if as_json:
        print(json.dumps(dict(shown)))
    else:
        print("\n".join(f"{key}={_fmt(value)}" for key, value in shown))


def _read_document(path: str) -> str:
    with open(path, "rb") as file:  # one byte past the cap is enough to refuse the file
        data = file.read(MAX_DOCUMENT_BYTES + 1)
    if len(data) > MAX_DOCUMENT_BYTES:
        raise CapExceededError(f"{path} is larger than {MAX_DOCUMENT_BYTES} bytes")
    return data.decode()


def _read_instance(path: str) -> Instance:
    try:
        text = _read_document(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return load_instance(text)


def _read_thresholds(instance: Instance, path: str | None):
    from .strategy import ThresholdPolicy
    if path is None:
        from .tree_solver import solve_tree
        solution = solve_tree(instance)
        return ThresholdPolicy.for_instance(instance, solution.thresholds, solution.order.ids())
    try:
        raw = json.loads(_read_document(path))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
        raise ParseError(f"cannot read thresholds from {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError(f"thresholds file {path} must hold a JSON object of box id to threshold")
    return ThresholdPolicy.for_instance(instance, raw)


def _threshold_pairs(solution) -> list[tuple[str, object]]:
    """``threshold.<id>`` for each box of a ``TreeSolution`` in its order, then ``value``."""
    return [*((f"threshold.{entry.box_id}", entry.threshold) for entry in solution.order.entries),
            ("value", solution.value)]


def cmd_solve(args, instance: Instance) -> list[tuple[str, object]]:
    from .tree_solver import solve_tree
    solution = solve_tree(instance)
    return [("order", ",".join(solution.order.ids())), *_threshold_pairs(solution)]


def cmd_evaluate(args, instance: Instance) -> list[tuple[str, object]]:
    from .strategy import evaluate_set, evaluate_threshold_exact
    if args.set is None:
        return [("value", evaluate_threshold_exact(instance, _read_thresholds(instance, args.thresholds)))]
    if args.thresholds is not None:
        raise ValidationError("evaluate takes --set or --thresholds, not both")
    ids = [s for s in args.set.split(",") if s]
    return [("set", ",".join(sorted(ids))), ("value", evaluate_set(instance, ids))]


def cmd_simulate(args, instance: Instance) -> list[tuple[str, object]]:
    from .strategy import simulate
    summary = simulate(instance, _read_thresholds(instance, args.thresholds), args.trials, args.seed)
    return [("mean", summary.mean), ("stddev", summary.stddev), ("trials", summary.trials), ("seed", summary.seed)]


def cmd_oracle(args, instance: Instance) -> list[tuple[str, object]]:
    from .oracle import solve_exact
    result = solve_exact(instance)
    return [("value", result.value), ("e_max", result.e_max), ("e_cost", result.e_cost),
            ("first_action", result.action((), Fraction(0)) or "stop")]


def cmd_fixed_order(args, instance: Instance) -> list[tuple[str, object]]:
    from .oracle import best_fixed_order
    order, value = best_fixed_order(instance)
    return [("order", ",".join(order)), ("value", value)]


def _override_capacity(instance: Instance, capacity: list[int]) -> Instance:
    side = instance.side
    if side.kind == MatroidSideConstraint.NONE:
        if len(capacity) != 1:
            raise ValidationError("--capacity on an instance without a side constraint takes a single value "
                                  "(a cardinality bound)")
        side = MatroidSideConstraint.knapsack({b.id: (1,) for b in instance.boxes}, capacity)
    elif len(capacity) != len(side.capacity):
        what = "knapsack dimension" if side.kind == MatroidSideConstraint.KNAPSACK else "partition count"
        raise ValidationError(f"--capacity needs {len(side.capacity)} entries to match the instance's {what}")
    else:
        side = MatroidSideConstraint(side.kind, side.weights, tuple(capacity))
    return validate_instance(Instance(instance.boxes, instance.constraint, side))


def cmd_approx(args, instance: Instance) -> list[tuple[str, object]]:
    from .approx import solve_approx, verify_guarantee
    if args.capacity is not None:
        instance = _override_capacity(instance, args.capacity)
    if not args.verify:
        return [("value", solve_approx(instance).value)]
    report = verify_guarantee(instance)  # refuses over its caps before it sweeps
    pairs: list[tuple[str, object]] = [
        ("value", report.policy_value), ("executed_value", report.executed_value), ("set_margin", report.set_margin),
        ("worst_set", ",".join(report.worst_set)), ("feasible_sets", report.feasible_sets)]
    if report.benchmark_margin is not None:
        pairs += [("benchmark_margin", report.benchmark_margin), ("oracle_value", report.oracle_value)]
    return pairs


def cmd_learn(args, instance: Instance) -> list[tuple[str, object]]:
    from .learning import LearningConfig, learn_and_solve
    config = LearningConfig(
        epsilon=parse_rational(args.epsilon),
        delta=parse_rational(args.delta),
        samples_per_box=args.samples,
        constant=args.constant,
    )
    _, report = learn_and_solve(instance, config, args.seed)
    return [("true_opt", report.true_opt), ("learned_policy_value", report.learned_policy_value),
            ("gap", report.gap), ("epsilon", report.epsilon), ("N", report.samples_per_box)]


def _write_example(instance: Instance, path: str | None) -> None:
    if not path:
        return
    try:
        with open(path, "w") as file:
            file.write(dump_instance(instance))
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


def _epsilon(args) -> Fraction:
    return parse_rational(args.epsilon) if args.epsilon else Fraction(3, 2)


def _p(args) -> Fraction:
    return parse_rational(args.p) if args.p else Fraction(1, 10)


def _figure1_pairs(args, instance: Instance) -> list[tuple[str, object]]:
    from .oracle import best_fixed_order, solve_exact
    result = solve_exact(instance)
    _, fixed_value = best_fixed_order(instance)
    high = result.action(("A",), Fraction(5, 2))
    low = result.action(("A",), Fraction(0))
    return [
        ("epsilon", _epsilon(args)),
        ("oracle_value", result.value),
        ("fixed_order_value", fixed_value),
        ("gap", result.value - fixed_value),
        ("fixed_order_suboptimal", result.value > fixed_value),
        ("first_action", result.action((), Fraction(0)) or "stop"),
        ("second_action_high", high or "stop"),
        ("second_action_low", low or "stop"),
    ]


def _adaptivity_gap_pairs(args, instance: Instance) -> list[tuple[str, object]]:
    from .line_solver import line_optimal_value
    p, n = _p(args), instance.n
    adaptive = line_optimal_value(instance.boxes)
    jackpot = 1 / (p * p)
    hit = p * p
    cost = 1 - p / 2
    best_value = Fraction(0)
    best_k = 0
    miss_pow = Fraction(1)
    for k in range(1, n + 1):
        miss_pow *= 1 - hit
        value = jackpot * (1 - miss_pow) - k * cost
        if value > best_value:
            best_value = value
            best_k = k
    ratio = adaptive / best_value
    return [
        ("p", p),
        ("n", n),
        ("adaptive_value", float(adaptive)),
        ("best_nonadaptive_value", float(best_value)),
        ("best_k", best_k),
        ("ratio", float(ratio)),
    ]


def _guard_line_pairs(args, instance: Instance) -> list[tuple[str, object]]:
    from .tree_solver import solve_tree
    return _threshold_pairs(solve_tree(instance))


def cmd_example(args, _: None) -> list[tuple[str, object]]:
    """Build the named instance, write it to ``--out``, then run its check:
    a write that fails is reported before any solving, and a parameter flag
    of another example is refused before anything is built."""
    from . import instances
    examples = {
        "figure1": (lambda: instances.figure1(_epsilon(args)), _figure1_pairs, ("epsilon",)),
        "adaptivity-gap": (lambda: instances.adaptivity_gap(_p(args), args.n), _adaptivity_gap_pairs, ("p", "n")),
        "guard-line": (instances.guard_line, _guard_line_pairs, ()),
    }
    if args.name not in examples:
        raise ValidationError(f"unknown example {args.name!r}; choose from {sorted(examples)}")
    build, check, takes = examples[args.name]
    foreign = [f"--{flag}" for flag in ("epsilon", "p", "n") if flag not in takes and getattr(args, flag) is not None]
    if foreign:
        raise ValidationError(f"example {args.name} does not take {', '.join(foreign)}")
    instance = build()
    _write_example(instance, args.out)
    return [("name", args.name), *check(args, instance)]


class _Parser(argparse.ArgumentParser):
    """A usage error (a missing flag, an ill-typed value) raises :class:`ParseError`,
    so it ends like any other input error: exit 2 and one ``error:`` line."""

    def error(self, message: str):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pandorabox",
        description="Optimal and approximate search strategies for costly "
        "inspection under order constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, takes_input: bool = True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit a JSON object")
        if takes_input:
            p.add_argument("--input", required=True)
        return p

    add("solve", cmd_solve, help="optimal thresholds for line/tree/forest without a side constraint")

    p = add("evaluate", cmd_evaluate, help="exact value of thresholds or of a fixed set")
    p.add_argument("--set", help="comma-separated box ids (non-adaptive value)")
    p.add_argument("--thresholds", help="JSON file of per-box thresholds")

    p = add("simulate", cmd_simulate, help="Monte-Carlo estimate of a threshold policy")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--thresholds", help="JSON file of per-box thresholds")

    add("oracle", cmd_oracle, help="exact optimal value by exhaustive search")
    add("fixed-order", cmd_fixed_order, help="best fixed exploration order")

    p = add("approx", cmd_approx, help="tree + side-constraint adaptive strategy")
    p.add_argument("--verify", action="store_true", help="check the guarantees exhaustively")
    p.add_argument(
        "--capacity",
        type=int,
        nargs="+",
        help="impose a cardinality bound (no side constraint in the document) "
        "or override the document's capacity vector",
    )

    p = add("learn", cmd_learn, help="learn rewards from samples, solve, report the gap")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, help="override the sample-count formula")
    p.add_argument("--constant", type=float, default=1.0)

    p = add("example", cmd_example, takes_input=False, help="generate a built-in instance and run its check")
    p.add_argument("name", help="figure1 | adaptivity-gap | guard-line")
    p.add_argument("--epsilon", help="figure1 toll parameter (default 3/2)")
    p.add_argument("--p", help="adaptivity-gap success scale (default 1/10)")
    p.add_argument("--n", type=int, help="adaptivity-gap box count")
    p.add_argument("--out", help="write the instance document to this path")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        instance = _read_instance(args.input) if "input" in args else None
        emit(args.func(args, instance), args.json)
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except PandoraError as exc:  # ParseError, ValidationError and any other: exit 2
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED if isinstance(exc, (UnsupportedConstraintError, CapExceededError)) else EXIT_INVALID
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
