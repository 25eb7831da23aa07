"""Command-line front end.

Every command is deterministic given its arguments; randomized commands
require an explicit --seed.  Output is a flat key=value block, or a JSON
object with the same keys under --json.  Exit codes: 0 success, 2 input or
validation error, 3 unsupported constraint or cap exceeded, 4 internal
invariant violation.  Each command imports only the solver modules it runs.
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


def cmd_solve(args) -> None:
    from .tree_solver import solve_tree
    solution = solve_tree(_read_instance(args.input))
    emit([("order", ",".join(solution.order.ids())), *_threshold_pairs(solution)], args.json)


def cmd_evaluate(args) -> None:
    from .strategy import evaluate_set, evaluate_threshold_exact
    instance = _read_instance(args.input)
    if args.set is not None:
        ids = [s for s in args.set.split(",") if s]
        value = evaluate_set(instance, ids)
        emit([("set", ",".join(sorted(ids))), ("value", value)], args.json)
        return
    policy = _read_thresholds(instance, args.thresholds)
    emit([("value", evaluate_threshold_exact(instance, policy))], args.json)


def cmd_simulate(args) -> None:
    from .strategy import simulate
    instance = _read_instance(args.input)
    policy = _read_thresholds(instance, args.thresholds)
    summary = simulate(instance, policy, args.trials, args.seed)
    emit(
        [
            ("mean", summary.mean),
            ("stddev", summary.stddev),
            ("trials", summary.trials),
            ("seed", summary.seed),
        ],
        args.json,
    )


def cmd_oracle(args) -> None:
    from .oracle import solve_exact
    instance = _read_instance(args.input)
    result = solve_exact(instance)
    first = result.action((), Fraction(0))
    emit(
        [
            ("value", result.value),
            ("e_max", result.e_max),
            ("e_cost", result.e_cost),
            ("first_action", first if first is not None else "stop"),
        ],
        args.json,
    )


def cmd_fixed_order(args) -> None:
    from .oracle import best_fixed_order
    instance = _read_instance(args.input)
    order, value = best_fixed_order(instance)
    emit([("order", ",".join(order)), ("value", value)], args.json)


def _override_capacity(instance: Instance, capacity: list[int]) -> Instance:
    side = instance.side
    if side.kind == MatroidSideConstraint.NONE:
        if len(capacity) != 1:
            raise ValidationError(
                "--capacity on an instance without a side constraint takes a "
                "single value (a cardinality bound)"
            )
        side = MatroidSideConstraint.knapsack(
            {b.id: (1,) for b in instance.boxes}, tuple(capacity)
        )
    elif side.kind == MatroidSideConstraint.KNAPSACK:
        if len(capacity) != len(side.capacity):
            raise ValidationError(
                f"--capacity needs {len(side.capacity)} entries to match the "
                f"instance's knapsack dimension"
            )
        side = MatroidSideConstraint.knapsack(side.weights, tuple(capacity))
    else:
        if len(capacity) != len(side.part_capacities):
            raise ValidationError(
                f"--capacity needs {len(side.part_capacities)} entries to match "
                f"the instance's partition count"
            )
        side = MatroidSideConstraint.partition(side.parts, tuple(capacity))
    return validate_instance(
        Instance(boxes=instance.boxes, constraint=instance.constraint, side=side)
    )


def cmd_approx(args) -> None:
    from .approx import solve_approx, verify_guarantee
    instance = _read_instance(args.input)
    if args.capacity is not None:
        instance = _override_capacity(instance, args.capacity)
    policy = solve_approx(instance)
    pairs: list[tuple[str, object]] = [("value", policy.value)]
    if args.verify:
        report = verify_guarantee(instance, policy)
        pairs.extend(
            [
                ("executed_value", report.executed_value),
                ("set_margin", report.set_margin),
                ("worst_set", ",".join(report.worst_set)),
                ("feasible_sets", report.feasible_sets),
            ]
        )
        if report.benchmark_margin is not None:
            pairs.extend(
                [
                    ("benchmark_margin", report.benchmark_margin),
                    ("oracle_value", report.oracle_value),
                ]
            )
    emit(pairs, args.json)


def cmd_learn(args) -> None:
    from .learning import LearningConfig, learn_and_solve
    instance = _read_instance(args.input)
    config = LearningConfig(
        epsilon=parse_rational(args.epsilon),
        delta=parse_rational(args.delta),
        samples_per_box=args.samples,
        constant=args.constant,
    )
    _, report = learn_and_solve(instance, config, args.seed)
    emit(
        [
            ("true_opt", report.true_opt),
            ("learned_policy_value", report.learned_policy_value),
            ("gap", report.gap),
            ("epsilon", report.epsilon),
            ("N", report.samples_per_box),
        ],
        args.json,
    )


def _write_example(instance: Instance, path: str | None) -> None:
    if not path:
        return
    try:
        with open(path, "w") as file:
            file.write(dump_instance(instance))
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


def _example_figure1(args) -> list[tuple[str, object]]:
    from .instances import figure1
    from .oracle import best_fixed_order, solve_exact
    epsilon = parse_rational(args.epsilon) if args.epsilon else Fraction(3, 2)
    instance = figure1(epsilon)
    _write_example(instance, args.out)
    result = solve_exact(instance)
    _, fixed_value = best_fixed_order(instance)
    high = result.action(("A",), Fraction(5, 2))
    low = result.action(("A",), Fraction(0))
    return [
        ("name", "figure1"),
        ("epsilon", epsilon),
        ("oracle_value", result.value),
        ("fixed_order_value", fixed_value),
        ("gap", result.value - fixed_value),
        ("fixed_order_suboptimal", result.value > fixed_value),
        ("first_action", result.action((), Fraction(0)) or "stop"),
        ("second_action_high", high or "stop"),
        ("second_action_low", low or "stop"),
    ]


def _example_adaptivity_gap(args) -> list[tuple[str, object]]:
    from .instances import adaptivity_gap
    from .line_solver import line_optimal_value
    p = parse_rational(args.p) if args.p else Fraction(1, 10)
    instance = adaptivity_gap(p, args.n)
    _write_example(instance, args.out)
    n = instance.n
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
        ("name", "adaptivity-gap"),
        ("p", p),
        ("n", n),
        ("adaptive_value", float(adaptive)),
        ("best_nonadaptive_value", float(best_value)),
        ("best_k", best_k),
        ("ratio", float(ratio)),
    ]


def _example_guard_line(args) -> list[tuple[str, object]]:
    from .instances import guard_line
    from .tree_solver import solve_tree
    instance = guard_line()
    _write_example(instance, args.out)
    return [("name", "guard-line"), *_threshold_pairs(solve_tree(instance))]


def cmd_example(args) -> None:
    handlers = {
        "figure1": _example_figure1,
        "adaptivity-gap": _example_adaptivity_gap,
        "guard-line": _example_guard_line,
    }
    handler = handlers.get(args.name)
    if handler is None:
        raise ValidationError(
            f"unknown example {args.name!r}; choose from {sorted(handlers)}"
        )
    emit(handler(args), args.json)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pandorabox",
        description="Optimal and approximate search strategies for costly "
        "inspection under order constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit a JSON object")
        return p

    p = add("solve", cmd_solve, help="optimal thresholds for line/tree/forest without a side constraint")
    p.add_argument("--input", required=True)

    p = add("evaluate", cmd_evaluate, help="exact value of thresholds or of a fixed set")
    p.add_argument("--input", required=True)
    p.add_argument("--set", help="comma-separated box ids (non-adaptive value)")
    p.add_argument("--thresholds", help="JSON file of per-box thresholds")

    p = add("simulate", cmd_simulate, help="Monte-Carlo estimate of a threshold policy")
    p.add_argument("--input", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--thresholds", help="JSON file of per-box thresholds")

    p = add("oracle", cmd_oracle, help="exact optimal value by exhaustive search")
    p.add_argument("--input", required=True)

    p = add("fixed-order", cmd_fixed_order, help="best fixed exploration order")
    p.add_argument("--input", required=True)

    p = add("approx", cmd_approx, help="tree + side-constraint adaptive strategy")
    p.add_argument("--input", required=True)
    p.add_argument("--verify", action="store_true", help="check the guarantees exhaustively")
    p.add_argument(
        "--capacity",
        type=int,
        nargs="+",
        help="impose a cardinality bound (no side constraint in the document) "
        "or override the document's capacity vector",
    )

    p = add("learn", cmd_learn, help="learn rewards from samples, solve, report the gap")
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, help="override the sample-count formula")
    p.add_argument("--constant", type=float, default=1.0)

    p = add("example", cmd_example, help="generate a built-in instance and run its check")
    p.add_argument("name", help="figure1 | adaptivity-gap | guard-line")
    p.add_argument("--epsilon", help="figure1 toll parameter (default 3/2)")
    p.add_argument("--p", help="adaptivity-gap success scale (default 1/10)")
    p.add_argument("--n", type=int, help="adaptivity-gap box count")
    p.add_argument("--out", help="write the instance document to this path")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (UnsupportedConstraintError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except PandoraError as exc:  # pragma: no cover
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
