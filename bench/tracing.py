"""Layer tracing for the benchmark, installed from outside the package.

``Tracer.install`` wraps the public functions and methods listed in
``TARGETS`` and rebinds every ``pandorabox`` module attribute that holds the
original object, so aliases such as ``tree_solver.solve_line`` or
``cli.solve_tree`` are traced too.  A target that no longer exists is
recorded in ``Tracer.absent`` instead of failing.

Each wrapped call pushes a frame, so self time (duration minus the time of
traced calls made inside it) is exact at every level.  Spanned targets also
append a span ``(name, start_ns, end_ns, parent_span, op_id)`` to an
in-memory list, written out once by ``dump``.  The hot leaves in ``COUNTED``
(``constraint_allows``, ``RewardSampler.draw``, ``RewardSampler.uniform_u64``)
are only counted and timed, without a span each.

A few results are inspected after the clock stops, and that inspection is
hidden from the caller's self time: knot counts and denominator bit-lengths
of the functions ``expectation_of_max`` returns, entries produced by
``merge``, oracle states and approx table cells held by the returned
results, and feasible sets counted by ``verify_guarantee``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter_ns

LAYERS = (
    "core", "piecewise", "line_solver", "tree_solver", "strategy",
    "oracle", "approx", "learning", "cli",
)

# (layer, qualified name inside pandorabox.<layer>)
TARGETS = (
    ("core", "load_instance"),
    ("core", "feasible_next"),
    ("core", "constraint_allows"),
    ("piecewise", "PiecewiseLinear.expectation_of_max"),
    ("piecewise", "PiecewiseLinear.smallest_fixed_point"),
    ("piecewise", "PiecewiseLinear.max_with_identity"),
    ("line_solver", "solve_line"),
    ("line_solver", "LineSolution.prepend"),
    ("line_solver", "line_optimal_value"),
    ("tree_solver", "solve_tree"),
    ("tree_solver", "merge"),
    ("strategy", "fixed_opening_order"),
    ("strategy", "evaluate_threshold_exact"),
    ("strategy", "simulate"),
    ("strategy", "run_threshold"),
    ("strategy", "RewardSampler.draw"),
    ("strategy", "RewardSampler.uniform_u64"),
    ("oracle", "solve_exact"),
    ("oracle", "best_fixed_order"),
    ("oracle", "best_half_reward_benchmark"),
    ("approx", "solve_approx"),
    ("approx", "verify_guarantee"),
    ("approx", "exact_policy_value"),
    ("learning", "learn_model"),
    ("learning", "learn_and_solve"),
    ("cli", "main"),
)

COUNTED = frozenset({"constraint_allows", "RewardSampler.draw", "RewardSampler.uniform_u64"})

# Metric prefix for each target: "<layer>.<short name>".
SHORT = {
    "PiecewiseLinear.expectation_of_max": "expectation_of_max",
    "PiecewiseLinear.smallest_fixed_point": "smallest_fixed_point",
    "PiecewiseLinear.max_with_identity": "max_with_identity",
    "LineSolution.prepend": "prepend",
    "RewardSampler.draw": "draw",
    "RewardSampler.uniform_u64": "uniform_u64",
}


def metric_name(layer: str, qualname: str) -> str:
    return f"{layer}.{SHORT.get(qualname, qualname)}"


def _den_bits(xs) -> int:
    return max(x.denominator.bit_length() for x in xs)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []          # metric name per target index
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        self.op_self_ns: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.spans: list = []
        self.counters: dict[str, int] = {
            "knots_calls": 0, "knots_sum": 0, "knots_max": 0, "den_bits_max": 0,
            "merged_boxes": 0, "boxes_solved": 0, "oracle_states": 0,
            "approx_cells": 0, "feasible_sets": 0,
        }
        self.absent: list[str] = []
        self.hidden_ns = 0                     # result inspection, in no self time
        self.op_id = -1
        self._stack: list[list[int]] = [[0]]   # child-time accumulators
        self._span = -1                        # innermost open span
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        for layer, qualname in TARGETS:
            try:
                module = importlib.import_module(f"pandorabox.{layer}")
            except ImportError:
                self.absent.append(metric_name(layer, qualname))
                continue
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = (owner.__dict__ if owner_name else vars(module)).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(metric_name(layer, qualname))
                continue
            wrapper = self._wrap(layer, qualname, original)
            if owner_name:
                self._rebind(owner, attr, original, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "pandorabox" or name.startswith("pandorabox."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, original, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer: str, qualname: str, fn):
        index = len(self.names)
        self.names.append(metric_name(layer, qualname))
        self.calls.append(0)
        self.self_ns.append(0)
        self.total_ns.append(0)
        spanned = qualname not in COUNTED
        inspect = getattr(self, "_inspect_" + SHORT.get(qualname, qualname).replace(".", "_"), None)
        tracer = self
        stack = self._stack
        spans = self.spans
        calls, self_ns, total_ns, op_self = self.calls, self.self_ns, self.total_ns, self.op_self_ns

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            if spanned:
                parent = tracer._span
                span = len(spans)
                spans.append(None)
                tracer._span = span
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                stack[-1][0] += duration
                calls[index] += 1
                self_ns[index] += own
                total_ns[index] += duration
                if tracer.op_id >= 0:
                    op_self[layer] += own
                if spanned:
                    spans[span] = (index, start, end, parent, tracer.op_id)
                    tracer._span = parent
            if inspect is not None:
                # Hide the inspection from the caller's self time.
                begin = perf_counter_ns()
                inspect(args, result)
                hidden = perf_counter_ns() - begin
                stack[-1][0] += hidden
                tracer.hidden_ns += hidden
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- result inspection ------------------------------------------------

    def _inspect_expectation_of_max(self, args, result) -> None:
        c = self.counters
        knots = len(result.xs)
        c["knots_calls"] += 1
        c["knots_sum"] += knots
        c["knots_max"] = max(c["knots_max"], knots)
        c["den_bits_max"] = max(c["den_bits_max"], _den_bits(result.xs), _den_bits(result.ys))

    def _inspect_merge(self, args, result) -> None:
        self.counters["merged_boxes"] += len(result.entries)

    def _inspect_solve_tree(self, args, result) -> None:
        instance = args[0]
        forest = instance.constraint.kind in ("forest", "unconstrained")
        self.counters["boxes_solved"] += instance.n + (1 if forest else 0)

    def _inspect_solve_exact(self, args, result) -> None:
        self.counters["oracle_states"] += len(getattr(result, "_values", ()))

    def _inspect_solve_approx(self, args, result) -> None:
        self.counters["approx_cells"] += len(result.values)

    def _inspect_verify_guarantee(self, args, result) -> None:
        self.counters["feasible_sets"] += result.feasible_sets

    # -- output -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates as plain data, mergeable with ``merge``."""
        return {
            "names": self.names,
            "calls": self.calls,
            "self_ns": self.self_ns,
            "total_ns": self.total_ns,
            "op_self_ns": self.op_self_ns,
            "counters": self.counters,
            "absent": self.absent,
            "spans": len(self.spans),
        }

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write the aggregates and every span, once, as JSON."""
        out = self.snapshot()
        out["span_records"] = self.spans
        if extra:
            out.update(extra)
        with open(path, "w") as fh:
            json.dump(out, fh)


def merge(total: dict, part: dict) -> dict:
    """Add the aggregates of ``part`` into ``total`` (same target list)."""
    for key in ("calls", "self_ns", "total_ns"):
        total[key] = [a + b for a, b in zip(total[key], part[key])]
    for layer, ns in part["op_self_ns"].items():
        total["op_self_ns"][layer] += ns
    for key, value in part["counters"].items():
        if key.endswith("_max"):
            total["counters"][key] = max(total["counters"][key], value)
        else:
            total["counters"][key] += value
    total["spans"] += part["spans"]
    return total


PER_LAYER = (
    ("core.load_instance.self_s", "s"),
    ("core.feasible_next.calls", "count"),
    ("core.feasible_next.self_s", "s"),
    ("core.constraint_allows.calls", "count"),
    ("piecewise.expectation_of_max.calls", "count"),
    ("piecewise.expectation_of_max.self_s", "s"),
    ("piecewise.smallest_fixed_point.self_s", "s"),
    ("piecewise.max_with_identity.self_s", "s"),
    ("piecewise.knots_max", "count"),
    ("piecewise.knots_mean", "count"),
    ("piecewise.den_bits_max", "bits"),
    ("line_solver.solve_line.calls", "count"),
    ("line_solver.solve_line.self_s", "s"),
    ("line_solver.prepend.calls", "count"),
    ("line_solver.prepend.self_s", "s"),
    ("line_solver.steps_per_box", "ratio"),
    ("line_solver.line_optimal_value.self_s", "s"),
    ("tree_solver.solve_tree.self_s", "s"),
    ("tree_solver.merge.calls", "count"),
    ("tree_solver.merge.self_s", "s"),
    ("tree_solver.merged_boxes", "count"),
    ("strategy.fixed_opening_order.self_s", "s"),
    ("strategy.evaluate_threshold_exact.self_s", "s"),
    ("strategy.simulate.self_s", "s"),
    ("strategy.draw.calls", "count"),
    ("strategy.draw.self_s", "s"),
    ("strategy.uniform_u64.self_s", "s"),
    ("strategy.run_threshold.self_s", "s"),
    ("oracle.solve_exact.calls", "count"),
    ("oracle.solve_exact.self_s", "s"),
    ("oracle.states", "count"),
    ("oracle.states_per_s", "1/s"),
    ("oracle.best_fixed_order.self_s", "s"),
    ("oracle.best_half_reward_benchmark.self_s", "s"),
    ("approx.solve_approx.self_s", "s"),
    ("approx.cells", "count"),
    ("approx.cells_per_s", "1/s"),
    ("approx.verify_guarantee.self_s", "s"),
    ("approx.exact_policy_value.self_s", "s"),
    ("approx.feasible_sets", "count"),
    ("learning.learn_model.self_s", "s"),
    ("learning.learn_and_solve.self_s", "s"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
) + tuple((f"share.{layer}", "%") for layer in LAYERS) + (
    ("share.other", "%"),
    ("trace.overhead_s", "s"),
    ("trace.absent", "count"),
)


def target_metrics(agg: dict) -> dict:
    """``<target>.calls`` and ``<target>.self_s`` for every traced target."""
    out = {}
    for name, calls, self_ns in zip(agg["names"], agg["calls"], agg["self_ns"]):
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_ns / 1e9
    return out


def derived_metrics(agg: dict) -> dict:
    """Counters read off results, and rates built from them."""
    c = agg["counters"]
    total = dict(zip(agg["names"], agg["total_ns"]))
    by_calls = dict(zip(agg["names"], agg["calls"]))
    by_self = dict(zip(agg["names"], agg["self_ns"]))
    exact_s = total.get("oracle.solve_exact", 0) / 1e9
    approx_s = by_self.get("approx.solve_approx", 0) / 1e9
    return {
        "piecewise.knots_max": c["knots_max"],
        "piecewise.knots_mean": c["knots_sum"] / c["knots_calls"] if c["knots_calls"] else 0.0,
        "piecewise.den_bits_max": c["den_bits_max"],
        "line_solver.steps_per_box": (
            by_calls.get("line_solver.prepend", 0) / c["boxes_solved"] if c["boxes_solved"] else 0.0
        ),
        "tree_solver.merged_boxes": c["merged_boxes"],
        "oracle.states": c["oracle_states"],
        "oracle.states_per_s": c["oracle_states"] / exact_s if exact_s else 0.0,
        "approx.cells": c["approx_cells"],
        "approx.cells_per_s": c["approx_cells"] / approx_s if approx_s else 0.0,
        "approx.feasible_sets": c["feasible_sets"],
    }
