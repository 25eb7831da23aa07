"""Fast self-test of the benchmark's own machinery.

    python3 bench/selftest.py

Checks that the generators are deterministic, that every result check
passes on real results and trips on a deliberately corrupted one (through
each workload's ``verify``), that the tracer wraps aliases, reports absent
targets and restores the originals, that the machine-speed factors follow
their samples, and that BENCHMARK.json lists the metrics the benchmark
prints.  Runs in a few seconds; exits 1 on failure.
"""

from __future__ import annotations

import json
import shutil
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import pandorabox  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

worker.pb = pandorabox
FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    if not condition:
        FAILURES.append(what)


def small_pool(workload: str, keep) -> list:
    return [item for k, item in enumerate(gen.POOLS[workload](7)) if keep(k, item)]


def make(workload: str, pool: list, work: Path):
    for item in pool:
        if item["text"] is not None:
            (work / f"{item['name']}.json").write_text(item["text"])
    w = worker.WORKLOADS[workload](pool, work)
    ops = w.setup()
    return w, [op() for op in ops]


def trips(w, results: list, k: int, corrupt, what: str) -> None:
    """verify() passes on ``results`` and flags item k once corrupted."""
    bad = list(results)
    bad[k] = corrupt(results[k])
    expect(not any(w.verify(results)[0]), f"{what}: clean results flagged")
    expect(bool(w.verify(bad)[0][k]), f"{what}: corruption not detected")


def test_generators() -> None:
    for name, make_pool in gen.POOLS.items():
        a, b, c = make_pool(3), make_pool(3), make_pool(4)
        expect(json.dumps(a) == json.dumps(b), f"{name}: same seed gave different documents")
        expect(json.dumps(a) != json.dumps(c), f"{name}: different seeds gave identical documents")


def test_checks(work: Path) -> None:
    third = Fraction(1, 7)

    pool = small_pool("tree-solve", lambda k, item: item["shape"] == "line" and item["name"].endswith("-10"))
    w, results = make("tree-solve", pool, work)
    trips(w, results, 0, lambda r: (r[0], r[1] + third, r[2]), "tree-solve evaluation")
    trips(w, results, 0, lambda r: (r[0] + third, r[0] + third, r[2]), "tree-solve line value")

    pool = small_pool("simulate", lambda k, item: k < 2)
    w, results = make("simulate", pool, work)
    trips(w, results, 0, lambda r: (r[0] + 10, r[1]), "simulate 5-sigma bound")
    trips(w, results, 1, lambda r: (r[0] + Fraction(1, 10**9), r[1]), "simulate prefix identity")
    w.exact[0] += third
    expect(bool(w.verify(results)[0][0]), "simulate exact value: corruption not detected")
    expect(checks.simulate_mean(Fraction(1), Fraction(1), Fraction(0), 10) == [], "zero variance, equal mean")
    expect(checks.simulate_mean(Fraction(2), Fraction(1), Fraction(0), 10) != [], "zero variance, other mean")

    pool = small_pool("exhaustive", lambda k, item: k < 3)
    w, results = make("exhaustive", pool, work)
    kinds = [item["kind"] for item in pool]
    dag, approx, fixed = kinds.index("dag"), kinds.index("approx"), kinds.index("fixed")
    trips(w, results, dag, lambda r: (r[0] + third, r[1], r[2]), "oracle split")
    trips(w, results, approx, lambda r: (r[0], r[1], Fraction(-1), r[3], r[4], r[5]), "approx set_margin")
    trips(w, results, approx, lambda r: (r[0], r[1], r[2], Fraction(-1), r[4], r[5]), "approx benchmark_margin")
    trips(w, results, approx, lambda r: (r[0], r[1] + third, r[2], r[3], r[4], r[5]), "approx executed value")
    trips(w, results, fixed, lambda r: (r[0], r[1] + 100, r[2]), "best_fixed_order above the oracle")
    trips(w, results, fixed, lambda r: (r[0], r[1], r[2] - 100), "half-reward benchmark")
    expect(checks.fixed_order(Fraction(0), Fraction(1), Fraction(2), Fraction(9), Fraction(1), Fraction(0)) != [],
           "solve_exact vs solve_tree: mismatch not detected")

    pool = small_pool("cli", lambda k, item: item["command"] in ("solve", "simulate", "example") and k < 8)
    w, results = make("cli", pool, work)
    solve = [item["command"] for item in pool].index("solve")
    trips(w, results, solve, lambda r: (r[0], r[1].replace("value=", "value=1")), "cli stdout")
    trips(w, results, solve, lambda r: (1, r[1]), "cli exit code")


def test_tracer() -> None:
    from pandorabox import cli, core, tree_solver
    original = tree_solver.solve_line
    saved = tracing.TARGETS
    tracing.TARGETS = saved + (("core", "no_such_function"),)
    try:
        tracer = tracing.Tracer().install()
    finally:
        tracing.TARGETS = saved
    expect(tracer.absent == ["core.no_such_function"], f"absent targets {tracer.absent}")
    expect(tree_solver.solve_line is not original, "alias tree_solver.solve_line not wrapped")
    expect(cli.solve_tree is pandorabox.solve_tree, "alias cli.solve_tree not wrapped alike")
    instance = core.load_instance(gen.dumps(gen.caterpillar(gen.rng_for(1, "selftest", 0), 9)))
    tracer.op_id = 0
    solution = pandorabox.solve_tree(instance)
    hidden = tracer.hidden_ns
    policy = pandorabox.ThresholdPolicy.for_instance(instance, solution.thresholds, solution.order.ids())
    pandorabox.evaluate_threshold_exact(instance, policy)
    tracer.op_id = -1
    tracer.uninstall()
    expect(tree_solver.solve_line is original, "uninstall did not restore tree_solver.solve_line")
    agg = tracer.snapshot()
    m = tracing.target_metrics(agg)
    m.update(tracing.derived_metrics(agg))
    expect(m["tree_solver.solve_tree.calls"] == 1, "solve_tree not counted once")
    expect(m["tree_solver.merge.calls"] > 0 and m["tree_solver.merged_boxes"] > 0, "merge not traced")
    expect(m["line_solver.prepend.calls"] >= instance.n, "fewer backward steps than boxes")
    expect(m["core.constraint_allows.calls"] > 0, "counted leaf constraint_allows not counted")
    expect(all(ns >= 0 for ns in agg["self_ns"]), "negative self time")
    total = agg["total_ns"][agg["names"].index("tree_solver.solve_tree")]
    inside = sum(ns for name, ns in zip(agg["names"], agg["self_ns"])
                 if name.startswith(("piecewise.", "line_solver.", "tree_solver.")))
    # Result inspection is hidden from every self time.
    expect(0 <= total - inside <= hidden, "self times under solve_tree do not add up to its duration")
    expect(all(s is not None for s in tracer.spans), "unfinished span")


def test_speed_factors() -> None:
    refs = [1e-3] * 30 + [2e-3] * 30
    factors = run.speed_factors(refs, 1e-3)
    expect(factors[0] == 1.0 and factors[-1] == 2.0, "speed factors do not follow the samples")
    expect(len(factors) == len(refs), "one speed factor per op")


def test_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END],
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END), "end_to_end units")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER),
           "BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    expect([w["name"] for w in spec["workloads"]] == list(gen.POOLS), "workload names")


def main() -> int:
    work = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        test_generators()
        test_checks(work)
        test_tracer()
        test_speed_factors()
        test_benchmark_json()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in FAILURES:
        print(f"FAIL: {failure}")
    print("selftest " + ("failed" if FAILURES else "passed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
