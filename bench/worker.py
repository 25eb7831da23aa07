"""One workload process: set up, run the closed loop, check the results.

Started by ``run.py`` with the pool written to ``<work>/pool.json`` and one
document per instance beside it.  ``--setup-only`` stops after set-up, so
set-up time can be sampled several times per run.  The last line of stdout
is a JSON object with the measurements.

Untraced (``--trace 0``): set up, run ops for ``--seconds``, check.
Traced (``--trace 1``): set up and run ops untraced for half the time, then
install the tracer, set up again and replay the same ops traced, then
check.  The difference between the two op phases' wall times is the
tracing overhead.
"""

import time

STARTED_NS = time.monotonic_ns()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_OPS = 100
PREFIX_TRIALS = 16
SPEED_SAMPLES = 5


pb = None  # the pandorabox package, imported by main()


REFERENCE_S = 1e-3


def reference() -> float:
    """Duration of a fixed piece of pure-Python work (integer, dict and
    Fraction arithmetic, garbage collector paused) that tracks how fast the
    machine runs this process at the moment.  Nominally REFERENCE_S: about
    1 ms on the 2-core VM the benchmark was defined on."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table, x = {}, Fraction(0)
        for i in range(1, 240):
            table[i % 13] = table.get(i % 13, 0) + i * i
            x += Fraction(i % 7, i % 11 + 1)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# Workloads.  ``setup`` loads every document and returns one op per pool
# item; an op returns a hashable result.  ``verify`` checks the first result
# of every item and returns (failure messages per item, digest lines).
# ---------------------------------------------------------------------------

class Workload:
    reference_nominal_s = REFERENCE_S

    def __init__(self, pool: list, work: Path, traced: bool = False):
        self.pool = pool
        self.work = work
        self.traced = traced

    def reference_sample(self) -> float:
        """One machine-speed sample, taken after every op.  The warm-up run
        keeps the op's cache footprint out of the sample."""
        reference()
        return reference()

    def load(self):
        return [pb.load_instance((self.work / f"{item['name']}.json").read_text()) for item in self.pool]


class TreeSolve(Workload):
    def setup(self):
        self.instances = self.load()
        return [lambda inst=inst: self.op(inst) for inst in self.instances]

    @staticmethod
    def op(inst):
        solution = pb.solve_tree(inst)
        order = solution.order.ids()
        policy = pb.ThresholdPolicy.for_instance(inst, solution.thresholds, order)
        evaluated = pb.evaluate_threshold_exact(inst, policy)
        return solution.value, evaluated, tuple((i, solution.thresholds[i]) for i in order)

    def verify(self, results):
        failures, exact = [], []
        for item, inst, (value, evaluated, thresholds) in zip(self.pool, self.instances, results):
            line_value = pb.line_optimal_value(inst.boxes) if item["shape"] == "line" else None
            failures.append(checks.tree_solve(value, evaluated, line_value))
            exact.append(f"{item['name']} value={fmt(value)} " + " ".join(f"{i}={fmt(z)}" for i, z in thresholds))
        return failures, {"exact": exact}


def net_moments(inst, policy, order):
    """Exact mean and variance of one trial's net revenue, by a forward
    sweep over (step, best reward) along the fixed opening order."""
    running = {Fraction(0): Fraction(1)}
    spent = m1 = m2 = Fraction(0)

    def stop(y, mass):
        nonlocal m1, m2
        m1 += mass * (y - spent)
        m2 += mass * (y - spent) ** 2

    for box_id in order:
        z = policy.thresholds[box_id]
        box = inst.box_map[box_id]
        nxt = {}
        for y, mass in running.items():
            if y >= z:
                stop(y, mass)
                continue
            for v, p in box.reward.atoms:
                top = v if v > y else y
                nxt[top] = nxt.get(top, 0) + mass * p
        spent += box.cost
        running = nxt
    for y, mass in running.items():
        stop(y, mass)
    return m1, m2 - m1 * m1


class Simulate(Workload):
    def setup(self):
        self.instances = self.load()
        self.policies, self.solutions, self.exact = [], [], []
        for inst in self.instances:
            solution = pb.solve_tree(inst)
            policy = pb.ThresholdPolicy.for_instance(inst, solution.thresholds, solution.order.ids())
            self.solutions.append(solution)
            self.policies.append(policy)
            self.exact.append(pb.evaluate_threshold_exact(inst, policy))
        return [
            lambda inst=inst, policy=policy, item=item: self.op(inst, policy, item["trials"], item["rng_seed"])
            for inst, policy, item in zip(self.instances, self.policies, self.pool)
        ]

    @staticmethod
    def op(inst, policy, trials, rng_seed):
        summary = pb.simulate(inst, policy, trials, rng_seed)
        return summary.mean, summary.stddev

    def verify(self, results):
        failures, exact, stream = [], [], []
        for item, inst, policy, solution, value, (mean, _) in zip(
                self.pool, self.instances, self.policies, self.solutions, self.exact, results):
            sweep_mean, variance = net_moments(inst, policy, pb.fixed_opening_order(inst, policy))
            fails = checks.equal("exact evaluation vs solution.value", value, solution.value)
            fails += checks.equal("forward sweep mean vs exact evaluation", sweep_mean, value)
            fails += checks.simulate_mean(mean, value, variance, item["trials"])
            prefix = sum(
                (pb.run_threshold(inst, policy, item["rng_seed"], t).net_revenue for t in range(PREFIX_TRIALS)),
                Fraction(0),
            ) / PREFIX_TRIALS
            fails += checks.equal("run_threshold prefix mean vs simulate",
                                  prefix, pb.simulate(inst, policy, PREFIX_TRIALS, item["rng_seed"]).mean)
            failures.append(fails)
            order = solution.order.ids()
            exact.append(f"{item['name']} value={fmt(value)} "
                         + " ".join(f"{i}={fmt(solution.thresholds[i])}" for i in order))
            stream.append(f"{item['name']} mean={fmt(mean)}")
        return failures, {"exact": exact, "stream": stream}


class Exhaustive(Workload):
    def setup(self):
        self.instances = self.load()
        return [lambda inst=inst, kind=item["kind"]: self.op(inst, kind)
                for inst, item in zip(self.instances, self.pool)]

    @staticmethod
    def op(inst, kind):
        if kind == "dag":
            result = pb.solve_exact(inst)
            return result.value, result.e_max, result.e_cost
        if kind == "approx":
            policy = pb.solve_approx(inst)
            report = pb.verify_guarantee(inst, policy)
            return (report.policy_value, report.executed_value, report.set_margin,
                    report.benchmark_margin, report.feasible_sets, report.worst_set)
        order, value = pb.best_fixed_order(inst)
        return order, value, pb.best_half_reward_benchmark(inst)

    def verify(self, results):
        failures, exact = [], []
        for item, inst, result in zip(self.pool, self.instances, results):
            kind = item["kind"]
            if kind == "dag":
                failures.append(checks.oracle_split(*result))
                values = result
            elif kind == "approx":
                policy_value, executed, set_margin, benchmark_margin = result[:4]
                failures.append(checks.approx_report(policy_value, executed, set_margin, benchmark_margin))
                values = [v for v in result[:4] if v is not None]
            else:
                _, fixed_value, half = result
                oracle = pb.solve_exact(inst)
                failures.append(checks.fixed_order(fixed_value, oracle.value, pb.solve_tree(inst).value,
                                                   half, oracle.e_max, oracle.e_cost))
                values = (fixed_value, half)
            exact.append(f"{item['name']} " + " ".join(fmt(v) for v in values))
        return failures, {"exact": exact}


class Cli(Workload):
    # The ops run in child processes, so the speed sample is the start of a
    # bare interpreter: python -c pass, about 70 ms on a 2-core VM.
    reference_nominal_s = 0.07

    def reference_sample(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True)
        return time.perf_counter() - start

    def setup(self):
        self.instances = [pb.load_instance((self.work / f"{item['name']}.json").read_text())
                          if item["text"] is not None else None for item in self.pool]
        self.env = program_env()
        self.spans_dir = self.work / "cli-spans"
        self.spans_dir.mkdir(exist_ok=True)
        self.calls = 0
        return [lambda argv=item["argv"]: self.op(argv) for item in self.pool]

    def op(self, argv):
        if self.traced:
            self.calls += 1
            out = self.spans_dir / f"{self.calls:05d}.json"
            cmd = [sys.executable, str(HERE / "cli_shim.py"), str(out)] + argv
            self.env["BENCH_SPAWN_NS"] = str(time.monotonic_ns())
        else:
            cmd = [sys.executable, "-m", "pandorabox.cli"] + argv
        proc = subprocess.run(cmd, cwd=self.work, env=self.env, stdout=subprocess.PIPE, text=True)
        return proc.returncode, proc.stdout

    def expected(self, item, inst):
        """The key=value pairs each command prints, from library calls."""
        cmd, argv = item["command"], item["argv"]

        def opt(flag):
            return argv[argv.index(flag) + 1]

        def solved_policy():
            solution = pb.solve_tree(inst)
            return pb.ThresholdPolicy.for_instance(inst, solution.thresholds, solution.order.ids())

        if cmd == "solve":
            s = pb.solve_tree(inst)
            return ([("order", ",".join(s.order.ids()))]
                    + [(f"threshold.{e.box_id}", fmt(e.threshold)) for e in s.order.entries]
                    + [("value", fmt(s.value))])
        if cmd == "evaluate":
            if "--set" in argv:
                ids = opt("--set").split(",")
                return [("set", ",".join(sorted(ids))), ("value", fmt(pb.evaluate_set(inst, ids)))]
            return [("value", fmt(pb.evaluate_threshold_exact(inst, solved_policy())))]
        if cmd == "simulate":
            s = pb.simulate(inst, solved_policy(), int(opt("--trials")), int(opt("--seed")))
            return [("mean", fmt(s.mean)), ("stddev", repr(s.stddev)), ("trials", str(s.trials)),
                    ("seed", str(s.seed))]
        if cmd == "oracle":
            r = pb.solve_exact(inst)
            return [("value", fmt(r.value)), ("e_max", fmt(r.e_max)), ("e_cost", fmt(r.e_cost)),
                    ("first_action", r.action((), Fraction(0)) or "stop")]
        if cmd == "fixed-order":
            order, value = pb.best_fixed_order(inst)
            return [("order", ",".join(order)), ("value", fmt(value))]
        if cmd == "approx":
            policy = pb.solve_approx(inst)
            r = pb.verify_guarantee(inst, policy)
            pairs = [("value", fmt(policy.value)), ("executed_value", fmt(r.executed_value)),
                     ("set_margin", fmt(r.set_margin)), ("worst_set", ",".join(r.worst_set)),
                     ("feasible_sets", str(r.feasible_sets))]
            if r.benchmark_margin is not None:
                pairs += [("benchmark_margin", fmt(r.benchmark_margin)), ("oracle_value", fmt(r.oracle_value))]
            return pairs
        if cmd == "learn":
            config = pb.LearningConfig(epsilon=Fraction(opt("--epsilon")), delta=Fraction(opt("--delta")))
            _, r = pb.learn_and_solve(inst, config, int(opt("--seed")))
            return [("true_opt", fmt(r.true_opt)), ("learned_policy_value", fmt(r.learned_policy_value)),
                    ("gap", fmt(r.gap)), ("epsilon", fmt(r.epsilon)), ("N", str(r.samples_per_box))]
        if argv[1] == "guard-line":
            s = pb.solve_tree(pb.guard_line())
            return ([("name", "guard-line")]
                    + [(f"threshold.{e.box_id}", fmt(e.threshold)) for e in s.order.entries]
                    + [("value", fmt(s.value))])
        epsilon = Fraction(opt("--epsilon"))
        example = pb.figure1(epsilon)
        r = pb.solve_exact(example)
        _, fixed_value = pb.best_fixed_order(example)
        return [
            ("name", "figure1"), ("epsilon", fmt(epsilon)), ("oracle_value", fmt(r.value)),
            ("fixed_order_value", fmt(fixed_value)), ("gap", fmt(r.value - fixed_value)),
            ("fixed_order_suboptimal", "true" if r.value > fixed_value else "false"),
            ("first_action", r.action((), Fraction(0)) or "stop"),
            ("second_action_high", r.action(("A",), Fraction(5, 2)) or "stop"),
            ("second_action_low", r.action(("A",), Fraction(0)) or "stop"),
        ]

    def verify(self, results):
        failures, exact, stream = [], [], []
        for item, inst, (returncode, stdout) in zip(self.pool, self.instances, results):
            failures.append(checks.cli_output(returncode, stdout, self.expected(item, inst)))
            lines = [f"{item['name']} {line}" for line in stdout.splitlines()]
            (stream if item["command"] == "simulate" else exact).extend(lines)
        return failures, {"exact": exact, "stream": stream}


WORKLOADS = {"tree-solve": TreeSolve, "simulate": Simulate, "exhaustive": Exhaustive, "cli": Cli}


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

def run_ops(workload, ops, seconds: float, passes=None, tracer=None, first=None):
    """Run whole passes over the pool, one op at a time, so every input
    weighs the same in every run.  Runs ``passes`` passes if given; else
    stops before a pass that would likely end after ``seconds`` (judged by
    the last pass), once at least one pass and MIN_OPS ops ran.  An op fails
    when it raises or when its result differs from the first result for the
    same input (``first`` may carry those in from an earlier phase).
    A machine-speed sample (``workload.reference_sample``) follows every
    op.  Returns (latencies, reference
    samples, per-op errors, first results, wall)."""
    latencies, refs, errors = [], [], []
    first = list(first) if first is not None else [None] * len(ops)
    start = time.perf_counter()
    done = 0
    while True:
        pass_start = time.perf_counter()
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = len(latencies)
            t0 = time.perf_counter()
            try:
                result = op()
                error = None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                result, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            refs.append(workload.reference_sample())
            if error is None and first[k] is not None and result != first[k]:
                error = "result differs from the first run of the same input"
            if first[k] is None and error is None:
                first[k] = result
            errors.append(error)
        done += 1
        now = time.perf_counter()
        if passes is not None:
            if done >= passes:
                break
        elif len(latencies) >= MIN_OPS and now + (now - pass_start) - start > seconds:
            break
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.op_id = -1
    return latencies, refs, errors, first, wall


def check_results(workload, first, errors, n_items):
    """Failed op count, messages, and digests."""
    missing = [k for k in range(n_items) if first[k] is None]
    messages = []
    item_fails = [[] for _ in range(n_items)]
    if not missing:
        per_item, digests = workload.verify(first)
        item_fails = per_item
    else:
        digests = {}
        for k in missing:
            item_fails[k] = ["no successful result"]
    failed = 0
    for i, error in enumerate(errors):
        k = i % n_items
        if error is not None or item_fails[k]:
            failed += 1
    for k, fails in enumerate(item_fails):
        for msg in fails:
            messages.append(f"{workload.pool[k]['name']}: {msg}")
    for i, error in enumerate(errors):
        if error is not None:
            messages.append(f"op {i} ({workload.pool[i % n_items]['name']}): {error}")
    hashed = {name: hashlib.sha256("\n".join(lines).encode()).hexdigest() for name, lines in digests.items()}
    return failed, messages, hashed


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    global pb
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    interpreter_s = (STARTED_NS - args.spawn_ns) / 1e9
    t0 = time.monotonic_ns()
    import pandorabox
    import_s = (time.monotonic_ns() - t0) / 1e9
    if not Path(pandorabox.__file__).resolve().is_relative_to(SRC):
        print(f"pandorabox was imported from {pandorabox.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    pb = pandorabox

    work = Path(args.work)
    pool = json.loads((work / "pool.json").read_text())
    workload = WORKLOADS[args.workload](pool, work)
    ops = workload.setup()
    ready_ns = time.monotonic_ns()
    out = {"setup_s": (ready_ns - args.spawn_ns) / 1e9,
           "setup_ref_s": statistics.median(reference() for _ in range(SPEED_SAMPLES))}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    cli = args.workload == "cli"
    seconds = args.seconds / 2 if args.trace else args.seconds
    latencies, refs, errors, first, wall = run_ops(workload, ops, seconds)
    out["peak_rss_mb"] = peak_rss_mb(children=cli)
    if args.trace:
        import tracing
        tracer = tracing.Tracer().install()
        workload.traced = True
        ops = workload.setup()
        traced_lat, _, traced_errors, _, traced_wall = run_ops(
            workload, ops, 0, passes=len(latencies) // len(ops), tracer=tracer, first=first)
        errors = errors + traced_errors
    failed, messages, digests = check_results(workload, first, errors, len(pool))
    out.update({
        "latencies_s": latencies,
        "reference_s": refs,
        "reference_nominal_s": workload.reference_nominal_s,
        "wall_s": wall,
        "attempted": len(errors),
        "failed": failed,
        "messages": messages[:20],
        "digests": digests,
    })
    if args.trace:
        agg = tracer.snapshot()
        starts = {"interpreter_s": [interpreter_s], "import_s": [import_s]}
        processes = []
        if cli:
            for path in sorted(workload.spans_dir.glob("*.json")):
                part = json.loads(path.read_text())
                processes.append(part)
                starts["interpreter_s"].append(part["interpreter_ns"] / 1e9)
                starts["import_s"].append(part["import_ns"] / 1e9)
                agg = tracing.merge(agg, part)
            # The worker's own start is not a CLI start.
            starts = {k: v[1:] for k, v in starts.items()}
        metrics = tracing.target_metrics(agg)
        metrics.update(tracing.derived_metrics(agg))
        metrics["cli.interpreter_s"] = statistics.median(starts["interpreter_s"])
        metrics["cli.import_s"] = statistics.median(starts["import_s"])
        op_self = dict(agg["op_self_ns"])
        if cli:
            op_self["cli"] += int(1e9 * (sum(starts["interpreter_s"]) + sum(starts["import_s"])))
        for layer, ns in op_self.items():
            metrics[f"share.{layer}"] = 100.0 * ns / 1e9 / traced_wall
        metrics["share.other"] = 100.0 - sum(metrics[f"share.{layer}"] for layer in op_self)
        metrics["trace.overhead_s"] = traced_wall - wall
        metrics["trace.absent"] = len(agg["absent"])
        out["trace"] = {
            "metrics": metrics,
            "absent": agg["absent"],
            "spans": agg["spans"],
            "traced_wall_s": traced_wall,
            "untraced_wall_s": wall,
            "ops": len(traced_lat),
        }
        tracer.dump(str(work / "trace.json"), extra={"workload": args.workload, "cli_processes": processes})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
