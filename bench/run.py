"""Benchmark entry point: one workload per call, end to end or traced.

    python3 bench/run.py --workload tree-solve [--seed 1] [--seconds 20] [--trace 0|1]

Generates the workload's instance documents from ``--seed`` into
``.bench_work/`` (under the checkout root), then starts fresh workload
processes running the package from ``src/``.  Set-up is sampled in
SETUP_SAMPLES processes (the last one also runs the timed closed loop), so
``setup_s`` is a median.  End-to-end times are corrected for the machine's
momentary speed with the reference samples the workload process takes
(see ``worker.reference``); the raw values are printed beside them.  Prints human-readable lines, then as the last line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits 1 when a result check failed and 2 when the workload process could
not run (for instance when ``src/`` is missing); it prints no JSON line in
that case.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracing  # noqa: E402
from worker import REFERENCE_S, program_env  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
SETUP_SAMPLES = 5
DEADLINE_S = 170
SPEED_WINDOW = 10

END_TO_END = (
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def quantile(values: list, q: float) -> float:
    """Nearest-rank quantile: the ceil(q * n)-th smallest value, so that
    n - ceil(q * n) values lie beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def speed_factors(refs: list, nominal: float) -> list:
    """Machine speed around each op: the median speed sample within
    SPEED_WINDOW ops either side, relative to its nominal duration."""
    return [statistics.median(refs[max(0, i - SPEED_WINDOW): i + SPEED_WINDOW + 1]) / nominal
            for i in range(len(refs))]


def spawn_worker(args, work: Path, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--work", str(work),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawn_ns = time.monotonic_ns()
    # A session of its own, so a timeout also stops the CLI processes it runs.
    proc = subprocess.Popen(cmd + ["--spawn-ns", str(spawn_ns)], env=program_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.POOLS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    pool = gen.POOLS[args.workload](args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    docs = hashlib.sha256()
    for item in pool:
        if item["text"] is not None:
            (work / f"{item['name']}.json").write_text(item["text"])
            docs.update(item["text"].encode())
    (work / "pool.json").write_text(json.dumps(pool))

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"pool={len(pool)} documents digest.docs={docs.hexdigest()}")
    try:
        return report(args, work, pool, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(args, work: Path, pool: list, deadline: float) -> int:
    setups = []
    if not args.trace:
        setups = [spawn_worker(args, work, True, deadline) for _ in range(SETUP_SAMPLES - 1)]
    result = spawn_worker(args, work, False, deadline)
    setups.append(result)

    latencies = result["latencies_s"]
    n_ops = len(latencies)
    for name, value in result["digests"].items():
        print(f"digest.{name}={value}")
    for message in result["messages"]:
        print(f"check failed: {message}")
    print(f"error_rate={result['failed'] / result['attempted']} ({result['failed']}/{result['attempted']} ops)")

    if args.trace:
        trace = result["trace"]
        metrics = trace["metrics"]
        print(f"traced ops={trace['ops']} spans={trace['spans']} untraced_wall_s={trace['untraced_wall_s']} "
              f"traced_wall_s={trace['traced_wall_s']} "
              f"overhead={100 * metrics['trace.overhead_s'] / trace['untraced_wall_s']:.1f}%")
        print("absent targets: " + (", ".join(trace["absent"]) or "none"))
        print("counted, not spanned: " + ", ".join(sorted(tracing.COUNTED)))
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in tracing.PER_LAYER}
        for name, unit in tracing.PER_LAYER:
            print(f"{name}={metrics[name]} {unit}")
        spans = ROOT / ".bench_work" / f"trace-{args.workload}-{args.seed}.json"
        shutil.move(work / "trace.json", spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        trials = gen.SIM_TRIALS if args.workload == "simulate" else 1
        factors = speed_factors(result["reference_s"], result["reference_nominal_s"])
        corrected = [latency / f for latency, f in zip(latencies, factors)]

        def summary(op_times: list, busy_s: float, setup: list) -> dict:
            return {
                "op_p50_ms": 1000 * statistics.median(op_times),
                "op_p90_ms": 1000 * quantile(op_times, 0.9),
                "ops_per_s": trials * n_ops / busy_s,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": result["peak_rss_mb"],
            }

        values = summary(corrected, sum(corrected),
                         [s["setup_s"] * REFERENCE_S / s["setup_ref_s"] for s in setups])
        raw = summary(latencies, result["wall_s"], [s["setup_s"] for s in setups])
        notes = {
            "op_p50_ms": f"n={n_ops} ops",
            "op_p90_ms": f"n={n_ops} ops, {n_ops - math.ceil(0.9 * n_ops)} beyond",
            "ops_per_s": f"{n_ops} ops in {result['wall_s']:.3f} s wall"
                         + (f", x{trials} trials per op" if trials > 1 else ""),
            "setup_s": f"median of {len(setups)} processes",
            "peak_rss_mb": "CLI processes" if args.workload == "cli" else "workload process",
        }
        print(f"machine speed: sample median {1000 * statistics.median(result['reference_s']):.4f} ms "
              f"(nominal {1000 * result['reference_nominal_s']} ms), "
              f"factor range {min(factors):.3f}..{max(factors):.3f}")
        out = {}
        for name, unit in END_TO_END:
            out[name] = {"value": values[name], "unit": unit}
            print(f"{name}={values[name]} {unit} (raw {raw[name]}; {notes[name]})")
    correct = result["failed"] == 0 and not result["messages"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
