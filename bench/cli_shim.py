"""Traced stand-in for ``python -m pandorabox.cli``.

Usage: ``cli_shim.py SPANS_OUT ARGS...`` with ``BENCH_SPAWN_NS`` set to the
caller's ``time.monotonic_ns()`` just before the spawn.  Imports the CLI,
installs the tracer, runs ``main(ARGS)`` and writes the spans and the
interpreter-start and import times to SPANS_OUT.  The exit code is the
CLI's.
"""

import time

STARTED_NS = time.monotonic_ns()

import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    interpreter_ns = STARTED_NS - int(os.environ["BENCH_SPAWN_NS"])
    t0 = time.monotonic_ns()
    import pandorabox.cli
    import_ns = time.monotonic_ns() - t0

    import tracing
    tracer = tracing.Tracer().install()
    tracer.op_id = 0
    try:
        return pandorabox.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(out, extra={"interpreter_ns": interpreter_ns, "import_ns": import_ns, "argv": argv})


if __name__ == "__main__":
    sys.exit(main())
