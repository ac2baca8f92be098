"""One pass of a workload in a fresh interpreter.

Usage: python3 child.py PLAN OUT [--trace] [--setup-only]

The child imports constalg from the plan's source directory, loads the
workload's instance files and prints "ready" on stdout; the parent times
that line as set-up.  It then calls `constalg.cli.run(argv)` once per
operation with stdout and stderr captured, which runs the same argument
parsing, exit codes and formatting as the `constalg` command.  With
--trace the per-layer wrappers of `tracer.py` are installed first.  The
outputs, timings and statistics are written to OUT as JSON.
"""

from __future__ import annotations

import io
import json
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter

CALIBRATE_EVERY_S = 0.5


def calibration_chunk() -> float:
    """Seconds for a fixed piece of exact arithmetic and dict work.

    It runs next to the operations, so that the parent can express their
    times in units of a machine on which this chunk takes a fixed time.
    """
    start = perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 2001):
        total += Fraction(i % 7 + 1, i % 5 + 1)
        seen[(i, i % 13)] = (i, total)
    return perf_counter() - start


def calibrate() -> float:
    return statistics.median(calibration_chunk() for _ in range(5))


def run_op(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.run(argv)
    except Exception as exc:  # recorded as a failed operation, never dropped
        rc, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    return {
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "error": error,
        "elapsed": elapsed,
    }


def main(argv) -> int:
    plan_path, out_path = argv[0], argv[1]
    trace, setup_only = "--trace" in argv, "--setup-only" in argv
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])
    import constalg
    from constalg import cli

    instances = [constalg.load_instance(path) for path in plan["instances"]]
    print("ready", len(instances), flush=True)
    if setup_only:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"chunk_s": calibrate()}, handle)
        return 0

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # Each operation gets the mean of the calibrations just before and after it.
    results, before_selfcheck, chunks, calibrated = [], None, [], float("-inf")
    for op in plan["ops"]:
        if op["selfcheck"] and before_selfcheck is None and tracer is not None:
            before_selfcheck = tracer.snapshot()
        if perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            chunks.append(calibrate())
            calibrated = perf_counter()
        results.append(dict(run_op(cli, op["argv"]), calibration=len(chunks) - 1))
    chunks.append(calibrate())
    for result in results:
        k = result.pop("calibration")
        result["chunk_s"] = (chunks[k] + chunks[k + 1]) / 2
    report = {"ops": results}
    if tracer is not None:
        tracer.uninstall()
        report["stats"] = tracer.snapshot()
        if before_selfcheck is not None:
            report["selfcheck_stats"] = {
                key: value - before_selfcheck.get(key, 0.0)
                for key, value in report["stats"].items()
            }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
