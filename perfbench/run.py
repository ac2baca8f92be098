"""Benchmark of the constalg command line on three seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload gb-ladder --seed 1 --seconds 30 --trace 0

Each pass of a workload runs in a fresh child process (child.py) that
calls `constalg.cli.run` once per operation.  With --trace 0, passes repeat
while another one fits in --seconds, and the end-to-end metrics are
reported.  With --trace 1, one untraced and one traced pass of the serial
operations run, followed by an exact-count self-check, and the per-layer
metrics are reported.  Every output is checked (gate.py).  The last stdout
line is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

import workloads
from gate import Gate, hilbert_checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 7  # child start-ups measured per run, passes included
# Reported times are in units of a machine on which the child's calibration
# chunk takes this long; see `normalized`.
REFERENCE_CHUNK_S = 0.005
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# name -> (unit, better); `end_to_end` of BENCHMARK.json, in this order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Workload-specific end-to-end figures, printed on the summary line.
DETAIL_UNITS = {
    "verify_gb_s": "s",
    "verify_gb_jobs2_s": "s",
    "pairs_per_s": "1/s",
    "normal_words_s": "s",
    "kernel_dim_s": "s",
    "request_p50_s": "s",
    "request_p90_s": "s",
    "requests_per_s": "1/s",
    "fail_ratio": "1",
}

# name -> (unit, better); `per_layer` of BENCHMARK.json, in this order.
PER_LAYER = {
    "orders.dill_key.calls": ("count", "lower"),
    "orders.dill_key.s": ("s", "lower"),
    "orders.dill_key.distinct": ("count", "lower"),
    "orders.dill_key.distinct_ratio": ("1", "higher"),
    "groebner.verify_groebner.s": ("s", "lower"),
    "groebner.reduce.calls": ("count", "lower"),
    "groebner.reduce.s": ("s", "lower"),
    "groebner.reduce.self_s": ("s", "lower"),
    "groebner.reduce.terms_in": ("count", "lower"),
    "groebner.s_polynomial.calls": ("count", "lower"),
    "groebner.s_polynomial.s": ("s", "lower"),
    "groebner.verify_lead_conformance.s": ("s", "lower"),
    "groebner.verify_reduced.s": ("s", "lower"),
    "groebner.pairs": ("count", "higher"),
    "groebner.pairs_coprime_ratio": ("1", "higher"),
    "poly.PMonomial.ops.calls": ("count", "lower"),
    "poly.Polynomial.mul.calls": ("count", "lower"),
    "poly.Polynomial.mul.s": ("s", "lower"),
    "poly.Polynomial.add.s": ("s", "lower"),
    "poly.leading_term.calls": ("count", "lower"),
    "poly.leading_term.s": ("s", "lower"),
    "poly.parse_poly.calls": ("count", "lower"),
    "poly.parse_poly.s": ("s", "lower"),
    "poly.format_poly.s": ("s", "lower"),
    "presentation.build_relations.s": ("s", "lower"),
    "presentation.build_generators.s": ("s", "lower"),
    "presentation.pi_image_of_monomial.calls": ("count", "lower"),
    "presentation.pi_image_of_monomial.s": ("s", "lower"),
    "presentation.u_power.calls": ("count", "lower"),
    "presentation.u_power.hit_ratio": ("1", "higher"),
    "normal_words.enumerate_normal_words.s": ("s", "lower"),
    "normal_words.enumerate_normal_words.self_s": ("s", "lower"),
    "normal_words.image_degree.calls": ("count", "lower"),
    "normal_words.image_degree.s": ("s", "lower"),
    "normal_words.is_normal_word.calls": ("count", "lower"),
    "normal_words.is_normal_word.s": ("s", "lower"),
    "normal_words.accept_ratio": ("1", "higher"),
    "normal_words.rewrite_constant.s": ("s", "lower"),
    "normal_words.rewrite_constant.self_s": ("s", "lower"),
    "normal_words.recover_word_from_lead.calls": ("count", "lower"),
    "normal_words.kernel_dim_oracle.s": ("s", "lower"),
    "normal_words.kernel_dim_oracle.self_s": ("s", "lower"),
    "linalg.nullspace.calls": ("count", "lower"),
    "linalg.nullspace.s": ("s", "lower"),
    "linalg.nullspace.cols": ("count", "lower"),
    "linalg.nullspace.free_cols": ("count", "higher"),
    "derivation.apply_delta.calls": ("count", "lower"),
    "derivation.apply_delta.s": ("s", "lower"),
    "derivation.is_constant.s": ("s", "lower"),
    "derivation.load_instance.s": ("s", "lower"),
    "cli.run.calls": ("count", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("1", "lower"),
}


@dataclass
class Child:
    """A finished child process: set-up time, exit code, peak RSS."""

    ready_s: float | None
    returncode: int
    peak_rss_mb: float


def run_child(cmd, timeout=RUN_LIMIT_S, stderr_path=os.devnull) -> Child:
    """Run cmd; time its first stdout line; read its peak RSS with os.wait4.

    os.wait4 reports the RSS high-water mark of this child and of the
    children it waited for (pool workers).  resource.RUSAGE_CHILDREN would
    instead keep the maximum over every child this process ever reaped.
    """
    with open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err, start_new_session=True
        )
    # On timeout, kill the child's whole process group: pool workers too.
    watchdog = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready_s = perf_counter() - start if line.startswith(b"ready") else None
        proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
    return Child(ready_s, proc.returncode, usage.ru_maxrss / 1024.0)


@dataclass
class Pass:
    child: Child
    report: dict

    @property
    def results(self) -> list:
        return self.report.get("ops", [])


class Runner:
    def __init__(self, workload, workdir, deadline):
        self.workload = workload
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def _spawn(self, plan_path, extra) -> tuple:
        self.count += 1
        out = os.path.join(self.workdir, f"child{self.count}.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), plan_path, out, *extra]
        timeout = max(1.0, self.deadline - perf_counter())
        child = run_child(cmd, timeout, out + ".stderr")
        return child, out

    def run_pass(self, plan_path, trace: bool) -> Pass:
        child, out = self._spawn(plan_path, ["--trace"] if trace else [])
        if child.returncode == 0 and os.path.exists(out):
            with open(out, encoding="utf-8") as handle:
                report = json.load(handle)
        else:
            with open(out + ".stderr", encoding="utf-8", errors="replace") as handle:
                tail = handle.read()[-2000:]
            report = {"crash": f"child exit {child.returncode}: {tail}"}
        return Pass(child, report)

    def setup_only(self, plan_path) -> float | None:
        """One normalized set-up time, from a child that stops when ready."""
        child, out = self._spawn(plan_path, ["--setup-only"])
        if child.ready_s is None or child.returncode != 0:
            return None
        with open(out, encoding="utf-8") as handle:
            return normalized(child.ready_s, json.load(handle)["chunk_s"])

    def write_plan(self, name, plan) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(plan, handle)
        return path


class Tally:
    """Checks attempted and failed; every failure keeps its reason."""

    def __init__(self, gate):
        self.gate = gate
        self.attempted = 0
        self.failures: list = []

    def check(self, reason: str | None, count: int = 1) -> None:
        """Record `count` checks, all failed for `reason` unless it is None."""
        self.attempted += count
        if reason is not None:
            self.failures.extend([reason] * count)

    def pass_(self, ops, run: Pass, reference: Pass | None = None) -> None:
        """Check one pass; outputs equal to an already checked reference pass."""
        if "crash" in run.report or len(run.results) != len(ops):
            self.check(run.report.get("crash", "child returned no results"), len(ops))
            return
        refs = reference.results if reference else [None] * len(ops)
        for op, result, ref in zip(ops, run.results, refs):
            same = (
                ref is not None
                and op.kind != "verify-gb"
                and result["error"] is None
                and (result["rc"], result["stdout"]) == (ref["rc"], ref["stdout"])
            )
            self.check(None if same else self.gate.check(op, result))
        for reason in hilbert_checks(ops, run.results):
            self.check(reason)

    @property
    def failed(self) -> int:
        return len(self.failures)


def normalized(seconds: float, chunk_s: float) -> float:
    """Seconds scaled to the reference machine speed.

    The child times a fixed calibration chunk next to the operations.  On
    a shared machine the speed of the host drifts by tens of percent over
    minutes; scaling by the chunk time taken at the same moment removes
    that drift, while a change to constalg still moves the figure.
    """
    return seconds * REFERENCE_CHUNK_S / chunk_s


def _elapsed(result) -> float:
    return normalized(result["elapsed"], result["chunk_s"])


def _median(values):
    return statistics.median(values) if values else 0.0


def op_medians(ops, passes) -> list:
    """Each operation's median time over the passes.

    Sums of these medians stand for one pass: a few seconds of contention
    on a shared machine slow one pass, not the median.
    """
    runs = [p.results for p in passes]
    return [_median([_elapsed(r[i]) for r in runs]) for i in range(len(ops))] if runs else []


def detail_metrics(name, ops, passes) -> dict:
    """The workload-specific end-to-end figures."""
    medians = op_medians(ops, passes)
    if not medians:
        return {}

    def total(pred):
        return sum(t for op, t in zip(ops, medians) if pred(op))

    out = {}
    if name == "gb-ladder":
        serial = total(lambda op: op.kind == "verify-gb" and op.serial)
        pairs = sum(op.expect["pairs"] for op in ops if op.kind == "verify-gb" and op.serial)
        out["verify_gb_s"] = serial
        out["verify_gb_jobs2_s"] = total(lambda op: not op.serial)
        out["pairs_per_s"] = _ratio(pairs, serial)
    elif name == "hilbert-slices":
        out["normal_words_s"] = total(lambda op: op.kind == "count")
        out["kernel_dim_s"] = total(lambda op: op.kind == "dim")
    else:
        runs = [p.results for p in passes]
        latencies = [_elapsed(r[i]) + _elapsed(r[i + 1]) for r in runs for i in range(0, len(ops), 2)]
        deciles = statistics.quantiles(latencies, n=10)
        out["request_p50_s"] = statistics.median(latencies)
        out["request_p90_s"] = deciles[8]
        out["requests_per_s"] = _ratio(len(ops) // 2, sum(medians))
        out["requests"] = len(latencies)
    return out


def timed_run(runner: Runner, tally: Tally, seconds: float):
    wl = runner.workload
    plan, ops = wl.plan(SRC, serial_only=False, selfcheck=False)
    plan_path = runner.write_plan("plan.json", plan)
    start = perf_counter()
    passes: list = []
    while True:
        t0 = perf_counter()
        run = runner.run_pass(plan_path, trace=False)
        tally.pass_(ops, run, passes[0] if passes else None)
        passes.append(run)
        took = perf_counter() - t0
        if "crash" in run.report or perf_counter() + took > start + seconds:
            break
    ok = [p for p in passes if len(p.results) == len(ops)]
    setups = [normalized(p.child.ready_s, p.results[0]["chunk_s"]) for p in ok if p.child.ready_s]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.setup_only(plan_path))
    setups = [s for s in setups if s is not None]
    metrics = {
        "setup_s": _median(setups),
        "wall_s": sum(op_medians(ops, ok)),
        "peak_rss_mb": _median([p.child.peak_rss_mb for p in ok]),
    }
    detail = detail_metrics(wl.name, ops, ok)
    detail["passes"] = len(passes)
    detail["chunk_s"] = _median([r["chunk_s"] for p in ok for r in p.results])

    return {k: (v, END_TO_END[k][0]) for k, v in metrics.items()}, detail


def _certificate_pairs(ops) -> tuple:
    pairs = coprime = 0
    for op in ops:
        if op.kind == "verify-gb":
            with open(op.expect["certificate"], encoding="utf-8") as handle:
                entries = json.load(handle)["pairs"]
            pairs += len(entries)
            coprime += sum(1 for e in entries if e["coprime_leads"])
    return pairs, coprime


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def selfcheck_checks(ops, report) -> list:
    """Exact counts on d = 4, f_i = x_i (10 S-pairs, one nullspace): None or a reason."""
    delta = report.get("selfcheck_stats")
    if delta is None:
        return ["self-check did not run"] * 3
    pairs, _ = _certificate_pairs([op for op in ops if op.selfcheck])
    expected = {
        "groebner.pairs": (pairs, workloads.SELFCHECK_PAIRS),
        "groebner.s_polynomial.calls": (delta.get("groebner.s_polynomial.calls", 0), workloads.SELFCHECK_PAIRS),
        "linalg.nullspace.calls": (delta.get("linalg.nullspace.calls", 0), 1),
    }
    return [
        None if got == want else f"self-check: {name} = {got:g}, expected {want}"
        for name, (got, want) in expected.items()
    ]


def layer_metrics(ops, stats, overhead) -> dict:
    pairs, coprime = _certificate_pairs(ops)
    derived = {
        "orders.dill_key.distinct_ratio": _ratio(
            stats.get("orders.dill_key.distinct", 0), stats.get("orders.dill_key.calls", 0)
        ),
        "groebner.pairs": pairs,
        "groebner.pairs_coprime_ratio": _ratio(coprime, pairs),
        "presentation.u_power.hit_ratio": _ratio(
            stats.get("presentation.u_power.hits", 0), stats.get("presentation.u_power.calls", 0)
        ),
        "normal_words.accept_ratio": _ratio(
            stats.get("normal_words.words_emitted", 0), stats.get("normal_words.image_degree.calls", 0)
        ),
        "trace.overhead_ratio": overhead,
    }
    return {
        name: (float(derived.get(name, stats.get(name, 0.0))), unit)
        for name, (unit, _) in PER_LAYER.items()
    }


def traced_run(runner: Runner, tally: Tally):
    plan, ops = runner.workload.plan(SRC, serial_only=True, selfcheck=True)
    plan_path = runner.write_plan("plan_traced.json", plan)
    plain = runner.run_pass(plan_path, trace=False)
    tally.pass_(ops, plain)
    traced = runner.run_pass(plan_path, trace=True)
    tally.pass_(ops, traced)
    if "crash" in traced.report or "crash" in plain.report:
        return {name: (0.0, unit) for name, (unit, _) in PER_LAYER.items()}, {}
    for i, (a, b) in enumerate(zip(plain.results, traced.results)):
        same = a["stdout"] == b["stdout"]
        tally.check(None if same else f"operation {i}: traced stdout differs from untraced")
    for reason in selfcheck_checks(ops, traced.report):
        tally.check(reason)
    timed = [i for i, op in enumerate(ops) if not op.selfcheck]
    plain_s = sum(_elapsed(plain.results[i]) for i in timed)
    traced_s = sum(_elapsed(traced.results[i]) for i in timed)
    overhead = _ratio(traced_s, plain_s)
    detail = {"untraced_pass_s": plain_s, "traced_pass_s": traced_s}
    return layer_metrics(ops, traced.report["stats"], overhead), detail


def _import_constalg():
    """Import constalg from this checkout's src/, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "constalg", "__init__.py")):
        raise SystemExit(f"error: no constalg package under {SRC}")
    sys.path.insert(0, SRC)
    import constalg

    if os.path.dirname(os.path.dirname(os.path.abspath(constalg.__file__))) != SRC:
        raise SystemExit(f"error: constalg was imported from {constalg.__file__}, not {SRC}")
    return constalg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    constalg = _import_constalg()
    deadline = perf_counter() + RUN_LIMIT_S
    workdir = os.path.join(WORKDIR, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(wl, workdir, deadline)
        tally = Tally(Gate(constalg))
        if args.trace:
            metrics, detail = traced_run(runner, tally)
        else:
            metrics, detail = timed_run(runner, tally, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORKDIR) and not os.listdir(WORKDIR):
            os.rmdir(WORKDIR)
    detail["fail_ratio"] = _ratio(tally.failed, tally.attempted)
    for reason in tally.failures[:20]:
        print(f"FAIL {reason}")
    print(json.dumps({"replay": wl.replay}))
    summary = {
        k: {"value": v, "unit": DETAIL_UNITS[k]} for k, v in detail.items() if k in DETAIL_UNITS
    }
    print(json.dumps({"workload": wl.name, "detail": summary, **{
        k: v for k, v in detail.items() if k not in DETAIL_UNITS
    }}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
