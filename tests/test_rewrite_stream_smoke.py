"""The operations of each benchmark workload pass the benchmark's own gate.

Each workload is built with perfbench's `workloads.build` in a temporary
directory, each operation runs through `constalg.cli.run` as the
benchmark's child process runs it, and perfbench's `Gate` checks the exit
code and output: `verify-gb` verdicts and certificates, `normal-words`
counts and `kernel-dim` dimensions exactly, `check` verdicts exactly, and
pi(rewrite output) equal to the request.  `hilbert_checks` then compares
each count with the dimension at the same point.  So a change that drops
a name or an option the benchmark's children use fails here.  The
perfbench modules are loaded from their files and not changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import constalg
from constalg import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 81
# rewrite-stream runs its first 40 operations; the other workloads run all of theirs.
OPERATIONS = {"gb-ladder": None, "hilbert-slices": None, "rewrite-stream": 40}
KINDS = {
    "gb-ladder": {"verify-gb"},
    "hilbert-slices": {"count", "dim"},
    "rewrite-stream": {"check", "rewrite"},
}


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up while it executes
    spec.loader.exec_module(module)
    return module


workloads, gate, child = load("workloads"), load("gate"), load("child")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_operations_pass_the_gate(tmp_path, name):
    workload = workloads.build(name, SEED, str(tmp_path))
    ops = workload.ops[:OPERATIONS[name]]
    assert {op.kind for op in ops} == KINDS[name]
    if name == "gb-ladder":
        assert "--jobs" in ops[-1].argv
    if name == "rewrite-stream":
        assert {op.expect["constant"] for op in ops} == {True, False}
    checker = gate.Gate(constalg)
    results = []
    for op in ops:
        result = child.run_op(cli, op.argv)
        assert checker.check(op, result) is None, (op.kind, op.argv[:2], op.expect.get("poly", "")[:80])
        results.append(result)
    checks = gate.hilbert_checks(ops, results)
    assert checks == [None] * len(checks)
    if name == "hilbert-slices":
        assert len(checks) == len(workloads.KERNEL_POINTS)
