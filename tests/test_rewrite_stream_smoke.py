"""The first operations of the rewrite-stream benchmark pass the benchmark's own gate.

The workload is built with perfbench's `workloads.build` in a temporary
directory, each operation runs through `constalg.cli.run` as the
benchmark's child process runs it, and perfbench's `Gate` checks the exit
code and output: `check` verdicts exactly, and pi(rewrite output) equal to
the request.  The perfbench modules are loaded from their files and not
changed.
"""

import importlib.util
import sys
from pathlib import Path

import constalg
from constalg import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 81
OPERATIONS = 40


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up while it executes
    spec.loader.exec_module(module)
    return module


workloads, gate, child = load("workloads"), load("gate"), load("child")


def test_rewrite_stream_operations_pass_the_gate(tmp_path):
    workload = workloads.build("rewrite-stream", SEED, str(tmp_path))
    ops = workload.ops[:OPERATIONS]
    assert {op.kind for op in ops} == {"check", "rewrite"}
    assert {op.expect["constant"] for op in ops} == {True, False}
    checker = gate.Gate(constalg)
    for op in ops:
        result = child.run_op(cli, op.argv)
        assert checker.check(op, result) is None, (op.kind, op.expect["poly"][:80])
