"""Tests of the benchmark's own parts.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import constalg  # noqa: E402
import constalg.cli  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gate import Gate  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"\A[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"\A[A-Za-z0-9_/%.-]{1,16}\Z")


def _build(name, seed):
    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.build(name, seed, workdir)
        argv = [[a.replace(workdir, "<dir>") for a in op.argv] for op in wl.ops]
        files = {}
        for path in wl.instance_files:
            with open(path, encoding="utf-8") as handle:
                files[os.path.basename(path)] = handle.read()
    return wl.replay, argv, files


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in ("gb-ladder", "hilbert-slices"):
            self.assertEqual(_build(name, 7), _build(name, 7))

    def test_rewrite_stream_is_deterministic_and_seeded(self):
        first = _build("rewrite-stream", 3)
        self.assertEqual(first, _build("rewrite-stream", 3))
        self.assertNotEqual(first[0], _build("rewrite-stream", 4)[0])
        requests = first[0]["requests"]
        self.assertGreaterEqual(len(requests), 100)
        self.assertEqual(sum(not r["constant"] for r in requests), len(requests) // 10)

    def test_coefficients_are_exact_strings(self):
        replay, _, files = _build("gb-ladder", 1)
        for text in files.values():
            for coeffs in json.loads(text)["f"]:
                for c in coeffs:
                    self.assertIsInstance(c, str)
                    self.assertNotIn(".", c)
        self.assertEqual(sorted(replay["instances"]), ["dense5", "dense6"])

    def test_request_sizes_are_skewed(self):
        sizes = sorted(workloads.request_sizes())
        median = sizes[len(sizes) // 2]
        self.assertGreaterEqual(sum(s >= 10 * median for s in sizes), 3)


class MetricNameTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            listed = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
            self.assertEqual(listed, table)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_names_follow_the_grammar(self):
        names = list(run.END_TO_END) + list(run.PER_LAYER) + list(run.DETAIL_UNITS)
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        units = [u for u, _ in run.END_TO_END.values()] + [u for u, _ in run.PER_LAYER.values()]
        for unit in units + list(run.DETAIL_UNITS.values()):
            self.assertRegex(unit, UNIT)
        self.assertNotRegex("groebner reduce", NAME)
        self.assertNotRegex(".calls", NAME)


class PeakRssTest(unittest.TestCase):
    ALLOC = "b = bytearray(b'x') * ({mb} * 2**20); print('ready', flush=True)"

    def _rss(self, mb):
        child = run.run_child([sys.executable, "-c", self.ALLOC.format(mb=mb)], timeout=60)
        self.assertEqual(child.returncode, 0)
        self.assertIsNotNone(child.ready_s)
        return child.peak_rss_mb

    def test_rss_of_each_child_not_a_running_maximum(self):
        big = self._rss(96)
        small = self._rss(1)
        self.assertGreaterEqual(big, 96)
        self.assertLess(big, 96 + 64)
        self.assertLess(small, 64)


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.ops = workloads.selfcheck_ops(cls.tmp.name)
        cls.results = [child.run_op(constalg.cli, op.argv) for op in cls.ops]

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def _op(self, kind):
        i = next(i for i, op in enumerate(self.ops) if op.kind == kind)
        return self.ops[i], dict(self.results[i])

    def test_correct_outputs_pass(self):
        gate = Gate(constalg)
        for op, result in zip(self.ops, self.results):
            self.assertIsNone(gate.check(op, result), op.argv[0])

    def test_corrupted_rewrite_is_rejected(self):
        op, result = self._op("rewrite")
        self.assertIn("5*x1*u2_3", result["stdout"])
        result["stdout"] = result["stdout"].replace("5*x1*u2_3", "4*x1*u2_3")
        self.assertIn("differs", Gate(constalg).check(op, result))

    def test_unparsable_rewrite_is_rejected(self):
        op, result = self._op("rewrite")
        result["stdout"] = "u1_2 *"
        self.assertIn("could not be checked", Gate(constalg).check(op, result))

    def test_wrong_count_and_verdict_are_rejected(self):
        gate = Gate(constalg)
        op, result = self._op("count")
        result["stdout"] = f"{op.expect['value'] + 1}\n"
        self.assertIsNotNone(gate.check(op, result))
        op, result = self._op("verify-gb")
        result["stdout"] = result["stdout"].replace("verdict: verified", "verdict: FAILED")
        self.assertIsNotNone(gate.check(op, result))
        op, result = self._op("check")
        result["error"] = "BudgetExceededError: too big"
        self.assertIn("exception", gate.check(op, result))

    def test_nonconstant_must_exit_1(self):
        op, result = self._op("check")
        op = workloads.Op(op.argv, "check", dict(op.expect, constant=False))
        self.assertIsNotNone(Gate(constalg).check(op, result))
        self.assertIsNone(Gate(constalg).check(op, dict(result, rc=1, stdout="not a constant\n")))


class TracerTest(unittest.TestCase):
    def test_selfcheck_counts_and_clean_uninstall(self):
        originals = (constalg.orders.dill_key, constalg.poly.leading_term, constalg.cli.run)
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(constalg.normal_words.leading_term, originals[1])
            self.assertIs(constalg.normal_words.leading_term, constalg.groebner.leading_term)
            with tempfile.TemporaryDirectory() as workdir:
                ops = workloads.selfcheck_ops(workdir)
                results = [child.run_op(constalg.cli, op.argv) for op in ops]
                stats = tracer.snapshot()
                report = {"selfcheck_stats": stats}
                self.assertEqual(run.selfcheck_checks(ops, report), [None] * 3)
        finally:
            tracer.uninstall()
        self.assertEqual(
            (constalg.orders.dill_key, constalg.poly.leading_term, constalg.cli.run), originals
        )
        self.assertIs(constalg.normal_words.dill_key, originals[0])
        self.assertEqual([r["rc"] for r in results], [0] * len(ops))
        self.assertEqual(stats["cli.run.calls"], len(ops))
        self.assertGreater(stats["orders.dill_key.calls"], stats["orders.dill_key.distinct"])

    def test_traced_output_is_byte_identical(self):
        with tempfile.TemporaryDirectory() as workdir:
            argv = workloads.selfcheck_ops(workdir)[-1].argv
            plain = child.run_op(constalg.cli, argv)
            tracer = Tracer()
            tracer.install()
            try:
                traced = child.run_op(constalg.cli, argv)
            finally:
                tracer.uninstall()
        self.assertEqual(plain["stdout"], traced["stdout"])


if __name__ == "__main__":
    unittest.main()
