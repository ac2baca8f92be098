"""Correctness gate: every operation's exit code and output is checked.

`Gate.check(op, result)` returns None when the operation is correct and a
one-line reason otherwise.  A reason is always counted as a failure; the
caller never drops one.
"""

from __future__ import annotations

import json

VERIFIED = "verdict: verified reduced Groebner basis"


class Gate:
    def __init__(self, constalg):
        self.constalg = constalg
        self._tables: dict = {}

    def _table(self, path: str):
        table = self._tables.get(path)
        if table is None:
            inst = self.constalg.load_instance(path)
            table = self._tables[path] = self.constalg.build_generators(inst)
        return table

    def check(self, op, result: dict) -> str | None:
        if result["error"] is not None:
            return f"exception: {result['error']}"
        try:
            return getattr(self, "_" + op.kind.replace("-", "_"))(op.expect, result)
        except Exception as exc:  # an unreadable output is a wrong output
            return f"{op.kind}: output could not be checked ({type(exc).__name__}: {exc})"

    def _verify_gb(self, expect, result):
        pairs = expect["pairs"]
        if result["rc"] != 0 or VERIFIED not in result["stdout"].splitlines():
            return f"verify-gb: exit {result['rc']}, verdict not verified"
        if f"s-polynomial pairs: {pairs}/{pairs} reduce to zero" not in result["stdout"]:
            return f"verify-gb: expected {pairs}/{pairs} pairs to reduce to zero"
        with open(expect["certificate"], encoding="utf-8") as handle:
            cert = json.load(handle)
        if not cert["verdict"] or len(cert["pairs"]) != pairs:
            return "verify-gb: certificate disagrees with the verdict"
        return None

    def _count(self, expect, result):
        return self._exact(result, 0, f"{expect['value']}\n", "normal-words")

    def _dim(self, expect, result):
        return self._exact(result, 0, f"dimension: {expect['value']}\n", "kernel-dim")

    def _check(self, expect, result):
        if expect["constant"]:
            return self._exact(result, 0, "constant\n", "check")
        return self._exact(result, 1, "not a constant\n", "check")

    def _rewrite(self, expect, result):
        if not expect["constant"]:
            return self._exact(result, 1, "", "rewrite")
        if result["rc"] != 0:
            return f"rewrite: exit {result['rc']} on a constant"
        c = self.constalg
        d = expect["d"]
        h = c.parse_poly(result["stdout"].strip(), c.RING_P, d)
        g = c.parse_poly(expect["poly"], c.RING_A, d)
        if c.pi_substitute(self._table(expect["instance"]), h) != g:
            return "rewrite: pi(output) differs from the request"
        return None

    @staticmethod
    def _exact(result, rc, stdout, what):
        if result["rc"] != rc or result["stdout"] != stdout:
            return (
                f"{what}: got exit {result['rc']} and {result['stdout'][:60]!r}, "
                f"expected exit {rc} and {stdout!r}"
            )
        return None


def hilbert_checks(ops, results) -> list:
    """At each point with both a count and a dimension: None or the mismatch."""
    seen: dict = {}
    for op, result in zip(ops, results):
        if op.kind in ("count", "dim"):
            seen.setdefault(tuple(op.expect["point"]), {})[op.kind] = result["stdout"]
    checks = []
    for point, outputs in seen.items():
        if len(outputs) == 2:
            count = outputs["count"].strip()
            dim = outputs["dim"].strip().removeprefix("dimension: ")
            checks.append(None if count == dim else f"{point}: {count} words, dimension {dim}")
    return checks
