"""CLI output against files recorded from the reference code.

The verify-gb files under tests/golden were written by

    constalg verify-gb --instance NAME.json --variant V --certificate NAME.V.cert.json

with stdout saved to NAME.V.stdout and the run-dependent `generated_at`
field removed.  They were recorded before the pair phase gained the
coprime-lead criterion and the indexed lead table, and those changes must
leave every recorded field and every byte of stdout unchanged.  The
corrected certificates predate the coprime fields, which their check
ignores; the paper certificates, whose pair list is empty, must match
byte for byte.
"""

import json
from pathlib import Path

import pytest

from constalg.cli import run

GOLDEN = Path(__file__).parent / "golden"
NAMES = ["nowicki4", "dense4", "nowicki5", "dense5", "nowicki6", "dense6"]
VARIANTS = ["corrected", "paper"]


def assert_matches_recorded(recorded, new, where="certificate"):
    """Every key of `recorded` is present in `new` with a matching value."""
    if isinstance(recorded, dict):
        assert isinstance(new, dict), where
        for key, value in recorded.items():
            assert key in new, f"{where}.{key} missing"
            assert_matches_recorded(value, new[key], f"{where}.{key}")
    elif isinstance(recorded, list):
        assert isinstance(new, list) and len(new) == len(recorded), where
        for index, (old_item, new_item) in enumerate(zip(recorded, new)):
            assert_matches_recorded(old_item, new_item, f"{where}[{index}]")
    else:
        assert new == recorded, where


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", NAMES)
def test_verify_gb_matches_golden(name, variant, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code = run(
        [
            "verify-gb",
            "--instance",
            str(GOLDEN / f"{name}.json"),
            "--variant",
            variant,
            "--certificate",
            str(cert_path),
        ]
    )
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.{variant}.stdout").read_text()
    recorded = json.loads((GOLDEN / f"{name}.{variant}.cert.json").read_text())
    assert code == (0 if recorded["verdict"] else 1)
    assert_matches_recorded(recorded, json.loads(cert_path.read_text()))
    if variant == "paper":
        assert cert_path.read_bytes() == (GOLDEN / f"{name}.paper.cert.json").read_bytes()


# relations listings, recorded before the relation families became one list
# of `Relation` records:
#
#     constalg relations --instance NAME.json > NAME.relations.stdout
@pytest.mark.parametrize("name", [*NAMES, "mixed4"])
def test_relations_listing_matches_golden(name, capsys):
    assert run(["relations", "--instance", str(GOLDEN / f"{name}.json")]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.relations.stdout").read_text()


# kernel-dim --basis and normal-words listings, recorded before the sparse
# back-substitution in `linalg.nullspace` and the closed-form image degree in
# `enumerate_normal_words`:
#
#     constalg kernel-dim --instance NAME.json --max-deg N --basis
#         > NAME.kernel-dim.N.stdout
#     constalg normal-words --instance NAME.json --max-deg N --variant V
#         > NAME.normal-words.N.V.stdout
#
# mixed4 is a seeded instance with deg f = (1, 3, 2, 2) and rational leads.
KERNEL_SLICES = [("nowicki3", 7), ("nowicki4", 5), ("mixed4", 5)]
WORD_SLICES = [("nowicki5", 7), ("mixed4", 6)]


@pytest.mark.parametrize("name,degree", KERNEL_SLICES)
def test_kernel_dim_basis_matches_golden(name, degree, capsys):
    argv = ["kernel-dim", "--instance", str(GOLDEN / f"{name}.json"), "--max-deg", str(degree)]
    assert run(argv + ["--basis"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.kernel-dim.{degree}.stdout").read_text()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name,degree", WORD_SLICES)
def test_normal_words_listing_matches_golden(name, degree, variant, capsys):
    argv = ["normal-words", "--instance", str(GOLDEN / f"{name}.json"), "--max-deg", str(degree)]
    assert run(argv + ["--variant", variant]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.normal-words.{degree}.{variant}.stdout").read_text()


# check and rewrite on the golden instances, recorded before `is_constant`
# and the peel in `rewrite_constant` moved to integer-scaled arithmetic:
# each case of rewrite.json holds the text g and, for
#
#     constalg check --instance NAME.json --poly=G
#     constalg rewrite --instance NAME.json --poly=G
#
# the exit code and stdout.  g is pi(h) for a seeded h, or pi(h) plus one
# term with a y-factor (not a constant: exit 1, empty stdout).  The last three
# cases, on stream5 and stream6, are requests of the rewrite-stream benchmark
# (seed 81), recorded before the scanner and the peel moved to ints over one
# denominator: the largest constant on each instance (413 and 1,147 terms)
# and a non-constant.
REWRITE_CASES = json.loads((GOLDEN / "rewrite.json").read_text())


@pytest.mark.parametrize("command", ["check", "rewrite"])
@pytest.mark.parametrize("case", REWRITE_CASES, ids=lambda case: f"{case['instance']}-{len(case['poly'])}")
def test_check_and_rewrite_match_golden(case, command, capsys):
    path = str(GOLDEN / f"{case['instance']}.json")
    code = run([command, "--instance", path, f"--poly={case['poly']}"])
    assert (code, capsys.readouterr().out) == (case[command]["exit"], case[command]["stdout"])
