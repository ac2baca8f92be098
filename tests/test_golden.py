"""verify-gb against certificates and stdout recorded from the reference code.

The files under tests/golden were written by

    constalg verify-gb --instance NAME.json --variant V --certificate NAME.V.cert.json

with stdout saved to NAME.V.stdout and the run-dependent `generated_at`
field removed.  They were recorded before the pair phase gained the
coprime-lead criterion and the indexed lead table, and those changes must
leave every recorded field and every byte of stdout unchanged.  Fields
added to the certificate since then are ignored.
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
