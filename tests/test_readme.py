"""The README's Library example runs as written."""

import re
from pathlib import Path

from constalg.derivation import MAX_D
from constalg.groebner import MAX_COMPLETION_ELEMENTS, MAX_REDUCTION_STEPS, MAX_VERIFY_PAIRS
from constalg.normal_words import (
    MAX_COUNT_WORK,
    MAX_NORMAL_WORDS,
    MAX_PEEL_STEPS,
    MAX_SLICE_MONOMIALS,
)
from constalg.poly import FIELD_BITS, MAX_EXPONENT, MAX_TERMS
from constalg.presentation import MAX_RELATIONS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README has no python block under '## Library'"
    exec(compile(match.group(1), "README.md", "exec"), {})


def test_quoted_budgets_match_constants():
    text = " ".join(README.read_text(encoding="utf-8").split())
    for phrase in (
        f"more than {MAX_NORMAL_WORDS:,} words",
        f"the {MAX_NORMAL_WORDS:,}-word cap",
        f"more than {MAX_SLICE_MONOMIALS:,} monomials",
        f"more than {MAX_RELATIONS:,} relations (`presentation.MAX_RELATIONS`",
        f"more than {MAX_VERIFY_PAIRS:,} pairs of relations (`groebner.MAX_VERIFY_PAIRS`",
        f"after {MAX_REDUCTION_STEPS:,} reduction steps (`groebner.MAX_REDUCTION_STEPS`)",
        f"adding {MAX_COMPLETION_ELEMENTS} elements (`groebner.MAX_COMPLETION_ELEMENTS`)",
        f"peeling {MAX_PEEL_STEPS:,} words (`normal_words.MAX_PEEL_STEPS`)",
        f"may not exceed {MAX_COUNT_WORK:,} coefficient operations",
        f"`d` above {MAX_D}",
        f"`d <= {MAX_D}` (`derivation.MAX_D`)",
        f"above {MAX_EXPONENT:,} (`poly.MAX_EXPONENT`,",
        f"caps every exponent at {MAX_EXPONENT:,} (`poly.MAX_EXPONENT`)",
        f"in {FIELD_BITS}-bit fields (`poly.FIELD_BITS`)",
        f"more than {MAX_TERMS:,} terms (`poly.MAX_TERMS`)",
    ):
        assert phrase in text, phrase
