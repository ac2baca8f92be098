"""Checks that reject a bad argument or a misuse before any work is done, one case each."""

import json

import pytest

from constalg import (
    AMonomial,
    BudgetExceededError,
    DillOrder,
    InstanceError,
    PMonomial,
    Polynomial,
    ProblemInstance,
    RingMismatchError,
    Ring,
    build_generators,
    enumerate_normal_words,
    f_adic_expand,
    independence_check,
    is_constant,
    kernel_dim_oracle,
    parse_poly,
    pi_substitute,
    recover_word_from_lead,
    reduce,
    rewrite_constant,
    ring_a,
    ring_p,
    verify_reduced,
)
from constalg import derivation, normal_words, poly
from constalg.cli import run
from constalg.normal_words import image_degree
from constalg.derivation import check_field_room
from constalg.poly import FIELD_MAX, MAX_EXPONENT, univariate

NOWICKI3 = ProblemInstance.from_coeffs(3, [[0, 1]] * 3)
X1 = parse_poly("x1", "A", 1)
OVER_CAP = AMonomial((0, 0, 0), (0, 0, MAX_EXPONENT + 1))
P4_POLY = parse_poly("u1_3*u2_4 + x1", "P", 4)
P5_POLY = parse_poly("u1_3 + x2", "P", 5)


def from_coeffs_under_cap(cap, d, coeff_lists):
    """`ProblemInstance.from_coeffs` with the exponent cap lowered to `cap`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(derivation, "MAX_EXPONENT", cap)
        return ProblemInstance.from_coeffs(d, coeff_lists)


def test_independence_check_slice_guard(monkeypatch):
    monkeypatch.setattr(normal_words, "MAX_SLICE_MONOMIALS", 2)
    with pytest.raises(BudgetExceededError, match="exceed the guard bound 2"):
        independence_check(NOWICKI3, 2)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: enumerate_normal_words(NOWICKI3, -1), ValueError, "nonnegative"),
        (lambda: kernel_dim_oracle(NOWICKI3, -1), ValueError, "degree bound must be nonnegative"),
        (lambda: image_degree(NOWICKI3, PMonomial.one(4)), RingMismatchError, "d=4"),
        (
            lambda: recover_word_from_lead(NOWICKI3, AMonomial((1, 0, 0, 0), (0, 0, 0, 0))),
            RingMismatchError,
            "d=3",
        ),
        (
            lambda: pi_substitute(build_generators(NOWICKI3), parse_poly("x1", "A", 3)),
            RingMismatchError,
            "does not match d=3",
        ),
        (lambda: is_constant(NOWICKI3, parse_poly("x1", "P", 3)), RingMismatchError, "d=3"),
        (lambda: rewrite_constant(NOWICKI3, parse_poly("x1", "P", 3)), RingMismatchError, "d=3"),
        (
            lambda: Polynomial(ring_a(2), {PMonomial.one(2): 1}),
            RingMismatchError,
            "does not belong",
        ),
        (
            lambda: Polynomial(ring_a(2), {AMonomial((1, 0, 0), (0, 0, 0)): 1}),
            RingMismatchError,
            "does not belong",
        ),
        (lambda: Polynomial(ring_a(2), {(1, 0, 0, 1): 1}), RingMismatchError, "does not belong"),
        (lambda: Polynomial(ring_a(2), {True: 1}), RingMismatchError, "does not belong"),
        (lambda: Polynomial(ring_a(2), {-1: 1}), RingMismatchError, "does not belong"),
        (
            lambda: reduce(P4_POLY, [P5_POLY], DillOrder()),
            RingMismatchError,
            "cannot combine polynomials over",
        ),
        (
            lambda: verify_reduced([P4_POLY, P5_POLY], DillOrder()),
            RingMismatchError,
            "cannot combine polynomials over",
        ),
        (lambda: setattr(Polynomial.zero(ring_a(2)), "ring", ring_a(3)), AttributeError, "immutable"),
        (lambda: PMonomial((0, 0, 0), (((1, 2), -1),)), ValueError, "nonnegative"),
        (lambda: PMonomial((0, 0, 0), (((2, 2), 1),)), ValueError, r"u-pair \(2,2\) out of range"),
        (lambda: PMonomial((0.5, 0, 0), ()), ValueError, "exponent 0.5 is not an integer"),
        (lambda: PMonomial((0, 0, 0), (((1, 2), 2.0),)), ValueError, "exponent 2.0 is not an integer"),
        (lambda: PMonomial((True, 0, 0), ()), ValueError, "exponent True is not an integer"),
        (lambda: Ring("Q", 2), ValueError, "flavor"),
        (lambda: Ring("A", 0), ValueError, ">= 1"),
        (lambda: DillOrder("bogus"), ValueError, "bogus"),
        (lambda: univariate(ring_p(3), 0, ((1, 1),)), ValueError, "out of range"),
        (lambda: univariate(ring_a(3), 4, ((1, 1),)), ValueError, "out of range"),
        (lambda: univariate(ring_a(3), 1, ((-1, 1),)), ValueError, "nonnegative"),
        (
            lambda: from_coeffs_under_cap(3, 3, [[0, 0, 0, 0, 1], [0, 1], [0, 1]]),
            InstanceError,
            r"^f_1 has degree 4, above the exponent cap of 3$",
        ),
        (lambda: f_adic_expand(NOWICKI3, 0, parse_poly("x1", "A", 3)), ValueError, "out of range"),
        (lambda: f_adic_expand(NOWICKI3, 4, parse_poly("x1", "A", 3)), ValueError, "out of range"),
        (lambda: X1 ** True, ValueError, "nonnegative integer"),
        (lambda: X1 ** False, ValueError, "nonnegative integer"),
        (
            lambda: parse_poly(f"u1_2^{MAX_EXPONENT}*x1*u1_2", "P", 3),
            BudgetExceededError,
            f"exponent {MAX_EXPONENT + 1} of u1_2 exceeds the cap",
        ),
        (
            lambda: is_constant(NOWICKI3, Polynomial(ring_a(3), {OVER_CAP: 1})),
            BudgetExceededError,
            f"exponent {MAX_EXPONENT + 1} of y3 exceeds the cap",
        ),
        (
            lambda: rewrite_constant(NOWICKI3, Polynomial(ring_a(3), {OVER_CAP: 1})),
            BudgetExceededError,
            f"exponent {MAX_EXPONENT + 1} of y3 exceeds the cap",
        ),
        (
            lambda: check_field_room(NOWICKI3, FIELD_MAX + 1),
            BudgetExceededError,
            f"could grow to {FIELD_MAX + 1}, more than a monomial field holds",
        ),
        (
            lambda: build_generators(NOWICKI3).u_power(1, 2, FIELD_MAX // 2 + 1),
            BudgetExceededError,
            "more than a monomial field holds",
        ),
    ],
    ids=[
        "enumerate-negative-bound",
        "kernel-dim-negative-bound",
        "image-degree-other-d",
        "recover-word-other-d",
        "pi-substitute-ring-a",
        "is-constant-ring-p",
        "rewrite-constant-ring-p",
        "polynomial-foreign-monomial",
        "polynomial-wrong-width-monomial",
        "polynomial-tuple-key",
        "polynomial-bool-key",
        "polynomial-negative-key",
        "reduce-basis-other-d",
        "verify-reduced-basis-other-d",
        "polynomial-immutable",
        "pmonomial-negative-u-exponent",
        "pmonomial-u-pair-out-of-range",
        "pmonomial-float-x-exponent",
        "pmonomial-float-u-exponent",
        "pmonomial-bool-x-exponent",
        "ring-bad-flavor",
        "ring-d-below-1",
        "dill-order-bogus-variant",
        "univariate-index-0",
        "univariate-index-above-d",
        "univariate-negative-power",
        "f-degree-above-exponent-cap",
        "f-adic-index-0",
        "f-adic-index-above-d",
        "pow-true",
        "pow-false",
        "parse-ring-p-exponent-cap",
        "is-constant-exponent-cap",
        "rewrite-constant-exponent-cap",
        "field-room",
        "u-power-field-room",
    ],
)
def test_input_check_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_relations_refuse_an_f_above_the_exponent_cap(monkeypatch, tmp_path, capsys):
    # The loader caps deg f_i by the parser's exponent cap, so every printed
    # relation reads back.  Under a loader cap of 3, f_1 = x1^3 loads and
    # prints; f_1 = x1^4 exits 2 before a relation is built.
    assert derivation.MAX_EXPONENT == poly.MAX_EXPONENT
    monkeypatch.setattr(derivation, "MAX_EXPONENT", 3)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"d": 3, "f": [[0, 0, 0, 1], [0, 1], [0, 1]]}))
    assert run(["relations", "--instance", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and any("x1^3" in line for line in lines)
    for line in lines:
        parse_poly(line.split(": ", 1)[1], "P", 3)
    path.write_text(json.dumps({"d": 3, "f": [[0, 0, 0, 0, 1], [0, 1], [0, 1]]}))
    assert run(["relations", "--instance", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: f_1 has degree 4, above the exponent cap of 3\n"
