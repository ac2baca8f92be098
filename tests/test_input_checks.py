"""Checks that reject a bad argument or a misuse before any work is done, one case each."""

import pytest

from constalg import (
    AMonomial,
    BudgetExceededError,
    DillOrder,
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
    parse_poly,
    pi_substitute,
    recover_word_from_lead,
    reduce,
    rewrite_constant,
    ring_a,
    ring_p,
    verify_reduced,
)
from constalg import normal_words
from constalg.normal_words import image_degree
from constalg.derivation import check_field_room
from constalg.poly import FIELD_MAX, MAX_EXPONENT, univariate

NOWICKI3 = ProblemInstance.from_coeffs(3, [[0, 1]] * 3)
X1 = parse_poly("x1", "A", 1)
OVER_CAP = AMonomial((0, 0, 0), (0, 0, MAX_EXPONENT + 1))
P4_POLY = parse_poly("u1_3*u2_4 + x1", "P", 4)
P5_POLY = parse_poly("u1_3 + x2", "P", 5)


def test_independence_check_slice_guard(monkeypatch):
    monkeypatch.setattr(normal_words, "MAX_SLICE_MONOMIALS", 2)
    with pytest.raises(BudgetExceededError, match="exceed the guard bound 2"):
        independence_check(NOWICKI3, 2)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: enumerate_normal_words(NOWICKI3, -1), ValueError, "nonnegative"),
        (lambda: image_degree(NOWICKI3, PMonomial.one(4)), RingMismatchError, "d=4"),
        (lambda: recover_word_from_lead(NOWICKI3, AMonomial.one(2)), RingMismatchError, "d=2"),
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
            lambda: Polynomial(ring_a(2), {AMonomial.one(3): 1}),
            RingMismatchError,
            "does not belong",
        ),
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
        (lambda: Ring("Q", 2), ValueError, "flavor"),
        (lambda: Ring("A", 0), ValueError, ">= 1"),
        (lambda: DillOrder("bogus"), ValueError, "bogus"),
        (lambda: univariate(ring_p(3), 0, ((1, 1),)), ValueError, "out of range"),
        (lambda: univariate(ring_a(3), 4, ((1, 1),)), ValueError, "out of range"),
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
        "image-degree-other-d",
        "recover-word-other-d",
        "pi-substitute-ring-a",
        "is-constant-ring-p",
        "rewrite-constant-ring-p",
        "polynomial-foreign-monomial",
        "polynomial-wrong-width-monomial",
        "reduce-basis-other-d",
        "verify-reduced-basis-other-d",
        "polynomial-immutable",
        "pmonomial-negative-u-exponent",
        "ring-bad-flavor",
        "ring-d-below-1",
        "dill-order-bogus-variant",
        "univariate-index-0",
        "univariate-index-above-d",
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
