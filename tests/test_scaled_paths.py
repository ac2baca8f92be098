"""The integer-scaled derivation and generator images against their Fraction references.

`is_constant` decides delta(g) = 0 from L*D*delta(g) over the integers and
`rewrite_constant` peels with the images L^e * pi(w) by fraction-free
pseudo-division, both on packed ring-A monomials; both must agree with the
Fraction paths in `apply_delta`, `helpers.reference_image` and
`helpers.reference_rewrite` on instances with integer f_i and on instances
whose f_i have denominators 2..5 or rational leads such as 3/2, 2/3 and
5/4.  Inputs at the field limit must still agree; one past it is refused.
"""

import math
import random
from fractions import Fraction

import pytest

from constalg import (
    AMonomial,
    BudgetExceededError,
    PMonomial,
    Polynomial,
    ProblemInstance,
    apply_delta,
    build_generators,
    format_poly,
    is_constant,
    parse_poly,
    pi_substitute,
    rewrite_constant,
    u_pairs,
)
from constalg import normal_words
from constalg.derivation import delta_plan, delta_terms, is_constant_int
from constalg.normal_words import rewrite_constant_int
from constalg.poly import FIELD_MAX, MAX_EXPONENT, int_terms, parse_poly_int
from constalg.presentation import pi_image_of_monomial, scaled_image
from helpers import (
    random_amonomial,
    random_apoly,
    random_pmonomial,
    random_instance,
    random_ppoly,
    rational_instance,
    reference_image,
    reference_rewrite,
)

DIMENSIONS = range(2, 7)


def x_only(rng, d, terms=3):
    ring_terms = {}
    for _ in range(terms):
        mono = AMonomial(tuple(rng.randint(0, 3) for _ in range(d)), (0,) * d)
        ring_terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return ring_terms


def test_integer_view_scales_f():
    rng = random.Random(5)
    for d in DIMENSIONS:
        inst = rational_instance(rng, d)
        scale, rows = inst.integer_f
        assert all(type(c) is int for row in rows for c in row)
        assert rows == tuple(tuple(c * scale for c in fi) for fi in inst.f)
        # L divides lcm(2..5) = 60 and no proper divisor clears every denominator
        assert 60 % scale == 0
        for p in (2, 3, 5):
            if scale % p == 0:
                assert any((c * (scale // p)).denominator != 1 for fi in inst.f for c in fi)


def test_integer_delta_terms_are_l_times_delta_terms():
    rng = random.Random(7)
    for d in DIMENSIONS:
        inst = rational_instance(rng, d)
        scale, rows = inst.integer_f
        for _ in range(10):
            mono = random_amonomial(rng, d)
            exact = delta_terms(delta_plan(inst.f), [(mono, Fraction(3, 7))])
            scaled = delta_terms(delta_plan(rows), [(mono, 3)])
            assert scaled == {m: c * 7 * scale for m, c in exact.items()}
            g = Polynomial(inst.ring_a, {mono: Fraction(3, 7)})
            assert exact == apply_delta(inst, g).terms


def test_is_constant_matches_apply_delta():
    rng = random.Random(11)
    for d in DIMENSIONS:
        inst = rational_instance(rng, d)
        table = build_generators(inst)
        ring = inst.ring_a
        cases = [Polynomial.zero(ring), Polynomial(ring, x_only(rng, d))]
        for _ in range(4):
            g = pi_substitute(table, random_ppoly(rng, d, terms=3, max_x=2, max_u=2, max_factors=2))
            k = rng.randrange(d)
            y_term = AMonomial(
                tuple(rng.randint(0, 2) for _ in range(d)), tuple(int(j == k) for j in range(d))
            )
            cases.append(g)
            coeff = Fraction(rng.choice([-3, 1, 5]), 4)
            cases.append(g + Polynomial.from_term(ring, y_term, coeff))
            cases.append(random_apoly(rng, d, terms=4, max_exp=2))
        verdicts = [is_constant(inst, g) for g in cases]
        assert verdicts == [apply_delta(inst, g).is_zero() for g in cases]
        assert verdicts[:2] == [True, True]
        assert all(verdicts[2::3]) and not any(verdicts[3::3])


def test_scaled_image_is_l_power_times_reference_image():
    rng = random.Random(13)
    for d in DIMENSIONS:
        inst = rational_instance(rng, d)
        table = build_generators(inst)
        scale = inst.integer_f[0]
        for _ in range(6):
            mono = random_pmonomial(rng, d, max_x=2, max_u=2, max_factors=2)
            terms, factor = scaled_image(table, mono)
            assert factor == scale ** sum(mono[: d * (d - 1) // 2])
            assert all(type(c) is int for c in terms.values())
            expected = reference_image(inst, mono)
            assert Polynomial(inst.ring_a, terms) == expected.scale(factor)
            assert pi_image_of_monomial(table, mono) == expected


def test_rewrite_matches_reference_peel():
    rng = random.Random(17)
    for d in DIMENSIONS:
        inst = rational_instance(rng, d)
        table = build_generators(inst)
        for terms in (1, 3, 5):
            h = random_ppoly(rng, d, terms=terms, max_x=2, max_u=2, max_factors=2)
            g = pi_substitute(table, h)
            rewritten = rewrite_constant(inst, g)
            assert format_poly(rewritten) == format_poly(reference_rewrite(inst, g))
            assert pi_substitute(table, rewritten) == g


# Mixed-degree instances with rational leads, as in the rewrite-stream benchmark.
LEADS = ("3/2", "2/3", "5/4", "-4/5")
MIXED_PROFILES = ((1, 2, 1, 2, 1), (1, 2, 1, 1, 2, 1), (2, 1, 3))


def mixed_instance(rng, profile):
    lower = [rng.choice((-5, -3, -2, -1, 1, 2, 4)) for _ in range(sum(profile))]
    leads = rng.sample(LEADS * 2, len(profile))
    f, at = [], 0
    for m, lead in zip(profile, leads):
        f.append(lower[at:at + m] + [lead])
        at += m
    return ProblemInstance.from_coeffs(len(profile), f)


def request(rng, table, target):
    """g = pi(h) for a random h of u-degree 1..2 whose image has at least `target` terms."""
    inst = table.instance
    pairs = u_pairs(inst.d)
    h = Polynomial(inst.ring_p)
    while len(pi_substitute(table, h).terms) < target:
        upairs = {}
        for _ in range(rng.randint(1, 2)):
            pair = rng.choice(pairs)
            upairs[pair] = upairs.get(pair, 0) + 1
        mono = PMonomial(tuple(rng.randint(0, 1) for _ in range(inst.d)), tuple(upairs.items()))
        coeff = Fraction(rng.choice((-5, -2, -1, 1, 3, 4)), rng.randint(1, 3))
        h = h + Polynomial(inst.ring_p, {mono: coeff})
    return pi_substitute(table, h)


def test_integer_peel_matches_reference_peel(monkeypatch):
    # Spy on k = gcd(c, a) of each peel step: a/k != 1 is the branch that rescales the work.
    multipliers = []

    def gcd_spy(c, a):
        common = math.gcd(c, a)
        multipliers.append(abs(a) // common)
        return common

    monkeypatch.setattr(normal_words, "gcd", gcd_spy)
    rng = random.Random(19)
    for profile in MIXED_PROFILES:
        inst = mixed_instance(rng, profile)
        table = build_generators(inst)
        for target in (1, 20, 120):
            g = request(rng, table, target)
            terms, den = int_terms(g)
            h = rewrite_constant_int(inst, terms, den)
            assert format_poly(h) == format_poly(reference_rewrite(inst, g))
            assert pi_substitute(table, h) == g
    assert any(m != 1 for m in multipliers) and 1 in multipliers


def test_integer_peel_of_a_large_request():
    rng = random.Random(23)
    inst = mixed_instance(rng, MIXED_PROFILES[1])
    table = build_generators(inst)
    g = request(rng, table, 1000)
    assert len(g.terms) >= 1000
    terms, den = int_terms(g)
    assert den > 1 and is_constant_int(inst, terms)
    h = rewrite_constant_int(inst, terms, den)
    # the integer form may carry any positive multiple of g
    assert rewrite_constant_int(inst, {m: 6 * c for m, c in terms.items()}, 6 * den) == h
    assert format_poly(h) == format_poly(reference_rewrite(inst, g))
    assert pi_substitute(table, h) == g


def instance_for(integer_f, rng, d):
    return random_instance(rng, d, max_m=3) if integer_f else rational_instance(rng, d)


@pytest.mark.parametrize("integer_f", [True, False])
def test_packed_generator_powers_match_reference_image(integer_f):
    rng = random.Random(29 if integer_f else 31)
    for d in DIMENSIONS:
        inst = instance_for(integer_f, rng, d)
        table = build_generators(inst)
        scale = inst.integer_f[0]
        for j, k in u_pairs(d):
            for e in (0, 1, rng.randint(2, 4)):
                word = PMonomial((0,) * d, (((j, k), e),))
                expected = reference_image(inst, word).scale(scale**e)
                assert table.scaled_power(j, k, e) == expected.terms
        for _ in range(6):
            mono = random_pmonomial(rng, d, max_x=2, max_u=2, max_factors=3)
            terms, factor = scaled_image(table, mono)
            assert terms == reference_image(inst, mono).scale(factor).terms


@pytest.mark.parametrize("integer_f", [True, False])
def test_packed_peel_of_parsed_text_matches_reference_rewrite(integer_f):
    rng = random.Random(37 if integer_f else 41)
    for d in DIMENSIONS:
        inst = instance_for(integer_f, rng, d)
        table = build_generators(inst)
        for terms in (1, 4):
            h = random_ppoly(rng, d, terms=terms, max_x=2, max_u=2, max_factors=2)
            g = pi_substitute(table, h)
            packed, den = parse_poly_int(format_poly(g), "A", d)
            assert packed == int_terms(g)[0] and is_constant_int(inst, packed)
            rewritten = rewrite_constant_int(inst, packed, den)
            assert rewritten == reference_rewrite(inst, g)
            assert pi_substitute(table, rewritten) == g


# f1 = x1^4097, f2 = x2.  x2^a*u1_2 = x1^4097*x2^a*y2 - x2^(a+1)*y1 weighs a + 2
# (x1 counts 1/4097, x2 and y 1 each), so the peel is allowed while
# 4097*(a + 2) <= FIELD_MAX, although the exponents it builds stay far smaller.
WIDE_F = ProblemInstance.from_coeffs(2, [[0] * 4097 + [1], [0, 1]])
WIDE_A = FIELD_MAX // 4097 - 2


def wide_text(a):
    return f"x1^4097*x2^{a}*y2 - x2^{a + 1}*y1"


def test_peel_just_inside_the_field_limit():
    assert 4097 * (WIDE_A + 2) <= FIELD_MAX < 4097 * (WIDE_A + 3)
    assert 4097 * 2 * 2 * MAX_EXPONENT > FIELD_MAX  # the bound is computed from the terms
    g = parse_poly(wide_text(WIDE_A), "A", 2)
    packed, den = parse_poly_int(wide_text(WIDE_A), "A", 2)
    assert is_constant_int(WIDE_F, packed)
    h = rewrite_constant_int(WIDE_F, packed, den)
    assert h == reference_rewrite(WIDE_F, g) == parse_poly(f"x2^{WIDE_A}*u1_2", "P", 2)


def test_peel_just_past_the_field_limit():
    packed, den = parse_poly_int(wide_text(WIDE_A + 1), "A", 2)
    message = f"exponents could grow to {4097 * (WIDE_A + 3)}, more than a monomial field holds"
    with pytest.raises(BudgetExceededError, match=message):
        is_constant_int(WIDE_F, packed)
    with pytest.raises(BudgetExceededError, match=message):
        rewrite_constant_int(WIDE_F, packed, den)
    with pytest.raises(BudgetExceededError, match=message):
        pi_substitute(build_generators(WIDE_F), parse_poly(f"x2^{WIDE_A + 1}*u1_2", "P", 2))
