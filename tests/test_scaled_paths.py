"""The integer-scaled derivation and generator images against their Fraction references.

`is_constant` decides delta(g) = 0 from L*D*delta(g) over the integers and
`rewrite_constant` peels with the images L^e * pi(w) by fraction-free
pseudo-division; both must agree with the Fraction paths in `apply_delta`
and `helpers.reference_rewrite` on instances whose f_i have denominators
2..5 or rational leads such as 3/2, 2/3 and 5/4.
"""

import math
import random
from fractions import Fraction

from constalg import (
    AMonomial,
    PMonomial,
    Polynomial,
    ProblemInstance,
    apply_delta,
    build_generators,
    format_poly,
    is_constant,
    pi_substitute,
    rewrite_constant,
    u_pairs,
)
from constalg import normal_words
from constalg.derivation import delta_terms, is_constant_int
from constalg.normal_words import rewrite_constant_int
from constalg.poly import int_terms
from constalg.presentation import pi_image_of_monomial, scaled_image
from helpers import (
    random_amonomial,
    random_apoly,
    random_pmonomial,
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
            exact = dict(delta_terms(inst.f, mono, Fraction(3, 7)))
            scaled = dict(delta_terms(rows, mono, 3))
            assert scaled == {m: c * 7 * scale for m, c in exact.items()}


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
