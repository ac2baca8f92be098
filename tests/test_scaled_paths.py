"""The integer-scaled derivation and generator images against their Fraction references.

`is_constant` decides delta(g) = 0 from L*D*delta(g) over the integers and
`rewrite_constant` peels with the images L^e * pi(w); both must agree with
the Fraction paths in `apply_delta` and `helpers.reference_rewrite` on
instances whose f_i have denominators 2..5.
"""

import random
from fractions import Fraction

from constalg import (
    AMonomial,
    Polynomial,
    apply_delta,
    build_generators,
    format_poly,
    is_constant,
    pi_substitute,
    rewrite_constant,
)
from constalg.derivation import delta_terms
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
