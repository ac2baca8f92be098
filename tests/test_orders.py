"""DILL order variants and the A-lex order."""

import operator
import random

import pytest

from constalg import (
    CORRECTED,
    LITERAL,
    AMonomial,
    LexOrder,
    PMonomial,
    dill_key,
    leading_term,
    parse_poly,
)
from helpers import random_pmonomial, sparse_dill_key, sparse_of


def mono(text, d):
    p = parse_poly(text, "P", d)
    ((m, c),) = p.terms.items()
    assert c == 1
    return m


def test_interval_length_decides():
    # clause: larger total interval length wins once u-degrees tie
    assert dill_key(mono("u1_3*u2_4", 4)) > dill_key(mono("u1_2*u3_4", 4))


def test_corrected_tie_break_prefers_earlier_pair():
    # q, L, p all tie; u1_3 precedes u1_4 in the variable precedence
    assert dill_key(mono("u1_3*u2_4", 4)) > dill_key(mono("u1_4*u2_3", 4))


def test_literal_tie_break_flips_the_quadratic_lead():
    assert dill_key(mono("u1_3*u2_4", 4), LITERAL) < dill_key(mono("u1_4*u2_3", 4), LITERAL)


def test_literal_compares_x_degree_first():
    # x-degree dominates under the literal clause order, u-degree under corrected
    a = mono("x1^3*u2_3", 3)
    b = mono("x2*u1_3", 3)
    assert dill_key(a, LITERAL) > dill_key(b, LITERAL)
    assert dill_key(a, CORRECTED) < dill_key(b, CORRECTED)


def test_mixed_relation_lead_decided_at_interval_length():
    # m=(2,3,1): the (1,3) interval beats (2,3) and (1,2) regardless of x-part
    s = parse_poly("x1^2*u2_3 - x2^3*u1_3 + x3*u1_2", "P", 3)
    from constalg import DillOrder

    lead, coeff = leading_term(s, DillOrder())
    assert lead == mono("x2^3*u1_3", 3)
    assert coeff == -1


def test_equal_only_for_identical():
    rng = random.Random(13)
    for _ in range(2000):
        v = random_pmonomial(rng, 4)
        w = random_pmonomial(rng, 4)
        for variant in (CORRECTED, LITERAL):
            assert (dill_key(v, variant) == dill_key(w, variant)) == (v == w)


def test_transitivity_randomized():
    rng = random.Random(17)
    for _ in range(10_000):
        a = random_pmonomial(rng, 4)
        b = random_pmonomial(rng, 4)
        c = random_pmonomial(rng, 4)
        ka, kb, kc = dill_key(a), dill_key(b), dill_key(c)
        if ka >= kb and kb >= kc:
            assert ka >= kc


def test_multiplicativity_randomized():
    rng = random.Random(19)
    for _ in range(10_000):
        v = random_pmonomial(rng, 4, max_x=2, max_u=2, max_factors=2)
        w = random_pmonomial(rng, 4, max_x=2, max_u=2, max_factors=2)
        z = random_pmonomial(rng, 4, max_x=2, max_u=2, max_factors=2)
        kv, kw, kvz, kwz = (dill_key(m) for m in (v, w, v.mul(z), w.mul(z)))
        assert (kvz > kwz, kvz == kwz) == (kv > kw, kv == kw)


def test_unit_minimality():
    rng = random.Random(23)
    one = PMonomial.one(4)
    for _ in range(10_000):
        v = random_pmonomial(rng, 4)
        if v != one:
            assert dill_key(v) > dill_key(one)


def test_key_of_product_adds_componentwise():
    # A product's key is the sum of its factors' keys less the key of 1,
    # and products order like the reference keys.
    rng = random.Random(29)
    assert dill_key(PMonomial.one(4)) == 0
    for variant in (CORRECTED, LITERAL):
        unit = dill_key(PMonomial.one(4), variant)
        for _ in range(1000):
            v = random_pmonomial(rng, 4)
            w = random_pmonomial(rng, 4)
            z = random_pmonomial(rng, 4)
            vw, vz = v.mul(w), v.mul(z)
            assert dill_key(vw, variant) == dill_key(v, variant) + dill_key(w, variant) - unit
            reference = (sparse_dill_key(sparse_of(m), variant) for m in (vw, vz))
            assert (dill_key(vw, variant) < dill_key(vz, variant)) == operator.lt(*reference)


def test_alex_precedence():
    order = LexOrder()
    x1sq = AMonomial((2, 0), (0, 0))
    y2 = AMonomial((0, 0), (0, 1))
    assert order.key(x1sq) > order.key(y2)
    # x1 > y1 > x2 > y2
    assert order.key(AMonomial((1, 0), (0, 0))) > order.key(AMonomial((0, 0), (1, 0)))
    assert order.key(AMonomial((0, 0), (1, 0))) > order.key(AMonomial((0, 1), (0, 0)))


def test_alex_key_inequality_for_peeling():
    # x_j^m_j * y_k beats y_j * x_k^m_k whenever j < k
    for d in range(2, 7):
        for j in range(1, d):
            for k in range(j + 1, d + 1):
                for mj in range(1, 7):
                    for mk in range(1, 7):
                        left = AMonomial(
                            tuple(mj if t == j - 1 else 0 for t in range(d)),
                            tuple(1 if t == k - 1 else 0 for t in range(d)),
                        )
                        right = AMonomial(
                            tuple(mk if t == k - 1 else 0 for t in range(d)),
                            tuple(1 if t == j - 1 else 0 for t in range(d)),
                        )
                        assert LexOrder().key(left) > LexOrder().key(right)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        dill_key(PMonomial.one(2), "bogus")
