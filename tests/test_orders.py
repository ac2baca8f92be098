"""DILL order variants and the A-lex order."""

import random

import pytest

from constalg import (
    CORRECTED,
    LITERAL,
    AMonomial,
    LexOrder,
    PMonomial,
    dill_compare,
    dill_key,
    leading_term,
    parse_poly,
)
from helpers import random_pmonomial


def mono(text, d):
    p = parse_poly(text, "P", d)
    ((m, c),) = p.terms.items()
    assert c == 1
    return m


def test_interval_length_decides():
    # clause: larger total interval length wins once u-degrees tie
    assert dill_compare(mono("u1_3*u2_4", 4), mono("u1_2*u3_4", 4)) == 1


def test_corrected_tie_break_prefers_earlier_pair():
    # q, L, p all tie; u1_3 precedes u1_4 in the variable precedence
    assert dill_compare(mono("u1_3*u2_4", 4), mono("u1_4*u2_3", 4)) == 1


def test_literal_tie_break_flips_the_quadratic_lead():
    assert dill_compare(mono("u1_3*u2_4", 4), mono("u1_4*u2_3", 4), LITERAL) == -1


def test_literal_compares_x_degree_first():
    # x-degree dominates under the literal clause order, u-degree under corrected
    a = mono("x1^3*u2_3", 3)
    b = mono("x2*u1_3", 3)
    assert dill_compare(a, b, LITERAL) == 1
    assert dill_compare(a, b, CORRECTED) == -1


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
            c = dill_compare(v, w, variant)
            if v == w:
                assert c == 0
            else:
                assert c != 0
                assert dill_compare(w, v, variant) == -c


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
        c = dill_compare(v, w)
        assert dill_compare(v.mul(z), w.mul(z)) == c


def test_unit_minimality():
    rng = random.Random(23)
    one = PMonomial.one(4)
    for _ in range(10_000):
        v = random_pmonomial(rng, 4)
        if v != one:
            assert dill_compare(v, one) == 1


def test_key_of_product_adds_componentwise():
    rng = random.Random(29)
    for _ in range(1000):
        v = random_pmonomial(rng, 4)
        w = random_pmonomial(rng, 4)
        kv, kw, kvw = (dill_key(m)[:3] for m in (v, w, v.mul(w)))
        assert kvw == tuple(a + b for a, b in zip(kv, kw))
    unit = dill_key(PMonomial.one(4))
    assert unit[:3] == (0, 0, 0)
    assert all(t == 0 for t in unit[3])


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
