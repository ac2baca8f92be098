"""Instances, the derivation, and f-adic expansion."""

import random
from fractions import Fraction

import pytest

from constalg import (
    InstanceError,
    Polynomial,
    ProblemInstance,
    apply_delta,
    build_generators,
    f_adic_expand,
    is_constant,
    parse_poly,
    pi_substitute,
    ring_a,
    u_pairs,
)
from constalg.derivation import delta_terms
from helpers import random_apoly, random_instance


def test_instance_fields():
    inst = ProblemInstance.from_coeffs(3, [[0, 1], [1, 0, 1], [0, 0, 0, 2]])
    assert inst.m == (1, 2, 3)
    assert inst.lc == (1, 1, 2)
    assert inst.f[1] == (Fraction(1), Fraction(0), Fraction(1))


def test_instance_degrees_are_computed_once():
    inst = ProblemInstance.from_coeffs(2, [[0, 1], [1, 0, 3]])
    twin = ProblemInstance.from_coeffs(2, [[0, 1], [1, 0, 3]])
    assert inst.m is inst.m and inst.lc is inst.lc
    assert inst == twin and hash(inst) == hash(twin)
    assert inst.to_json_dict() == {"d": 2, "f": [["0", "1"], ["1", "0", "3"]]}


def test_instance_trims_trailing_zeros():
    inst = ProblemInstance.from_coeffs(1, [[0, 1, 0, 0]])
    assert inst.m == (1,)


def test_instance_rejects_constant_f():
    with pytest.raises(InstanceError):
        ProblemInstance.from_coeffs(2, [[3], [0, 1]])


def test_instance_rejects_zero_f():
    with pytest.raises(InstanceError):
        ProblemInstance.from_coeffs(2, [[0, 1], [0]])
    with pytest.raises(InstanceError):
        ProblemInstance.from_coeffs(2, [[0, 1], []])


def test_instance_rejects_bad_d():
    with pytest.raises(InstanceError):
        ProblemInstance.from_coeffs(0, [])
    with pytest.raises(InstanceError):
        ProblemInstance.from_coeffs(2, [[0, 1]])


def test_instance_json_rationals():
    inst = ProblemInstance.from_json_dict({"d": 2, "f": [["3/2", 1], [0, "2"]]})
    assert inst.f[0] == (Fraction(3, 2), Fraction(1))
    assert inst.f[1] == (Fraction(0), Fraction(2))


def test_instance_json_rejects_floats_and_garbage():
    with pytest.raises(InstanceError):
        ProblemInstance.from_json_dict({"d": 2, "f": [[0.5, 1], [0, 1]]})
    with pytest.raises(InstanceError):
        ProblemInstance.from_json_dict({"d": 2, "f": [["x", 1], [0, 1]]})
    with pytest.raises(InstanceError):
        ProblemInstance.from_json_dict({"d": 2})
    with pytest.raises(InstanceError):
        ProblemInstance.from_json_dict([1, 2])


def test_apply_delta_on_y():
    inst = ProblemInstance.from_coeffs(1, [[0, 0, 1]])  # f1 = x1^2
    assert apply_delta(inst, parse_poly("y1", "A", 1)) == parse_poly("x1^2", "A", 1)


def test_apply_delta_kills_x():
    inst = ProblemInstance.from_coeffs(1, [[0, 1]])
    assert apply_delta(inst, parse_poly("x1^3", "A", 1)).is_zero()


def test_delta_terms_of_one_monomial():
    inst = ProblemInstance.from_coeffs(2, [[2, 1], [0, 0, 3]])  # f1 = x1 + 2, f2 = 3*x2^2
    (mono,) = parse_poly("x1*y1^2*y2^3", "A", 2).terms
    terms = list(delta_terms(inst.f, mono, Fraction(5, 2)))
    assert len({m for m, _ in terms}) == len(terms)
    expected = parse_poly("5*x1^2*y1*y2^3 + 10*x1*y1*y2^3 + 45/2*x1*x2^2*y1^2*y2^2", "A", 2)
    assert dict(terms) == expected.terms
    (pure_x,) = parse_poly("x1^4*x2", "A", 2).terms
    assert list(delta_terms(inst.f, pure_x)) == []


def test_apply_delta_determinant_identity():
    inst = ProblemInstance.from_coeffs(2, [[0, 1], [0, 0, 1]])  # f1=x1, f2=x2^2
    g = parse_poly("x1*y2 - x2^2*y1", "A", 2)
    assert apply_delta(inst, g).is_zero()


def test_is_constant_examples():
    rng = random.Random(31)
    inst = random_instance(rng, 3)
    pure_x = parse_poly("x1^2*x3 - 5*x2", "A", 3)
    assert is_constant(inst, pure_x)
    assert not is_constant(inst, parse_poly("y1", "A", 3))


def test_pi_image_of_pair_product_is_constant():
    rng = random.Random(37)
    inst = random_instance(rng, 4)
    table = build_generators(inst)
    g = pi_substitute(table, parse_poly("u1_2*u3_4", "P", 4))
    assert is_constant(inst, g)


def test_leibniz_rule_randomized():
    rng = random.Random(41)
    for _ in range(1000):
        d = rng.randint(1, 3)
        inst = random_instance(rng, d, max_m=3)
        g = random_apoly(rng, d, terms=2, max_exp=2)
        h = random_apoly(rng, d, terms=2, max_exp=2)
        assert apply_delta(inst, g * h) == apply_delta(inst, g) * h + g * apply_delta(
            inst, h
        )


def test_linearity_randomized():
    rng = random.Random(43)
    for _ in range(300):
        d = rng.randint(1, 3)
        inst = random_instance(rng, d, max_m=3)
        g = random_apoly(rng, d, terms=3)
        h = random_apoly(rng, d, terms=3)
        a, b = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4), 3)
        assert apply_delta(inst, g * a + h * b) == apply_delta(inst, g) * a + apply_delta(
            inst, h
        ) * b


def test_delta_annihilates_every_generator():
    rng = random.Random(47)
    for d in (2, 3, 4, 5):
        inst = random_instance(rng, d)
        table = build_generators(inst)
        for j, k in u_pairs(d):
            assert apply_delta(inst, table.u_power(j, k, 1)).is_zero()


def test_f_adic_example():
    # g = x^3 against f = x^2 + 1 expands as q0 = -x, q1 = x
    inst = ProblemInstance.from_coeffs(1, [[1, 0, 1]])
    layers = f_adic_expand(inst, 1, parse_poly("x1^3", "A", 1))
    assert layers == [parse_poly("-x1", "A", 1), parse_poly("x1", "A", 1)]
    fpoly = inst.f_polynomial(1)
    total = Polynomial.zero(inst.ring_a)
    for n, q in enumerate(layers):
        total = total + q * fpoly**n
    assert total == parse_poly("x1^3", "A", 1)


def test_f_adic_constant_and_tautology():
    inst = ProblemInstance.from_coeffs(2, [[0, 1, 2], [0, 1]])
    c = Polynomial.constant(inst.ring_a, Fraction(5, 3))
    assert f_adic_expand(inst, 1, c) == [c]
    f1 = inst.f_polynomial(1)
    assert f_adic_expand(inst, 1, f1) == [
        Polynomial.zero(inst.ring_a),
        Polynomial.constant(inst.ring_a, 1),
    ]


def test_f_adic_rejects_foreign_variables():
    inst = ProblemInstance.from_coeffs(2, [[0, 1], [0, 1]])
    with pytest.raises(ValueError):
        f_adic_expand(inst, 1, parse_poly("x2", "A", 2))
    with pytest.raises(ValueError):
        f_adic_expand(inst, 1, parse_poly("y1", "A", 2))


def test_f_adic_round_trip_randomized():
    rng = random.Random(53)
    for _ in range(200):
        d = rng.randint(1, 3)
        i = rng.randint(1, d)
        inst = random_instance(rng, d, max_m=5)
        ring = ring_a(d)
        g = Polynomial.zero(ring)
        for power in range(rng.randint(0, 12) + 1):
            c = rng.randint(-9, 9)
            if c:
                g = g + parse_poly(f"x{i}^{power}", "A", d) * c
        layers = f_adic_expand(inst, i, g)
        mi = inst.m[i - 1]
        fpoly = inst.f_polynomial(i)
        total = Polynomial.zero(ring)
        for n, q in enumerate(layers):
            assert q.degree() < mi
            total = total + q * fpoly**n
        assert total == g
