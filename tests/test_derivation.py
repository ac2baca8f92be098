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
from constalg.derivation import delta_plan, delta_terms
from constalg.poly import int_terms, parse_poly_int
from helpers import f_poly, random_apoly, random_instance, rational_instance, reference_delta


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


def test_instance_is_an_immutable_value_with_lazy_fields():
    inst = ProblemInstance.from_coeffs(2, [["1/2", 1], [0, 0, 3]])
    twin = ProblemInstance.from_coeffs(2, [[Fraction(1, 2), 1], [0, 0, 3]])
    assert inst == twin and hash(inst) == hash(twin)
    assert inst != ProblemInstance.from_coeffs(2, [["1/2", 1], [0, 0, 4]])
    assert repr(inst) == (
        "ProblemInstance(d=2, f=((Fraction(1, 2), Fraction(1, 1)), "
        "(Fraction(0, 1), Fraction(0, 1), Fraction(3, 1))))"
    )
    assert "m" not in vars(inst)  # computed on first use
    assert (inst.m, inst.lc, inst.integer_f) == ((1, 2), (1, 3), (2, ((1, 2), (0, 0, 6))))
    assert inst.m is inst.m
    for name in ("d", "f", "m", "integer_f", "other"):
        with pytest.raises(AttributeError):
            setattr(inst, name, 1)
    assert inst.m == (1, 2) and not hasattr(inst, "other")


def test_from_coeffs_accepts_ints_fractions_and_rational_strings():
    inst = ProblemInstance.from_coeffs(1, [[Fraction(1, 2), "3/2", -2]])
    assert inst.f == ((Fraction(1, 2), Fraction(3, 2), Fraction(-2)),)
    assert ProblemInstance.from_coeffs(1, [(Fraction(1, 2), "3/2", -2)]) == inst


@pytest.mark.parametrize(
    "vector, message",
    [
        ([0, 1.5], "coefficient 1.5 must be an integer or a rational string like '3/2'"),
        ([0, True], "coefficient True is not an exact rational"),
        ([0, "abc"], "bad rational literal 'abc'"),
        ([0, "1/0"], "bad rational literal '1/0'"),
        ("12", "coefficients of f_1 must be a list or tuple, got '12'"),
        ({0: 1, 1: 2}, "coefficients of f_1 must be a list or tuple, got {0: 1, 1: 2}"),
    ],
    ids=["float", "bool", "bad-literal", "zero-denominator", "string-vector", "dict-vector"],
)
def test_from_coeffs_rejects_what_instance_files_reject(vector, message):
    # `from_json_dict` checks only that 'f' is a list and leaves every
    # vector to `from_coeffs`, so both paths give the same message
    for build in (
        lambda: ProblemInstance.from_coeffs(1, [vector]),
        lambda: ProblemInstance.from_json_dict({"d": 1, "f": [vector]}),
    ):
        with pytest.raises(InstanceError) as excinfo:
            build()
        assert str(excinfo.value) == message


def test_apply_delta_on_y():
    inst = ProblemInstance.from_coeffs(1, [[0, 0, 1]])  # f1 = x1^2
    assert apply_delta(inst, parse_poly("y1", "A", 1)) == parse_poly("x1^2", "A", 1)


def test_apply_delta_kills_x():
    inst = ProblemInstance.from_coeffs(1, [[0, 1]])
    assert apply_delta(inst, parse_poly("x1^3", "A", 1)).is_zero()


def test_delta_terms_of_one_monomial():
    inst = ProblemInstance.from_coeffs(2, [[2, 1], [0, 0, 3]])  # f1 = x1 + 2, f2 = 3*x2^2
    plan = delta_plan(inst.f)
    (mono,) = parse_poly_int("x1*y1^2*y2^3", "A", 2)[0]
    terms = delta_terms(plan, [(mono, Fraction(5, 2))])
    # one target per nonzero coefficient of f_i times y_i present: 2 from f1, 1 from f2
    assert len(terms) == 3
    expected = parse_poly("5*x1^2*y1*y2^3 + 10*x1*y1*y2^3 + 45/2*x1*x2^2*y1^2*y2^2", "A", 2)
    assert terms == expected.terms
    (pure_x,) = parse_poly_int("x1^4*x2", "A", 2)[0]
    assert delta_terms(plan, [(pure_x, 1)]) == {}


@pytest.mark.parametrize("integer_f", [True, False])
def test_packed_delta_matches_reference_delta(integer_f):
    # delta_terms on packed keys, through apply_delta and directly, over the
    # Fraction rows of f and over L*f, against the term-by-term Leibniz rule.
    rng = random.Random(53 if integer_f else 59)
    for _ in range(60):
        d = rng.randint(1, 5)
        inst = random_instance(rng, d, max_m=3) if integer_f else rational_instance(rng, d)
        g = random_apoly(rng, d, terms=4, max_exp=3)
        expected = reference_delta(inst, g)
        assert apply_delta(inst, g) == expected
        sums = delta_terms(delta_plan(inst.f), g.terms.items())
        assert {m: c for m, c in sums.items() if c} == expected.terms
        terms, den = int_terms(g)
        scale, rows = inst.integer_f
        sums = delta_terms(delta_plan(rows), terms.items())
        scaled = {m: Fraction(c, scale * den) for m, c in sums.items() if c}
        assert scaled == expected.terms
        assert is_constant(inst, g) == expected.is_zero()


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
    fpoly = f_poly(inst, 1)
    total = Polynomial.zero(inst.ring_a)
    for n, q in enumerate(layers):
        total = total + q * fpoly**n
    assert total == parse_poly("x1^3", "A", 1)


def test_f_adic_constant_and_tautology():
    inst = ProblemInstance.from_coeffs(2, [[0, 1, 2], [0, 1]])
    c = Polynomial.constant(inst.ring_a, Fraction(5, 3))
    assert f_adic_expand(inst, 1, c) == [c]
    f1 = f_poly(inst, 1)
    zero, one = Polynomial.zero(inst.ring_a), Polynomial.constant(inst.ring_a, 1)
    assert f_adic_expand(inst, 1, f1) == [zero, one]
    # the vanishing inner layers of f_1^2 stay in place
    assert f_adic_expand(inst, 1, f1**2) == [zero, zero, one]


def test_f_adic_rejects_foreign_variables():
    inst = ProblemInstance.from_coeffs(2, [[0, 1], [0, 1]])
    with pytest.raises(ValueError):
        f_adic_expand(inst, 1, parse_poly("x2", "A", 2))
    with pytest.raises(ValueError):
        f_adic_expand(inst, 1, parse_poly("y1", "A", 2))


def test_f_adic_round_trip_randomized():
    rng = random.Random(53)
    for case in range(400):
        d = rng.randint(1, 3)
        i = rng.randint(1, d)
        make_instance = random_instance if case < 200 else rational_instance
        inst = make_instance(rng, d, max_m=5)
        ring = ring_a(d)
        g = Polynomial.zero(ring)
        for power in range(rng.randint(0, 12) + 1):
            c = rng.randint(-9, 9)
            if c:
                g = g + parse_poly(f"x{i}^{power}", "A", d) * c
        layers = f_adic_expand(inst, i, g)
        mi = inst.m[i - 1]
        fpoly = f_poly(inst, i)
        total = Polynomial.zero(ring)
        for n, q in enumerate(layers):
            assert q.degree() < mi
            total = total + q * fpoly**n
        assert total == g
