"""Generators, the substitution homomorphism, and the relation families."""

import random
import sys
from itertools import combinations
from math import comb

import pytest

from constalg import (
    PMonomial,
    ProblemInstance,
    Relation,
    apply_delta,
    build_generators,
    build_relations,
    mixed_relation,
    parse_poly,
    pi_substitute,
    quadratic_relation,
    u_pairs,
)
from constalg import BudgetExceededError, RingMismatchError, presentation
from constalg.presentation import pi_image_of_monomial, relation_count
from helpers import random_instance, random_ppoly, rational_instance, reference_relations


def test_generator_classical():
    inst = ProblemInstance.from_coeffs(2, [[0, 1], [0, 1]])
    table = build_generators(inst)
    assert table.u_power(1, 2, 1) == parse_poly("x1*y2 - x2*y1", "A", 2)


def test_generator_monomial_f():
    inst = ProblemInstance.from_coeffs(2, [[0, 0, 1], [0, 0, 0, 1]])
    table = build_generators(inst)
    assert table.u_power(1, 2, 1) == parse_poly("x1^2*y2 - x2^3*y1", "A", 2)


def test_u_power_above_recursion_limit():
    inst = ProblemInstance.from_coeffs(2, [[0, 1], [0, 1]])
    table = build_generators(inst)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        image = pi_image_of_monomial(table, PMonomial((0, 0), (((1, 2), 300),)))
    finally:
        sys.setrecursionlimit(limit)
    assert image == table.u_power(1, 2, 1) ** 300
    # squaring caches 300, 150, 75, ..., 1: O(log e) powers
    assert sorted(table._power_cache) == [(1, 2, e) for e in (1, 2, 4, 9, 18, 37, 75, 150, 300)]
    assert table.u_power(1, 2, 300) == image


def test_u_power_squares_on_rational_instance():
    inst = ProblemInstance.from_coeffs(3, [["1/2", "3/4"], [1, "-2/3", 5], [0, "7/5"]])
    table = build_generators(inst)
    assert inst.integer_f[0] == 60
    for (j, k), e in (((1, 2), 13), ((2, 3), 6), ((1, 3), 0)):
        assert table.u_power(j, k, e) == table.u_power(j, k, 1) ** e
    # 13 -> 6 -> 3 -> 1 and 6 -> 3 -> 1, and the first powers; u_13^0 caches nothing
    assert sorted(table._power_cache) == [
        (1, 2, 1), (1, 2, 3), (1, 2, 6), (1, 2, 13), (1, 3, 1), (2, 3, 1), (2, 3, 3), (2, 3, 6),
    ]


def test_u_power_refuses_bad_pairs_and_exponents_and_caches_nothing():
    table = build_generators(ProblemInstance.from_coeffs(3, [[0, 1], ["1/2", 3], [2, 0, "5/3"]]))
    for (j, k), e, message in (
        ((2, 1), 1, r"u-pair \(2,1\) out of range for d=3"),
        ((1, 4), 1, r"u-pair \(1,4\) out of range for d=3"),
        ((1, 2), -1, "exponents must be nonnegative"),
        ((1, 2), 1.5, "not an integer"),
        ((5, 9), 0, r"u-pair \(5,9\) out of range for d=3"),
    ):
        with pytest.raises(ValueError, match=message):
            table.u_power(j, k, e)
    assert table._power_cache == {}
    # a valid pair with exponent 0 is still the unit
    assert table.u_power(1, 2, 0) == parse_poly("1", "A", 3)
    table.u_power(1, 3, 2)
    assert sorted(table._power_cache) == [(1, 3, 1), (1, 3, 2)]


def test_pi_image_of_monomial_refuses_a_monomial_of_another_d():
    table = build_generators(ProblemInstance.from_coeffs(4, [[0, 1]] * 4))
    with pytest.raises(RingMismatchError, match="does not belong to ring"):
        pi_image_of_monomial(table, PMonomial((0, 0, 0), (((1, 2), 1),)))


def test_monomial_images_and_u_powers_go_through_pi_substitute_once(monkeypatch):
    inst = ProblemInstance.from_coeffs(3, [["1/2", "3/4"], [1, "-2/3", 5], [0, "7/5"]])
    mono = PMonomial((2, 0, 1), (((1, 2), 2), ((2, 3), 1)))
    expected = (
        pi_image_of_monomial(build_generators(inst), mono),
        build_generators(inst).u_power(1, 3, 3),
    )
    calls = []

    def counted(table, p):
        calls.append(p)
        return pi_substitute(table, p)

    monkeypatch.setattr(presentation, "pi_substitute", counted)
    assert pi_image_of_monomial(build_generators(inst), mono) == expected[0]
    assert len(calls) == 1
    assert build_generators(inst).u_power(1, 3, 3) == expected[1]
    assert len(calls) == 2


def test_generator_table_size_and_constancy():
    rng = random.Random(61)
    inst = random_instance(rng, 5)
    table = build_generators(inst)
    assert len(table.scaled) == 5 * 4 // 2
    for j, k in u_pairs(5):
        assert apply_delta(inst, table.u_power(j, k, 1)).is_zero()


def test_pi_fixes_x():
    rng = random.Random(67)
    inst = random_instance(rng, 3)
    table = build_generators(inst)
    p = parse_poly("x1^5", "P", 3)
    assert pi_substitute(table, p) == parse_poly("x1^5", "A", 3)


def test_pi_sends_u_to_generator():
    rng = random.Random(71)
    inst = random_instance(rng, 2)
    table = build_generators(inst)
    assert pi_substitute(table, parse_poly("u1_2", "P", 2)) == table.u_power(1, 2, 1)


def test_pi_is_a_homomorphism_randomized():
    rng = random.Random(73)
    for _ in range(60):
        d = rng.randint(2, 4)
        inst = random_instance(rng, d, max_m=3)
        table = build_generators(inst)
        p = random_ppoly(rng, d, terms=3, max_x=2, max_u=2, max_factors=2)
        q = random_ppoly(rng, d, terms=3, max_x=2, max_u=2, max_factors=2)
        assert pi_substitute(table, p + q) == pi_substitute(table, p) + pi_substitute(
            table, q
        )
        assert pi_substitute(table, p * q) == pi_substitute(table, p) * pi_substitute(
            table, q
        )


def test_every_pi_image_is_a_constant():
    rng = random.Random(79)
    for _ in range(60):
        d = rng.randint(2, 4)
        inst = random_instance(rng, d, max_m=3)
        table = build_generators(inst)
        p = random_ppoly(rng, d, terms=3, max_x=2, max_u=2, max_factors=2)
        assert apply_delta(inst, pi_substitute(table, p)).is_zero()


def test_relation_counts():
    rng = random.Random(83)
    for d in (1, 2, 3, 4, 5, 6):
        inst = random_instance(rng, d)
        rel = build_relations(inst)
        assert type(rel) is list and all(type(r) is Relation for r in rel)
        assert len(rel) == relation_count(d) == comb(d, 4) + comb(d, 3)
        assert sum(r.family == "R" for r in rel) == comb(d, 4)
        assert sum(r.family == "S" for r in rel) == comb(d, 3)
        assert rel == build_relations(inst)
        if d <= 2:
            assert rel == []


def test_relation_order_r_then_s_lexicographic():
    inst = ProblemInstance.from_coeffs(6, [[0, 1]] * 6)
    rel = build_relations(inst)
    families = [r.family for r in rel]
    assert families == ["R"] * comb(6, 4) + ["S"] * comb(6, 3)
    indices = range(1, 7)
    assert [r.indices for r in rel] == [*combinations(indices, 4), *combinations(indices, 3)]
    assert [r.label for r in rel[:2]] == ["R(1,2,3,4)", "R(1,2,3,5)"]
    assert rel[comb(6, 4)].label == "S(1,2,3)"
    assert rel[-1].label == "S(4,5,6)"


def test_relation_replace_keeps_the_record():
    inst = ProblemInstance.from_coeffs(4, [[0, 1]] * 4)
    s123 = build_relations(inst)[1]
    doubled = s123._replace(poly=s123.poly.scale(2))
    assert type(doubled) is Relation
    assert (doubled.family, doubled.indices, doubled.label) == ("S", (1, 2, 3), "S(1,2,3)")
    assert doubled.poly == s123.poly + s123.poly
    assert Relation._make(s123) == s123


def test_relation_budget_admits_d24_and_refuses_d25(monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(presentation, "quadratic_relation", reached)
    with pytest.raises(Reached):
        build_relations(ProblemInstance.from_coeffs(24, [[0, 1]] * 24))
    with pytest.raises(BudgetExceededError):
        build_relations(ProblemInstance.from_coeffs(25, [[0, 1]] * 25))


def test_quadratic_relation_d4():
    inst = ProblemInstance.from_coeffs(4, [[0, 1]] * 4)
    rel = build_relations(inst)
    assert [r.family for r in rel] == ["R", "S", "S", "S", "S"]
    assert rel[0].poly == parse_poly(
        "u1_2*u3_4 - u1_3*u2_4 + u1_4*u2_3", "P", 4
    )


def test_mixed_relation_monomial_f():
    inst = ProblemInstance.from_coeffs(3, [[0, 0, 1], [0, 0, 0, 1], [0, 1]])
    (rel,) = build_relations(inst)
    assert rel.label == "S(1,2,3)"
    assert rel.poly == parse_poly(
        "x1^2*u2_3 - x2^3*u1_3 + x3*u1_2", "P", 3
    )


def test_mixed_relation_expands_full_f():
    # every coefficient of f participates, not only the leading one
    inst = ProblemInstance.from_coeffs(3, [[2, 1], [1, 0, 1], [0, 1]])
    s = mixed_relation(inst, 1, 2, 3)
    expected = parse_poly(
        "x1*u2_3 + 2*u2_3 - x2^2*u1_3 - u1_3 + x3*u1_2", "P", 3
    )
    assert s == expected


def relation_instances(rng, d):
    """A dense, a rational-coefficient and a zero-inner-coefficient instance of dimension d."""
    yield random_instance(rng, d, max_m=3, dense=True)
    yield rational_instance(rng, d)
    coeffs = [[rng.choice([0, 0, 1, -2]) for _ in range(rng.randint(1, 4))] + [3] for _ in range(d)]
    yield ProblemInstance.from_coeffs(d, coeffs)


def test_relations_match_the_product_formula():
    rng = random.Random(173)
    zero_inner = 0
    for d in range(1, 8):
        for inst in relation_instances(rng, d):
            zero_inner += sum(not c for fi in inst.f for c in fi[1:-1])
            relations = build_relations(inst)
            expected = reference_relations(inst)
            assert relations == expected
            # the same terms in the same order, which `repr` shows
            assert [list(r.poly.terms) for r in relations] == [
                list(r.poly.terms) for r in expected
            ]
    assert zero_inner


def test_relations_vanish_under_pi():
    rng = random.Random(89)
    for d in (3, 4, 5, 6):
        inst = random_instance(rng, d)
        table = build_generators(inst)
        for rel in build_relations(inst):
            assert pi_substitute(table, rel.poly).is_zero()


def test_relation_index_validation():
    inst = ProblemInstance.from_coeffs(4, [[0, 1]] * 4)
    with pytest.raises(ValueError):
        quadratic_relation(inst, 1, 2, 2, 4)
    with pytest.raises(ValueError):
        mixed_relation(inst, 3, 2, 1)


def test_labels_are_lexicographic():
    inst = ProblemInstance.from_coeffs(5, [[0, 1]] * 5)
    labels = [rel.label for rel in build_relations(inst)]
    assert labels[:5] == [
        "R(1,2,3,4)",
        "R(1,2,3,5)",
        "R(1,2,4,5)",
        "R(1,3,4,5)",
        "R(2,3,4,5)",
    ]
    assert labels[5] == "S(1,2,3)"
