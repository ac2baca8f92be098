"""Reduction, S-polynomials, verification and completion."""

import random

import pytest

from constalg import (
    CORRECTED,
    LITERAL,
    BudgetExceededError,
    DillOrder,
    LexOrder,
    PMonomial,
    Polynomial,
    ProblemInstance,
    buchberger_complete,
    build_generators,
    build_relations,
    parse_poly,
    pi_substitute,
    reduce,
    s_polynomial,
    verify_groebner,
    verify_lead_conformance,
    verify_reduced,
)
from constalg import groebner
from constalg.groebner import LeadTable
from constalg.poly import format_monomial, int_terms, leading_term
from helpers import (
    instance_with_degrees,
    random_instance,
    random_ppoly,
    reference_pair_outcomes,
    reference_reduce,
    reference_reduced,
    reference_s_polynomial,
)


def classical(d):
    return ProblemInstance.from_coeffs(d, [[0, 1]] * d)


def relation_polys(inst):
    return [rel.poly for rel in build_relations(inst)]


def assert_certificate_fields_agree(cert, relations, order):
    """The flags of the certificate JSON agree with the leads, `discharged_by` and `reduced`."""
    data = cert.to_json_dict()
    leads = {rel.label: leading_term(rel.poly, order)[0] for rel in relations}
    conformance = data["lead_conformance"]
    for entry in conformance["entries"]:
        assert entry["computed"] == format_monomial(leads[entry["relation"]])
        assert entry["ok"] == (entry["computed"] == entry["expected"])
    assert conformance["ok"] == all(e["ok"] for e in conformance["entries"])
    for entry in data["pairs"]:
        lmg, lmh = leads[entry["left"]], leads[entry["right"]]
        coprime = lmg.lcm(lmh) == lmg.mul(lmh)
        assert entry["coprime_leads"] == coprime == (entry["discharged_by"] == "coprime")
        assert entry["normal_form_zero"] == (entry["discharged_by"] is not None)
    zero = all(e["normal_form_zero"] for e in data["pairs"])
    assert data["verdict"] == (conformance["ok"] and zero and data["reduced"])


def test_reduce_self_to_zero():
    inst = classical(4)
    r = build_relations(inst)[0].poly
    assert reduce(r, [r], DillOrder()).is_zero()


def test_reduce_crossing_pair_product():
    # one step against r(1,2,3,4); its image under pi must be unchanged
    inst = classical(4)
    basis = relation_polys(inst)
    p = parse_poly("u1_3*u2_4", "P", 4)
    normal_form = reduce(p, basis, DillOrder())
    assert normal_form == parse_poly("u1_2*u3_4 + u1_4*u2_3", "P", 4)
    table = build_generators(inst)
    assert pi_substitute(table, normal_form) == pi_substitute(table, p)


def test_reduce_untouched_x_power():
    inst = classical(4)
    basis = relation_polys(inst)
    p = parse_poly("x1^7", "P", 4)
    assert reduce(p, basis, DillOrder()) == p


def test_reduce_requires_sane_basis():
    inst = classical(4)
    p = parse_poly("x1", "P", 4)
    with pytest.raises(ValueError):
        reduce(p, [], DillOrder())
    from constalg import Polynomial, ring_p

    with pytest.raises(ValueError):
        reduce(p, [Polynomial.zero(ring_p(4))], DillOrder())


def test_reduce_result_is_in_normal_form():
    rng = random.Random(97)
    order = DillOrder()
    inst = random_instance(rng, 4, max_m=2)
    basis = relation_polys(inst)
    leads = [leading_term(g, order)[0] for g in basis]
    for _ in range(40):
        p = random_ppoly(rng, 4, terms=4, max_x=2, max_u=2, max_factors=2)
        if p.is_zero():
            continue
        normal_form = reduce(p, basis, order)
        for mono in normal_form.terms:
            assert not any(lm.divides(mono) for lm in leads)


def test_reduce_is_idempotent_and_stays_in_coset():
    rng = random.Random(101)
    inst = random_instance(rng, 4, max_m=2)
    basis = relation_polys(inst)
    table = build_generators(inst)
    order = DillOrder()
    for _ in range(25):
        p = random_ppoly(rng, 4, terms=4, max_x=2, max_u=2, max_factors=2)
        normal_form = reduce(p, basis, order)
        assert reduce(normal_form, basis, order) == normal_form
        assert pi_substitute(table, normal_form) == pi_substitute(table, p)


def test_s_polynomial_of_equal_inputs_vanishes():
    inst = classical(4)
    r = build_relations(inst)[0].poly
    assert s_polynomial(r, r, DillOrder()).is_zero()


def test_s_polynomial_coprime_leads_reduce_to_zero():
    g = parse_poly("u1_2 + x2", "P", 3)
    h = parse_poly("x3 + 1", "P", 3)
    order = DillOrder()
    spoly = s_polynomial(g, h, order)
    assert reduce(spoly, [g, h], order).is_zero()


def test_s_polynomial_rejects_zero():
    from constalg import Polynomial, ring_p

    g = parse_poly("u1_2", "P", 2)
    with pytest.raises(ValueError):
        s_polynomial(g, Polynomial.zero(ring_p(2)), DillOrder())


def test_s_polynomial_of_relation_pair_reduces_to_zero():
    inst = classical(4)
    relations = build_relations(inst)
    basis = [rel.poly for rel in relations]
    r = relations[0].poly
    s124 = {rel.label: rel.poly for rel in relations}["S(1,2,4)"]
    spoly = s_polynomial(r, s124, DillOrder())
    assert reduce(spoly, basis, DillOrder()).is_zero()


def test_lead_conformance_corrected():
    rng = random.Random(103)
    for d in (3, 4, 5):
        inst = random_instance(rng, d)
        entries = verify_lead_conformance(inst, build_relations(inst))
        assert all(e.ok for e in entries)
        assert len(entries) == len(build_relations(inst))


def test_lead_conformance_literal_flags_quadratic_leads():
    inst = classical(4)
    entries = verify_lead_conformance(inst, build_relations(inst), LITERAL)
    assert not all(e.ok for e in entries)
    bad = {e.label: e for e in entries if not e.ok}
    assert "R(1,2,3,4)" in bad
    assert bad["R(1,2,3,4)"].computed == PMonomial(
        (0,) * 4, (((1, 4), 1), ((2, 3), 1))
    )


def test_lead_conformance_literal_flags_mixed_leads():
    inst = ProblemInstance.from_coeffs(3, [[0, 0, 0, 1], [0, 1], [0, 1]])  # m=(3,1,1)
    entries = verify_lead_conformance(inst, build_relations(inst), LITERAL)
    bad = {e.label: e for e in entries if not e.ok}
    assert "S(1,2,3)" in bad
    assert bad["S(1,2,3)"].computed == PMonomial((3, 0, 0), (((2, 3), 1),))


def test_verify_groebner_classical_d4():
    cert = verify_groebner(classical(4))
    assert cert.verdict
    assert cert.reduced
    assert all(p.normal_form_zero for p in cert.pairs)
    assert cert.first_failure() is None


def test_verify_groebner_d3_single_mixed_relation():
    rng = random.Random(109)
    inst = random_instance(rng, 3)
    cert = verify_groebner(inst)
    assert cert.verdict
    assert cert.pairs == []  # a single relation has no pairs


def test_verify_groebner_random_instances():
    rng = random.Random(113)
    for d in (4, 5):
        inst = random_instance(rng, d, max_m=3)
        assert verify_groebner(inst).verdict


def test_verify_groebner_literal_fails_conformance_gate():
    cert = verify_groebner(classical(4), variant=LITERAL)
    assert not cert.verdict
    assert not cert.conformance_ok
    assert cert.pairs == []  # pair phase aborted
    assert "lead of" in cert.first_failure()


def test_verify_groebner_unreduced_basis_first_failure():
    # S(1,2,3) + S(2,3,4) keeps the lead of S(1,2,3), so leads conform and
    # every pair still reduces to zero, but a tail term is another lead.
    inst = classical(4)
    r1234, s123, *rest = build_relations(inst)
    assert (s123.label, rest[-1].label) == ("S(1,2,3)", "S(2,3,4)")
    broken = [r1234, s123._replace(poly=s123.poly + rest[-1].poly), *rest]
    cert = verify_groebner(inst, relations=broken)
    assert_certificate_fields_agree(cert, broken, DillOrder())
    assert cert.conformance_ok
    assert all(p.normal_form_zero for p in cert.pairs)
    assert not cert.reduced
    assert not cert.verdict
    assert cert.first_failure() == "basis is not reduced"


def test_certificate_json_replayable():
    inst = classical(4)
    a = verify_groebner(inst).to_json_dict()
    b = verify_groebner(inst).to_json_dict()
    assert a == b


def test_verify_reduced_flags_divisible_monomial():
    order = DillOrder()
    g = parse_poly("u1_2", "P", 3)
    h = parse_poly("u1_3 + u1_2*x1", "P", 3)
    assert not verify_reduced([g, h], order)
    assert verify_reduced([g, parse_poly("u1_3 + x1", "P", 3)], order)


def test_buchberger_complete_relations_add_nothing():
    inst = classical(4)
    basis = relation_polys(inst)
    order = DillOrder()
    completed = buchberger_complete(basis, order)
    assert len(completed) == len(basis)
    assert {leading_term(g, order)[0] for g in completed} == {
        leading_term(g, order)[0] for g in basis
    }


def test_buchberger_complete_single_element():
    p = parse_poly("x1^2", "P", 2)
    assert buchberger_complete([p], DillOrder()) == [p]


def test_buchberger_complete_linear_elimination():
    order = DillOrder()
    g1 = parse_poly("u1_2", "P", 2)
    g2 = parse_poly("u1_2 + x1", "P", 2)
    completed = buchberger_complete([g1, g2], order)
    assert parse_poly("x1", "P", 2) in completed


def test_buchberger_complete_under_plain_lex(monkeypatch):
    # independent cross-check order: completion still adds nothing for d=4
    inst = instance_with_degrees(random.Random(127), (1, 2, 1, 2))
    basis = relation_polys(inst)
    monkeypatch.setattr(groebner, "MAX_PAIR_QUEUE", 10_000)
    completed = buchberger_complete(basis, LexOrder())
    # plain lex has different leads, so completion may add elements, but
    # it must terminate and still generate the same ideal: every original
    # relation reduces to zero against the completed basis
    for g in basis:
        assert reduce(g, completed, LexOrder()).is_zero()


def test_buchberger_budget_error(monkeypatch):
    inst = classical(5)
    basis = relation_polys(inst)
    monkeypatch.setattr(groebner, "MAX_PAIR_QUEUE", 3)
    with pytest.raises(BudgetExceededError):
        buchberger_complete(basis, DillOrder())


def test_verify_pair_budget_admits_d12_and_refuses_d13(monkeypatch):
    class Reached(Exception):
        pass

    def reached(inst):
        raise Reached

    monkeypatch.setattr(groebner, "build_relations", reached)
    with pytest.raises(Reached):
        verify_groebner(ProblemInstance.from_coeffs(12, [[0, 1]] * 12))
    with pytest.raises(BudgetExceededError):
        verify_groebner(ProblemInstance.from_coeffs(13, [[0, 1]] * 13))


def test_buchberger_empty_input_rejected():
    with pytest.raises(ValueError):
        buchberger_complete([], DillOrder())


# -- the fast pair phase against the reference path ---------------------------


def test_reduce_matches_reference_reduce():
    # Same reducer choice, so the same normal form, for relation bases and for
    # bases whose leads carry no u-factor.
    rng = random.Random(131)
    for d in (3, 4, 5):
        inst = random_instance(rng, d, max_m=3)
        bases = [relation_polys(inst)]
        bases.append([random_ppoly(rng, d, terms=3, max_factors=1) for _ in range(4)])
        bases[-1].append(parse_poly("x1^2 + x2", "P", d))
        for basis in bases:
            basis = [g for g in basis if not g.is_zero()]
            for _ in range(10):
                p = random_ppoly(rng, d, terms=5, max_x=3, max_u=2, max_factors=3)
                assert reduce(p, basis, DillOrder()) == reference_reduce(p, basis, DillOrder())


def test_coprime_pairs_reduce_to_zero_under_reference():
    rng = random.Random(137)
    for d in (4, 5, 6):
        inst = random_instance(rng, d, max_m=3, dense=True)
        relations = build_relations(inst)
        cert = verify_groebner(inst, relations=relations)
        assert cert.verdict
        basis = {rel.label: rel.poly for rel in relations}
        order = DillOrder()
        assert_certificate_fields_agree(cert, relations, order)
        paper = verify_groebner(inst, LITERAL, relations)
        assert_certificate_fields_agree(paper, relations, DillOrder(LITERAL))
        assert not paper.conformance_ok and not paper.verdict
        for pair in cert.pairs:
            if not pair.coprime_leads:
                assert pair.discharged_by == "reduction"
                continue
            assert pair.normal_form_zero and pair.discharged_by == "coprime"
            spoly = s_polynomial(basis[pair.left], basis[pair.right], order)
            assert reference_reduce(spoly, list(basis.values()), order).is_zero()


def test_broken_relation_sets_match_reference_verdict():
    inst = random_instance(random.Random(139), 5, max_m=3, dense=True)
    full = build_relations(inst)
    failed = 0
    mixed = [index for index, rel in enumerate(full) if rel.family == "S"]
    assert len(mixed) == 10
    for dropped in mixed:
        broken = full[:dropped] + full[dropped + 1:]
        cert = verify_groebner(inst, relations=broken)
        reference = reference_pair_outcomes(broken, DillOrder())
        assert_certificate_fields_agree(cert, broken, DillOrder())
        assert cert.conformance_ok and cert.reduced
        assert cert.verdict == all(reference.values())
        failed += not cert.verdict
        for pair in cert.pairs:
            if not pair.coprime_leads:
                assert pair.normal_form_zero == reference[pair.left, pair.right]
        if not cert.verdict:
            first = next(p for p in cert.pairs if not p.normal_form_zero)
            assert not first.coprime_leads and first.discharged_by is None
            assert f"({first.left}, {first.right})" in cert.first_failure()
    assert failed  # the cases exercise the failing branch


def test_verify_groebner_reduces_only_non_coprime_pairs(monkeypatch):
    counts = {"reduce": 0, "reduce_int": 0, "s_polynomial": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(groebner, name, counting(name, getattr(groebner, name)))
    cert = verify_groebner(classical(5))
    assert counts["s_polynomial"] == len(cert.pairs) == 105
    assert counts["reduce_int"] == sum(not p.coprime_leads for p in cert.pairs) > 0
    assert counts["reduce"] == 0
    entries = [p.to_json_dict() for p in cert.pairs]
    assert {e["discharged_by"] for e in entries} == {"coprime", "reduction"}


# -- the integer reduction, reducedness and S-polynomials against references ----


def int_leads(relations, order):
    """The table `verify_groebner` reduces against: primitive int term maps."""
    return LeadTable([groebner._primitive(rel.poly) for rel in relations], order)


def coprime_leads(g, h, order):
    lmg, lmh = leading_term(g, order)[0], leading_term(h, order)[0]
    return lmg.lcm(lmh) == lmg.mul(lmh)


def dense_relation_sets():
    """(d, relations) of seeded dense instances, d = 4..7, and of broken sets at d = 5."""
    rng = random.Random(149)
    for d in (4, 5, 6, 7):
        yield d, build_relations(random_instance(rng, d, max_m=3, dense=True))
    full = build_relations(random_instance(random.Random(139), 5, max_m=3, dense=True))
    for dropped, rel in enumerate(full):
        if rel.family == "S":
            yield 5, full[:dropped] + full[dropped + 1:]


@pytest.mark.parametrize("variant", [CORRECTED, LITERAL])
def test_reduce_int_zero_matches_reference_reduce(variant):
    order = DillOrder(variant)
    outcomes = []
    for d, relations in dense_relation_sets():
        basis = [rel.poly for rel in relations]
        leads = int_leads(relations, order)
        pairs = [
            (g, h)
            for i, g in enumerate(basis)
            for h in basis[i + 1:]
            if not coprime_leads(g, h, order)
        ]
        for g, h in pairs:
            spoly = s_polynomial(g, h, order)
            work, _ = int_terms(spoly)
            groebner.reduce_int(work, leads, order, 0)
            assert (not work) == reference_reduce(spoly, basis, order).is_zero()
            outcomes.append(not work)
    assert any(outcomes) and not all(outcomes)  # both verdicts occur


def test_reduce_int_budget_counts_steps_across_calls(monkeypatch):
    relations = build_relations(classical(4))
    order = DillOrder()
    leads = int_leads(relations, order)
    g, h = relations[0].poly, relations[-1].poly
    work, _ = int_terms(s_polynomial(g, h, order))
    steps = groebner.reduce_int(dict(work), leads, order, 0)
    assert steps > 0
    monkeypatch.setattr(groebner, "MAX_REDUCTION_STEPS", 10 + steps)
    assert groebner.reduce_int(dict(work), leads, order, 10) == 10 + steps
    monkeypatch.setattr(groebner, "MAX_REDUCTION_STEPS", 9 + steps)
    with pytest.raises(BudgetExceededError, match=f"more than {9 + steps} reduction steps"):
        groebner.reduce_int(dict(work), leads, order, 10)


def unreduced_bases(rng, d, relations):
    """Bases that fail reducedness, and random ones that may.

    A duplicate element, a multiple of an element, and an element with the
    square of another's lead added.
    """
    basis = [rel.poly for rel in relations]
    yield basis + [basis[0]]
    yield basis[:-1] + [basis[-1] * parse_poly("x1 + 2", "P", d)]
    first, last = basis[0], basis[-1]
    lead = leading_term(last, DillOrder())[0]
    yield [first + Polynomial.from_term(first.ring, lead.mul(lead), 3)] + basis[1:]
    yield [random_ppoly(rng, d, terms=3, max_factors=2) for _ in range(6)]


@pytest.mark.parametrize("variant", [CORRECTED, LITERAL])
def test_lead_table_reducedness_matches_reference_reduced(variant):
    order = DillOrder(variant)
    rng = random.Random(151)
    verdicts = []
    for d, relations in dense_relation_sets():
        bases = [[rel.poly for rel in relations], *unreduced_bases(rng, d, relations)]
        for basis in bases:
            basis = [g for g in basis if not g.is_zero()]
            expected = reference_reduced(basis, order)
            table = LeadTable([g.terms for g in basis], order)
            assert verify_reduced(basis, order) == verify_reduced(table, order) == expected
            verdicts.append(expected)
        assert verify_reduced(int_leads(relations, order), order) == reference_reduced(
            bases[0], order
        )
    assert any(verdicts) and not all(verdicts)


def test_s_polynomial_matches_product_formula():
    rng = random.Random(157)
    for d in (4, 5, 6):
        for variant in (CORRECTED, LITERAL):
            order = DillOrder(variant)
            basis = relation_polys(random_instance(rng, d, max_m=3, dense=True))
            for i, g in enumerate(basis):
                for h in basis[i:]:
                    assert s_polynomial(g, h, order) == reference_s_polynomial(g, h, order)
