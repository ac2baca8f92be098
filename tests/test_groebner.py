"""Reduction, S-polynomials, verification and completion."""

import importlib.util
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

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
    RingMismatchError,
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
from constalg.cli import run
from constalg.groebner import GroebnerCertificate, LeadTable, PairOutcome
from constalg.poly import PLayout, format_monomial, int_terms, leading_term
from helpers import (
    instance_with_degrees,
    random_instance,
    random_pmonomial,
    random_ppoly,
    random_ppoly_of_degree,
    rational_instance,
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


def as_polynomial(terms, layout, ring):
    """The int term map `terms` on the packed keys of `layout` as a polynomial of `ring`."""
    return Polynomial(ring, {layout.unpack(m): c for m, c in terms.items()})


def spoly_of(g, h, order):
    """The integer S-polynomial of g and h, from their `LeadTable` entries, as a polynomial."""
    table = LeadTable([g, h], order)
    return as_polynomial(s_polynomial(*table.entries, table.layout), table.layout, g.ring)


def test_s_polynomial_of_equal_inputs_vanishes():
    inst = classical(4)
    r = build_relations(inst)[0].poly
    table = LeadTable([r], DillOrder())
    assert s_polynomial(*table.entries * 2, table.layout) == {}


def test_s_polynomial_coprime_leads_reduce_to_zero():
    g = parse_poly("u1_2 + x2", "P", 3)
    h = parse_poly("x3 + 1", "P", 3)
    order = DillOrder()
    assert reduce(spoly_of(g, h, order), [g, h], order).is_zero()


def test_s_polynomial_rejects_zero():
    # The inputs are `LeadTable` entries, and the table refuses a zero element.
    from constalg import Polynomial, ring_p

    g = parse_poly("u1_2", "P", 2)
    with pytest.raises(ValueError, match="must not contain zero"):
        LeadTable([g, Polynomial.zero(ring_p(2))], DillOrder())


def test_s_polynomial_of_relation_pair_reduces_to_zero():
    inst = classical(4)
    relations = build_relations(inst)
    basis = [rel.poly for rel in relations]
    r = relations[0].poly
    s124 = {rel.label: rel.poly for rel in relations}["S(1,2,4)"]
    assert reduce(spoly_of(r, s124, DillOrder()), basis, DillOrder()).is_zero()


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
    assert verify_reduced([], order)


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


def test_completion_element_budget(monkeypatch):
    # The seed-127 plain-lex input adds one element: it passes under the
    # bound 1 and is refused under the bound 0.
    basis = relation_polys(instance_with_degrees(random.Random(127), (1, 2, 1, 2)))
    monkeypatch.setattr(groebner, "MAX_PAIR_QUEUE", 10_000)
    monkeypatch.setattr(groebner, "MAX_COMPLETION_ELEMENTS", 1)
    assert len(buchberger_complete(basis, LexOrder())) == len(basis) + 1
    monkeypatch.setattr(groebner, "MAX_COMPLETION_ELEMENTS", 0)
    with pytest.raises(BudgetExceededError, match="completion added more than 0 elements"):
        buchberger_complete(basis, LexOrder())


def test_completion_that_runs_away_is_refused_at_the_default_bound():
    # Three 3-term inputs in P(3) whose completion under the literal order
    # adds 234 elements in over two minutes; the element bound refuses it
    # in well under a second.
    basis = [
        parse_poly(text, "P", 3)
        for text in (
            "x1^2*u1_2*u1_3 + x1^2*x2*x3*u1_2 - 2*x1*u2_3",
            "-x1*x2*x3^2*u1_2*u2_3 + x2^2*x3^2*u1_2 + 6*u1_2",
            "1/2*x1^2*x2*x3^2*u1_2*u1_3 + 6*x1*x2*x3^2 + 1/2*x1^2*x3",
        )
    ]
    with pytest.raises(BudgetExceededError, match="completion added more than 50 elements"):
        buchberger_complete(basis, DillOrder(LITERAL))


def test_completion_reductions_share_one_step_budget(monkeypatch):
    # The completion of the d = 5 relations with f_i = x_i adds nothing; its
    # 36 reductions take 90 steps in all and at most 6 each, so it passes
    # under the bound 90 and is refused under 89.
    basis, order = relation_polys(classical(5)), DillOrder()
    monic = [g.scale(Fraction(1) / leading_term(g, order)[1]) for g in basis]
    monkeypatch.setattr(groebner, "MAX_REDUCTION_STEPS", 90)
    assert buchberger_complete(basis, order) == monic
    monkeypatch.setattr(groebner, "MAX_REDUCTION_STEPS", 89)
    with pytest.raises(BudgetExceededError, match="more than 89 reduction steps"):
        buchberger_complete(basis, order)


def test_buchberger_complete_of_zero_inputs_is_empty():
    zero = parse_poly("0", "P", 2)
    assert buchberger_complete([zero], DillOrder()) == []
    assert buchberger_complete([zero, zero], DillOrder()) == []


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


def order_handle(name):
    return LexOrder() if name == "lex" else DillOrder(name)


def min_over_queue_completion(basis, order):
    """(pairs reduced as (i, j), result) of completion picking by the least (lcm key, (i, j)).

    The pick rule `buchberger_complete` had before its heap, a `min` over
    the whole queue at each pick, run on the Fraction references.
    """
    work = [g.scale(1 / leading_term(g, order)[1]) for g in basis]
    leads = [leading_term(g, order)[0] for g in work]
    queue = {(i, j) for i in range(len(work)) for j in range(i + 1, len(work))}
    reduced = []
    while queue:
        i, j = min(queue, key=lambda ij: (order.key(leads[ij[0]].lcm(leads[ij[1]])), ij))
        queue.remove((i, j))
        if leads[i].lcm(leads[j]) == leads[i].mul(leads[j]):
            continue
        reduced.append((i, j))
        spoly = reference_s_polynomial(work[i], work[j], order)
        normal_form = reference_reduce(spoly, work, order)
        if normal_form.is_zero():
            continue
        lead, lc = leading_term(normal_form, order)
        work.append(normal_form.scale(1 / lc))
        leads.append(lead)
        new = len(work) - 1
        queue.update((t, new) for t in range(new))
    return reduced, work


@pytest.mark.parametrize("name", [CORRECTED, LITERAL, "lex"])
def test_buchberger_complete_reduces_pairs_in_min_over_queue_order(monkeypatch, name):
    # The heap keys each pair once when it is queued and must pop the pairs
    # in the order of the former min over the whole queue at each pick.  Each
    # new element is appended to the one table the completion builds.
    rng = random.Random(174)
    basis = [random_ppoly_of_degree(rng, 3, 3, 3) for _ in range(4)]
    reduced, built = [], []
    original = groebner.s_polynomial

    def recording(g, h, layout):
        reduced.append((g, h))
        return original(g, h, layout)

    class Counting(LeadTable):
        def __init__(self, basis, order):
            built.append(len(basis))
            super().__init__(basis, order)

    monkeypatch.setattr(groebner, "s_polynomial", recording)
    monkeypatch.setattr(groebner, "LeadTable", Counting)
    order = order_handle(name)
    completed = buchberger_complete(basis, order)
    expected_reduced, expected = min_over_queue_completion(basis, order_handle(name))
    assert built == [len(basis)]
    assert len(completed) > len(basis) + 5  # the input is far from a Groebner basis
    assert len(reduced) > 30
    # The entries of the result's table are those the completion paired,
    # and no two are equal, so each pair's entries name its indices.
    entries = LeadTable(completed, order).entries
    assert [entries.index(entry) for entry in entries] == list(range(len(entries)))
    assert [(entries.index(g), entries.index(h)) for g, h in reduced] == expected_reduced
    assert completed == expected


@pytest.mark.parametrize("name", [CORRECTED, LITERAL, "lex"])
def test_lead_table_add_builds_the_entry_of_the_monic_polynomial(name):
    # `add` makes a packed int term map primitive with a positive lead
    # coefficient, whatever its sign and scale, so its entry is the one
    # `LeadTable` builds from the monic polynomial, and the reducer sees it
    # at once.
    order = order_handle(name)
    rng = random.Random(181)
    checked = 0
    for d in (3, 4):
        for _ in range(30):
            g, h = random_ppoly(rng, d, terms=4), random_ppoly(rng, d, terms=3)
            if g.is_zero() or h.is_zero():
                continue
            table = LeadTable([g], order)
            layout = table.layout
            lead, lc = leading_term(h, order)
            lm = layout.pack(lead)
            before = table.reducer(lm)  # fills the candidate list of lm's support
            terms, _ = int_terms(h.scale(1 / lc))
            k = rng.choice((-1, 1)) * rng.randint(1, 5)
            table.add(lm, {layout.pack(m): k * c for m, c in terms.items()})
            assert table.entries[1] == LeadTable([h.scale(1 / lc)], order).entries[0]
            assert table.reducer(lm) is (before or table.entries[1])
            checked += before is None
    assert checked > 20


def small_bases(rng, count):
    """`count` seeded bases of three small polynomials over P(2) and P(3), in turn."""
    for case in range(count):
        d = 2 + case % 2
        yield [random_ppoly(rng, d, terms=2, max_x=2, max_u=1, max_factors=2) for _ in range(3)]


@pytest.mark.parametrize("name", [CORRECTED, LITERAL, "lex"])
def test_groebner_entry_points_take_any_iterable_basis(name):
    # A generator basis is walked once, so its result is that of the list.
    order = order_handle(name)
    rng = random.Random(193)
    for basis in small_bases(rng, 8):
        basis = [g for g in basis if not g.is_zero()]
        p = random_ppoly(rng, basis[0].ring.d, terms=4)
        assert reduce(p, (g for g in basis), order) == reduce(p, basis, order)
        assert verify_reduced(iter(basis), order) == verify_reduced(basis, order)
        completed = buchberger_complete(iter(basis), order)
        assert completed == buchberger_complete(basis, order)
        assert verify_reduced(iter(completed), order) == verify_reduced(completed, order)
    assert verify_reduced(iter([]), order)
    with pytest.raises(ValueError, match="reduction needs a nonempty basis"):
        reduce(p, iter([]), order)
    with pytest.raises(ValueError, match="completion needs a nonempty input set"):
        buchberger_complete(iter([]), order)


@pytest.mark.parametrize("name", [CORRECTED, LITERAL, "lex"])
def test_results_do_not_depend_on_the_scale_or_sign_of_the_inputs(name):
    # Every input becomes a primitive entry with a positive lead, so a
    # nonzero rational factor, negative or not, changes no result.
    order = order_handle(name)
    rng = random.Random(197)
    negative = 0

    def scaled(basis):
        nonlocal negative
        factors = [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for _ in basis]
        negative += sum(f < 0 for f in factors)
        return [g.scale(f) for g, f in zip(basis, factors)]

    for basis in small_bases(rng, 20):
        assert buchberger_complete(scaled(basis), order) == buchberger_complete(basis, order)
        basis = [g for g in basis if not g.is_zero()]
        for _ in range(3):
            p = random_ppoly(rng, basis[0].ring.d, terms=4)
            assert reduce(p, scaled(basis), order) == reduce(p, basis, order)
    assert negative > 50


@pytest.mark.parametrize("name", [CORRECTED, LITERAL, "lex"])
def test_a_lead_without_u_factors_is_a_candidate_for_every_monomial(name):
    # x1^2 has an empty u-support, which lies in every monomial's support, so
    # it must reach every candidate list, whatever u-factors the monomial has.
    order = order_handle(name)
    g, h = parse_poly("x1^2", "P", 3), parse_poly("x1^3*u1_2 + x2", "P", 3)
    table = LeadTable([g, h], order)
    layout = table.layout

    def key(text):
        (mono,) = parse_poly(text, "P", 3).terms
        return layout.pack(mono)

    assert table.entries[1][0] == key("x1^3*u1_2")
    for text in ("x1^3*u1_2", "x1^2*u2_3", "x1^2*u1_2*u1_3^2", "x1^4*x3", "x1^2*u1_2*u1_3*u2_3"):
        assert table.reducer(key(text)) is table.entries[0]
        assert table.divided_by_other(key(text), 1)
    assert table.reducer(key("x1*u1_2")) is None
    assert not verify_reduced(table, order)
    assert not verify_reduced([g, h], order)
    assert reduce(h, [g], order) == parse_poly("x2", "P", 3)
    assert reduce(parse_poly("x1^2*u1_2*u1_3 + x3", "P", 3), [g, h], order) == parse_poly(
        "x3", "P", 3
    )


def assert_filing_matches_the_scan(table, monos):
    """`reducer` and `divided_by_other` agree with a plain scan of `entries` in basis order."""
    guards = table.layout.exponent_guards
    for mono in monos:
        dividing = [i for i, (lm, _, _) in enumerate(table.entries) if not (mono - lm) & guards]
        assert table.reducer(mono) is (table.entries[dividing[0]] if dividing else None)
        for own in range(len(table.entries)):
            assert table.divided_by_other(mono, own) == any(i != own for i in dividing)


@pytest.mark.parametrize("name", [CORRECTED, LITERAL, "lex"])
def test_filed_candidates_match_a_scan_of_all_entries(name):
    # `reducer` and `divided_by_other` look only in file 0 and the files of
    # a monomial's u-guard bits; a scan of every entry must agree, on the
    # entry monomials and on random ones, also for entries appended by `add`
    # after lookups have filled the candidate lists.
    order = order_handle(name)
    rng = random.Random(211)
    bases = []
    for d in (2, 3, 4):
        for _ in range(6):
            basis = [random_ppoly(rng, d, terms=3) for _ in range(5)]
            basis.append(random_ppoly(rng, d, terms=2, max_factors=0))  # no u-factors
            bases.append([g for g in basis if not g.is_zero()])
    bases.append(relation_polys(dense_instance((2, 1, 3, 1, 2, 1))))
    without_u = 0
    for basis in bases:
        d = basis[0].ring.d
        head = len(basis) // 2 or 1
        table = LeadTable(basis[:head], order)
        layout = table.layout
        randoms = [layout.pack(random_pmonomial(rng, d)) for _ in range(30)]

        def monos():
            return [m for lm, _, tail in table.entries for m in (lm, *tail)] + randoms

        assert_filing_matches_the_scan(table, monos())
        for g in basis[head:]:
            table.add(layout.pack(leading_term(g, order)[0]), layout.pack_terms(int_terms(g)[0]))
            assert_filing_matches_the_scan(table, monos())
        without_u += sum(not layout.support(lm) & layout.u_guards for lm, _, _ in table.entries)
    assert without_u > 20


def test_the_pair_phase_unpacks_no_monomial(monkeypatch):
    # `PLayout.lcm` works on the packed keys: the check and the completion
    # take no lcm through `PMonomial.lcm` and `verify_groebner` unpacks no
    # key.  The completion unpacks its result once, at the end.
    inst = dense_instance((3, 1, 2, 1, 2))
    expected = verify_groebner(inst).to_json_dict()
    basis = [random_ppoly(random.Random(223), 3, terms=3) for _ in range(3)]
    completed = buchberger_complete(basis, DillOrder())

    def refuse(*args):
        raise AssertionError("a monomial left its packed key")

    monkeypatch.setattr(PMonomial, "lcm", refuse)
    assert buchberger_complete(basis, DillOrder()) == completed
    monkeypatch.setattr(PLayout, "unpack", refuse)
    assert verify_groebner(inst).to_json_dict() == expected


# -- the fast pair phase against the reference path ---------------------------


def test_reduce_matches_reference_reduce():
    # Same reducer choice, so the same normal form, for relation bases with
    # integer and with rational f, whose scaled leads are not 1, and for bases
    # whose leads carry no u-factor, under three orders.
    rng = random.Random(131)
    rational_rng = random.Random(133)
    orders = (DillOrder(), DillOrder(LITERAL), LexOrder())
    for d in (3, 4, 5):
        inst = random_instance(rng, d, max_m=3)
        bases = [relation_polys(inst)]
        bases.append([random_ppoly(rng, d, terms=3, max_factors=1) for _ in range(4)])
        bases[-1].append(parse_poly("x1^2 + x2", "P", d))
        bases.append(relation_polys(rational_instance(rational_rng, d)))
        for basis in bases:
            basis = [g for g in basis if not g.is_zero()]
            for _ in range(10):
                p = random_ppoly(rng, d, terms=5, max_x=3, max_u=2, max_factors=3)
                for order in orders:
                    assert reduce(p, basis, order) == reference_reduce(p, basis, order)


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
            spoly = reference_s_polynomial(basis[pair.left], basis[pair.right], order)
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


def test_verify_groebner_takes_each_lead_at_most_twice(monkeypatch):
    # Lead conformance takes each relation's lead once and `LeadTable` once
    # more; no pair takes a lead again.
    taken = []
    original = groebner.leading_term

    def counting(p, order):
        taken.append(id(p))
        return original(p, order)

    monkeypatch.setattr(groebner, "leading_term", counting)
    inst = classical(5)
    relations = build_relations(inst)
    cert = verify_groebner(inst, relations=relations)
    assert len(cert.pairs) == 105 and cert.verdict
    counts = Counter(taken)
    assert set(counts) == {id(rel.poly) for rel in relations}
    assert max(counts.values()) <= 2


def test_verify_groebner_rejects_relations_of_another_ring():
    relations = build_relations(classical(4))
    with pytest.raises(RingMismatchError, match=r"lies in Ring\(flavor='P', d=4\), not in"):
        verify_groebner(classical(5), relations=relations)
    with pytest.raises(RingMismatchError, match="not in Ring"):
        verify_groebner(classical(3), relations=relations)
    table = build_generators(classical(4))
    images = [rel._replace(poly=pi_substitute(table, rel.poly)) for rel in relations]
    with pytest.raises(RingMismatchError, match=r"lies in Ring\(flavor='A', d=4\)"):
        verify_groebner(classical(4), relations=images)


# -- the integer reduction, reducedness and S-polynomials against references ----


def int_leads(relations, order):
    """The table `verify_groebner` reduces against: primitive packed int term maps."""
    return LeadTable([rel.poly for rel in relations], order)


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
        layout, entries = leads.layout, leads.entries
        pairs = [
            (i, j)
            for i in range(len(basis))
            for j in range(i + 1, len(basis))
            if not coprime_leads(basis[i], basis[j], order)
        ]
        for i, j in pairs:
            work = s_polynomial(entries[i], entries[j], layout)
            spoly = as_polynomial(work, layout, basis[i].ring)
            scale = groebner.reduce_int(work, leads)
            normal_form = reference_reduce(spoly, basis, order)
            assert (not work) == normal_form.is_zero()
            assert scale > 0
            rescaled = as_polynomial(work, layout, spoly.ring).scale(Fraction(1, scale))
            assert rescaled == normal_form
            outcomes.append(not work)
    assert any(outcomes) and not all(outcomes)  # both verdicts occur


def test_reduce_int_budget_counts_steps_across_calls(monkeypatch):
    relations = build_relations(classical(4))
    order = DillOrder()
    leads = int_leads(relations, order)
    work = s_polynomial(leads.entries[0], leads.entries[-1], leads.layout)
    scale = groebner.reduce_int(dict(work), leads)
    steps = leads.steps
    assert steps > 0
    monkeypatch.setattr(groebner, "MAX_REDUCTION_STEPS", 10 + steps)
    leads.steps = 10
    assert groebner.reduce_int(dict(work), leads) == scale
    assert leads.steps == 10 + steps
    monkeypatch.setattr(groebner, "MAX_REDUCTION_STEPS", 9 + steps)
    leads.steps = 10
    with pytest.raises(BudgetExceededError, match=f"more than {9 + steps} reduction steps"):
        groebner.reduce_int(dict(work), leads)


def test_reduce_runs_under_the_step_budget(monkeypatch):
    relations = build_relations(classical(4))
    basis = [rel.poly for rel in relations]
    order = DillOrder()
    spoly = spoly_of(basis[0], basis[-1], order)
    work = order.layout(4).pack_terms(int_terms(spoly)[0])
    leads = int_leads(relations, order)
    groebner.reduce_int(work, leads)
    steps = leads.steps
    monkeypatch.setattr(groebner, "MAX_REDUCTION_STEPS", steps)
    assert reduce(spoly, basis, order).is_zero()
    monkeypatch.setattr(groebner, "MAX_REDUCTION_STEPS", steps - 1)
    message = f"verification needs more than {steps - 1} reduction steps"
    with pytest.raises(BudgetExceededError, match=message):
        reduce(spoly, basis, order)


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
            table = LeadTable(basis, order)
            assert verify_reduced(basis, order) == verify_reduced(table, order) == expected
            verdicts.append(expected)
        assert verify_reduced(int_leads(relations, order), order) == reference_reduced(
            bases[0], order
        )
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("name", [CORRECTED, LITERAL, "lex"])
def test_conformance_and_lead_table_pick_the_same_leads(name):
    # `LeadTable` takes each lead with `leading_term` under the order's key;
    # the int order of the packed keys must put it above every tail key,
    # also where the literal leads do not conform.
    order = order_handle(name)
    rng = random.Random(163)
    for d in (4, 5, 6, 7):
        relations = build_relations(random_instance(rng, d, max_m=3, dense=True))
        for lm, _, tail in int_leads(relations, order).entries:
            assert tail and all(lm > m for m in tail)


def assert_multiple_of(terms, layout, reference):
    """The int term map `terms` is a nonzero rational multiple of the polynomial `reference`."""
    poly = as_polynomial(terms, layout, reference.ring)
    assert poly.terms.keys() == reference.terms.keys()
    if reference.terms:
        mono = next(iter(reference.terms))
        assert poly == reference.scale(poly.terms[mono] / reference.terms[mono])


def test_s_polynomial_matches_product_formula():
    rng = random.Random(157)
    for d in (4, 5, 6):
        for variant in (CORRECTED, LITERAL):
            order = DillOrder(variant)
            basis = relation_polys(random_instance(rng, d, max_m=3, dense=True))
            table = LeadTable(basis, order)
            entries = table.entries
            for i, g in enumerate(basis):
                for j in range(i, len(basis)):
                    assert_multiple_of(
                        s_polynomial(entries[i], entries[j], table.layout),
                        table.layout,
                        reference_s_polynomial(g, basis[j], order),
                    )


@pytest.mark.parametrize("name", [CORRECTED, LITERAL, "lex"])
def test_s_polynomial_is_a_multiple_of_the_product_formula(name):
    # On relation sets, broken ones included, and on random polynomials.
    order = order_handle(name)
    for d, relations in dense_relation_sets():
        basis = [rel.poly for rel in relations]
        table = int_leads(relations, order)
        entries, layout = table.entries, table.layout
        for i, g in enumerate(basis):
            assert s_polynomial(entries[i], entries[i], layout) == {}
            for j in range(i + 1, len(basis)):
                h = basis[j]
                spoly = s_polynomial(entries[i], entries[j], layout)
                assert_multiple_of(spoly, layout, reference_s_polynomial(g, h, order))
                spoly = s_polynomial(entries[j], entries[i], layout)
                assert_multiple_of(spoly, layout, reference_s_polynomial(h, g, order))
    rng = random.Random(167)
    for _ in range(300):
        g = random_ppoly(rng, 4, terms=4, max_factors=3)
        h = random_ppoly(rng, 4, terms=4, max_factors=3)
        if g.is_zero() or h.is_zero():
            continue
        table = LeadTable([g, h], order)
        spoly = s_polynomial(*table.entries, table.layout)
        assert_multiple_of(spoly, table.layout, reference_s_polynomial(g, h, order))


# -- ring P only ----------------------------------------------------------------


def ring_a_inputs():
    return parse_poly("x1^2*y1 + y2", "A", 2), parse_poly("x1*y1 - x2", "A", 2)


def test_reduce_rejects_ring_a():
    p, g = ring_a_inputs()
    with pytest.raises(RingMismatchError, match="over ring P"):
        reduce(p, [g], LexOrder())


def test_verify_reduced_rejects_ring_a():
    p, g = ring_a_inputs()
    with pytest.raises(RingMismatchError, match="over ring P"):
        verify_reduced([p, g], LexOrder())


def test_s_polynomial_rejects_ring_a():
    # The inputs are `LeadTable` entries, and the table refuses ring A.
    p, g = ring_a_inputs()
    with pytest.raises(RingMismatchError, match="over ring P"):
        LeadTable([p, g], LexOrder())


def test_buchberger_complete_rejects_ring_a():
    p, g = ring_a_inputs()
    with pytest.raises(RingMismatchError, match="over ring P"):
        buchberger_complete([p, g], LexOrder())


P3 = r"Ring\(flavor='P', d=3\)"
A3 = r"Ring\(flavor='A', d=3\)"
NOT_RING_P = f"^Groebner bases are computed over ring P, not {A3}$"
MIXED = f"^cannot combine polynomials over {P3} and {A3}$"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda a, p: reduce(a, [p], DillOrder()), NOT_RING_P),
        (lambda a, p: reduce(p, [a], DillOrder()), MIXED),
        (lambda a, p: reduce(p, [p, a], DillOrder()), MIXED),
        (lambda a, p: verify_reduced([a, p], DillOrder()), NOT_RING_P),
        (lambda a, p: verify_reduced([p, a], DillOrder()), MIXED),
        (lambda a, p: buchberger_complete([a, p], DillOrder()), NOT_RING_P),
        (lambda a, p: buchberger_complete([p, a], DillOrder()), MIXED),
    ],
    ids=[
        "reduce-ring-a-by-ring-p",
        "reduce-ring-p-by-ring-a",
        "reduce-ring-p-by-mixed",
        "verify-reduced-a-first",
        "verify-reduced-p-first",
        "buchberger-a-first",
        "buchberger-p-first",
    ],
)
def test_mixed_rings_raise_ring_mismatch(call, message):
    a, p = parse_poly("x1 + y2", "A", 3), parse_poly("u1_2 + x3", "P", 3)
    with pytest.raises(RingMismatchError, match=message):
        call(a, p)


@pytest.mark.parametrize(
    "order",
    [DillOrder(CORRECTED), DillOrder(LITERAL), LexOrder()],
    ids=[CORRECTED, LITERAL, "lex"],
)
def test_lead_table_packs_primitive_int_terms(order):
    # Each entry is the int term map divided by its content signed like the
    # lead coefficient, so every lead coefficient is positive.
    rng = random.Random(167)
    negative = 0
    for d in (3, 4, 5):
        polys = relation_polys(rational_instance(rng, d))
        polys += [random_ppoly(rng, d, terms=4) for _ in range(5)]
        polys = [g for g in polys if not g.is_zero()]
        layout = order.layout(d)
        table = LeadTable(polys, order)
        assert table.layout is layout
        expected = []
        for g in polys:
            terms, _ = int_terms(g)
            packed = {layout.pack(m): c for m, c in terms.items()}
            lm = max(packed)
            content = gcd(*packed.values())
            if packed[lm] < 0:
                content = -content
                negative += 1
            packed = {m: c // content for m, c in packed.items()}
            expected.append((lm, packed.pop(lm), packed))
        assert table.entries == expected
        assert all(lc > 0 for _, lc, _ in table.entries)
    assert negative > 5


# -- reducer choice and the packed-field guard ------------------------------------

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def dense_instance(profile, seed=7):
    """perfbench's dense instance of this degree profile, drawn from random.Random(seed)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    if spec.name not in sys.modules:
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # dataclasses look the module up while it executes
        spec.loader.exec_module(workloads)
    data = sys.modules[spec.name].dense_instance(random.Random(seed), profile)
    return ProblemInstance.from_json_dict(data)


@pytest.mark.parametrize("profile, total", [((3, 1, 2, 1, 2), 192), ((2, 1, 3, 1, 2, 1), 772)])
def test_reduction_steps_over_non_coprime_pairs(monkeypatch, profile, total):
    # The reducer is the lowest-index lead that divides; another choice
    # changes the number of steps.
    taken = []
    original = groebner.reduce_int

    def counting(work, leads):
        before = leads.steps
        scale = original(work, leads)
        taken.append(leads.steps - before)
        return scale

    monkeypatch.setattr(groebner, "reduce_int", counting)
    cert = verify_groebner(dense_instance(profile))
    assert cert.verdict
    assert len(taken) == sum(not p.coprime_leads for p in cert.pairs)
    assert sum(taken) == total


NARROW = "product overflows a packed field of at most 127"


def narrow_layout(monkeypatch, bits):
    monkeypatch.setattr(DillOrder, "layout", lambda self, d: PLayout(d, self.variant, bits))


def test_s_polynomial_refuses_a_product_over_a_packed_field(monkeypatch):
    # With 8-bit fields the leads u1_2 and x1^k*u1_2 pack, and so does their
    # lcm x1^k*u1_2, but its quotient by u1_2 takes the tail x1^80 to x1^(80+k).
    narrow_layout(monkeypatch, 8)
    g = parse_poly("u1_2 - x1^80", "P", 2)
    at_cap = LeadTable([g, parse_poly("x1^47*u1_2", "P", 2)], DillOrder())
    spoly = s_polynomial(*at_cap.entries, at_cap.layout)
    assert as_polynomial(spoly, at_cap.layout, g.ring) == parse_poly("-x1^127", "P", 2)
    over = LeadTable([g, parse_poly("x1^48*u1_2", "P", 2)], DillOrder())
    with pytest.raises(BudgetExceededError, match=NARROW):
        s_polynomial(*over.entries, over.layout)


def test_reduce_int_refuses_a_product_over_a_packed_field(monkeypatch):
    # With 8-bit fields a field holds at most 127: x1^60*u1_2 and the basis
    # element u1_2 - x1^80 pack, but the reduction step builds x1^140.
    narrow_layout(monkeypatch, 8)
    p = parse_poly("x1^60*u1_2", "P", 2)
    g = parse_poly("u1_2 - x1^80", "P", 2)
    assert reduce(parse_poly("x1^47*u1_2", "P", 2), [g], DillOrder()) == parse_poly(
        "x1^127", "P", 2
    )
    with pytest.raises(BudgetExceededError, match=NARROW):
        reduce(p, [g], DillOrder())


def test_verify_gb_exits_2_when_a_packed_field_overflows(monkeypatch, tmp_path, capsys):
    # Under 8-bit fields (at most 127) the relations and S-polynomials of a
    # degree-(2, 1, 1, 126) instance pack, and a reduction product overflows.
    path = tmp_path / "dense4.json"
    inst = dense_instance((2, 1, 1, 126))
    path.write_text(json.dumps(inst.to_json_dict()))
    assert run(["verify-gb", "--instance", str(path)]) == 0
    capsys.readouterr()
    narrow_layout(monkeypatch, 8)
    with pytest.raises(BudgetExceededError, match=NARROW):
        verify_groebner(inst)
    assert run(["verify-gb", "--instance", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "overflows a packed field" in err


# -- the certificate text -----------------------------------------------------


def reference_text(cert):
    return json.dumps(cert.to_json_dict(), indent=2) + "\n"


@pytest.mark.parametrize("variant", [CORRECTED, LITERAL])
def test_certificate_text_is_json_dumps_of_the_dict(variant):
    # d <= 2 has no relations; under literal the leads do not conform and the
    # pair list is empty.
    kinds = Counter()
    for seed in range(3):
        for d in range(1, 8):
            profile = tuple(k % 3 + 1 for k in range(d))
            cert = verify_groebner(dense_instance(profile, seed), variant)
            assert cert.to_json_text() == reference_text(cert)
            kinds.update(p.discharged_by for p in cert.pairs)
            kinds["no pairs"] += not cert.pairs
    assert kinds["no pairs"] >= 6
    if variant == CORRECTED:
        assert kinds["coprime"] and kinds["reduction"]


def test_certificate_text_of_broken_and_empty_relation_sets():
    inst = dense_instance((3, 1, 2, 1, 2))
    full = build_relations(inst)
    s_rows = [index for index, rel in enumerate(full) if rel.family == "S"]
    cases = [full[:dropped] + full[dropped + 1:] for dropped in s_rows]
    first, second = s_rows[0], s_rows[-1]
    unreduced = full[first]._replace(poly=full[first].poly + full[second].poly)
    cases.append([*full[:first], unreduced, *full[first + 1:]])
    cases.append([])
    failing_pairs = unreduced_seen = 0
    for relations in cases:
        cert = verify_groebner(inst, relations=relations)
        assert cert.to_json_text() == reference_text(cert)
        failing_pairs += any(p.discharged_by is None for p in cert.pairs)
        unreduced_seen += not cert.reduced
    assert failing_pairs and unreduced_seen
    # Labels that JSON must escape are quoted as json.dumps quotes them.
    pairs = [PairOutcome('R"1\\', "S\u00e9\n", None), PairOutcome("a", "a", "coprime")]
    odd = GroebnerCertificate(inst, CORRECTED, [], pairs, False)
    assert odd.to_json_text() == reference_text(odd)


def certificate_written_by_cli(inst, tmp_path):
    """The bytes that `verify-gb --certificate` writes for inst."""
    path, cert_path = tmp_path / "inst.json", tmp_path / "cert.json"
    path.write_text(json.dumps(inst.to_json_dict()))
    assert run(["verify-gb", "--instance", str(path), "--certificate", str(cert_path)]) == 0
    return cert_path.read_bytes()


def test_verify_gb_writes_the_json_dumps_bytes(tmp_path, capsys):
    inst = dense_instance((3, 1, 2, 1, 2))
    written = certificate_written_by_cli(inst, tmp_path)
    assert written == reference_text(verify_groebner(inst)).encode()
    assert b'"discharged_by": "coprime"' in written and b'"discharged_by": "reduction"' in written


def test_verify_gb_builds_no_pair_dict(monkeypatch, tmp_path, capsys):
    def refuse(self):
        raise AssertionError("a pair dict was built")

    inst = dense_instance((3, 1, 2, 1, 2))
    reference = reference_text(verify_groebner(inst)).encode()
    monkeypatch.setattr(PairOutcome, "to_json_dict", refuse)
    assert certificate_written_by_cli(inst, tmp_path) == reference
