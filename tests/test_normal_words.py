"""Normal words, image leads, peeling, rewriting, and the nullspace oracle."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import gcd

import pytest

from constalg import (
    LITERAL,
    AMonomial,
    BudgetExceededError,
    LexOrder,
    NotAConstantError,
    PeelingError,
    PMonomial,
    Polynomial,
    ProblemInstance,
    RingMismatchError,
    build_generators,
    count_normal_words,
    enumerate_normal_words,
    independence_check,
    is_constant,
    is_normal_word,
    kernel_dim_oracle,
    lead_of_image,
    leading_term,
    parse_poly,
    pi_substitute,
    recover_word_from_lead,
    rewrite_constant,
    u_pairs,
)
from constalg import linalg, normal_words
from constalg.groebner import expected_lead
from constalg.normal_words import image_degree
from constalg.poly import int_terms, pack, unpack
from constalg.presentation import pi_image_of_monomial, scaled_image
from helpers import (
    RATIONAL_LEADS,
    instance_with_degrees,
    nowicki_hilbert,
    random_instance,
    random_pmonomial,
    random_ppoly,
    rational_instance,
    reference_delta_matrix,
    reference_nullspace,
    reference_recover_word,
    reference_slice_columns,
)


def classical(d):
    return ProblemInstance.from_coeffs(d, [[0, 1]] * d)


def all_pmonomials_up_to_internal_degree(d, bound):
    """Brute-force enumeration over x variables and u pairs."""
    variables = [("x", i) for i in range(1, d + 1)] + [("u", jk) for jk in u_pairs(d)]
    out = []
    for total in range(bound + 1):
        for combo in combinations_with_replacement(variables, total):
            xexp = [0] * d
            udict = {}
            for kind, which in combo:
                if kind == "x":
                    xexp[which - 1] += 1
                else:
                    udict[which] = udict.get(which, 0) + 1
            out.append(PMonomial(tuple(xexp), tuple(udict.items())))
    return out


def test_normality_examples():
    inst = classical(4)
    assert not is_normal_word(inst, PMonomial((0,) * 4, (((1, 3), 1), ((2, 4), 1))))
    inst3 = instance_with_degrees(random.Random(1), (2, 3, 2))
    m2 = inst3.m[1]
    crossing_cap = PMonomial((0, m2, 0), (((1, 3), 1),))
    assert not is_normal_word(inst3, crossing_cap)
    nested = PMonomial((0, m2 - 1, 0), (((1, 3), 1), ((2, 3), 1)))
    assert is_normal_word(inst3, nested)


def test_normality_no_interior_for_d2():
    rng = random.Random(2)
    inst = random_instance(rng, 2)
    for mono in all_pmonomials_up_to_internal_degree(2, 4):
        assert is_normal_word(inst, mono)


def test_normality_equals_divisibility_characterization():
    # agreement with: divisible by no claimed lead monomial
    rng = random.Random(3)
    for d in (3, 4, 5):
        inst = random_instance(rng, d, max_m=3)
        leads = [expected_lead(inst, "R", idx) for idx in combinations(range(1, d + 1), 4)]
        leads += [expected_lead(inst, "S", idx) for idx in combinations(range(1, d + 1), 3)]
        for mono in all_pmonomials_up_to_internal_degree(d, 4):
            expected = not any(lm.divides(mono) for lm in leads)
            assert is_normal_word(inst, mono) == expected


def test_enumeration_d2_image_degree_1():
    inst = classical(2)
    words = enumerate_normal_words(inst, 1)
    assert set(words) == {
        PMonomial.one(2),
        PMonomial((1, 0), ()),
        PMonomial((0, 1), ()),
    }


def test_enumeration_counts_d3_unit_degrees():
    # 28 monomials of internal degree <= 2 in 6 variables; only x2*u1_3 fails
    inst = classical(3)
    monos = all_pmonomials_up_to_internal_degree(3, 2)
    assert len(monos) == 28
    normal = [m for m in monos if is_normal_word(inst, m)]
    assert len(normal) == 27
    (excluded,) = [m for m in monos if m not in normal]
    assert excluded == PMonomial((0, 1, 0), (((1, 3), 1),))


def test_enumeration_sorted_and_duplicate_free():
    from constalg import dill_key

    rng = random.Random(5)
    inst = random_instance(rng, 3, max_m=2)
    words = enumerate_normal_words(inst, 6)
    keys = [dill_key(w) for w in words]
    assert keys == sorted(keys)
    assert len(set(words)) == len(words)


def test_enumeration_filters_by_image_degree():
    rng = random.Random(7)
    inst = random_instance(rng, 3, max_m=3)
    table = build_generators(inst)
    for word in enumerate_normal_words(inst, 5):
        image = pi_substitute(
            table, Polynomial.from_term(inst.ring_p, word, 1)
        )
        assert image.degree() <= 5


def test_image_degree_closed_form_matches_expansion():
    rng = random.Random(5101)
    for d in range(2, 7):
        for _ in range(4):
            inst = instance_with_degrees(rng, [rng.randint(1, 4) for _ in range(d)])
            table = build_generators(inst)
            checked = 0
            while checked < 8:
                mono = random_pmonomial(rng, d, max_x=2, max_u=2, max_factors=3)
                if not is_normal_word(inst, mono):
                    continue
                expanded = pi_image_of_monomial(table, mono).degree()
                assert image_degree(inst, mono) == expanded
                checked += 1


def test_enumeration_is_complete():
    # Brute force: every P-monomial of internal degree <= bound (each
    # variable has image degree >= 1), kept when normal and when its
    # expanded image has degree <= bound.
    rng = random.Random(5102)
    for d, bound in ((1, 6), (2, 6), (3, 5), (3, 5), (4, 4), (4, 4)):
        inst = instance_with_degrees(rng, [rng.randint(1, 3) for _ in range(d)])
        table = build_generators(inst)
        expected = {
            mono
            for mono in all_pmonomials_up_to_internal_degree(d, bound)
            if is_normal_word(inst, mono)
            and pi_image_of_monomial(table, mono).degree() <= bound
        }
        words = enumerate_normal_words(inst, bound)
        assert len(words) == len(expected)
        assert set(words) == expected


def test_enumeration_word_guard(monkeypatch):
    inst = classical(2)
    monkeypatch.setattr(normal_words, "MAX_NORMAL_WORDS", 3)
    assert len(enumerate_normal_words(inst, 1)) == 3
    monkeypatch.setattr(normal_words, "MAX_NORMAL_WORDS", 2)
    with pytest.raises(BudgetExceededError):
        enumerate_normal_words(inst, 1)


def test_literal_enumeration_at_a_high_degree_stays_small():
    # The literal key has a fixed number of fields, whatever the exponents:
    # at d = 1, f = x1, degree 20,000 it sorts like the corrected key in a
    # few MB, where a key listing every factor took about 3 GB.
    inst = classical(1)
    corrected = enumerate_normal_words(inst, 20_000)
    tracemalloc.start()
    try:
        literal = enumerate_normal_words(inst, 20_000, LITERAL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert literal == corrected and len(literal) == 20_001
    assert peak < 8 * 2**20


def words_per_degree(inst, bound):
    per = [0] * (bound + 1)
    for word in enumerate_normal_words(inst, bound):
        per[image_degree(inst, word)] += 1
    return per


def test_count_matches_nowicki_closed_form():
    # Far past the word cap: d = 12 up to degree 30 has 1.4e14 normal words.
    for d in range(1, 13):
        counts = count_normal_words(classical(d), 30)
        assert counts == [nowicki_hilbert(d, n) for n in range(31)]
    assert sum(counts) == 138_495_258_121_950


def test_count_matches_enumeration_per_degree():
    # f_i = x_i at d = 5, degree 7 reaches a pair of intervals nested in a third.
    assert count_normal_words(classical(5), 7) == words_per_degree(classical(5), 7)
    rng = random.Random(6101)
    for _ in range(40):
        d = rng.randint(1, 6)
        inst = instance_with_degrees(rng, [rng.randint(1, 4) for _ in range(d)])
        bound = rng.randint(0, 9 - d)
        assert count_normal_words(inst, bound) == words_per_degree(inst, bound)


def test_count_enumeration_and_kernel_oracle_agree():
    # Three independent routes to the dimension of the constants of degree
    # <= b.  With m_1 >= ... >= m_d the lead x_j^m_j*y_k of pi(u_jk) has
    # the full image degree, so peeling a constant never raises its degree.
    rng = random.Random(6102)
    for d, bound in ((1, 8), (2, 7), (2, 7), (3, 6), (3, 5), (4, 4), (4, 4), (5, 4)):
        degrees = sorted((rng.randint(1, 3) for _ in range(d)), reverse=True)
        inst = instance_with_degrees(rng, degrees)
        counts = count_normal_words(inst, bound)
        assert counts == words_per_degree(inst, bound)
        for b in range(bound + 1):
            dimension = len(kernel_dim_oracle(inst, b))
            assert sum(counts[: b + 1]) == len(enumerate_normal_words(inst, b)) == dimension


def test_count_bounds_kernel_dimension_below():
    # The images of the counted words are independent constants of degree
    # <= b, so they never outnumber the kernel.  When some m_j < m_k (j < k),
    # a constant of degree <= b may need words of higher image degree:
    # for m = (3, 1, 3), x2*u1_3 (degree 5) equals x3^3*u1_2 + x1^3*u2_3,
    # whose words have image degree 7.
    rng = random.Random(6103)
    for d, bound in ((2, 7), (3, 6), (3, 6), (4, 4), (4, 4), (5, 3)):
        inst = instance_with_degrees(rng, [rng.randint(1, 3) for _ in range(d)])
        counts = count_normal_words(inst, bound)
        for b in range(bound + 1):
            assert sum(counts[: b + 1]) <= len(kernel_dim_oracle(inst, b))
    inst = ProblemInstance.from_coeffs(3, [[0, 0, 0, 1], [0, 1], [0, 0, 0, 1]])
    assert sum(count_normal_words(inst, 5)) == 67
    assert len(kernel_dim_oracle(inst, 5)) == 68


def test_count_budget(monkeypatch):
    inst = classical(4)
    assert count_normal_words(inst, 0) == [1]
    with pytest.raises(ValueError):
        count_normal_words(inst, -1)
    monkeypatch.setattr(normal_words, "MAX_COUNT_WORK", normal_words._count_work(4, 5))
    assert sum(count_normal_words(inst, 5)) == 361
    with pytest.raises(BudgetExceededError):
        count_normal_words(inst, 6)


def test_lead_of_image_examples():
    inst = ProblemInstance.from_coeffs(2, [[0, 0, 3], [0, 1]])  # f1 = 3*x1^2
    mono, coeff = lead_of_image(inst, PMonomial((0, 0), (((1, 2), 1),)))
    assert mono == AMonomial((2, 0), (0, 1))
    assert coeff == 3

    rng = random.Random(11)
    inst3 = random_instance(rng, 3)
    mono, coeff = lead_of_image(inst3, PMonomial((0, 0, 1), (((1, 2), 1),)))
    m1 = inst3.m[0]
    assert mono == AMonomial((m1, 0, 1), (0, 1, 0))
    assert coeff == inst3.lc[0]


def test_lead_of_image_shared_endpoint_oracle():
    # nested factors u1_3*u2_3: compare against the expanded image's lead
    rng = random.Random(13)
    inst = instance_with_degrees(rng, (2, 3, 1))
    word = PMonomial((0, 0, 0), (((1, 3), 1), ((2, 3), 1)))
    assert is_normal_word(inst, word)
    mono, coeff = lead_of_image(inst, word)
    m1, m2 = inst.m[0], inst.m[1]
    assert mono == AMonomial((m1, m2, 0), (0, 0, 2))
    assert coeff == inst.lc[0] * inst.lc[1]
    table = build_generators(inst)
    image = pi_substitute(table, Polynomial.from_term(inst.ring_p, word, 1))
    assert leading_term(image, LexOrder()) == (mono, coeff)


def test_lead_of_image_agrees_with_expansion_for_all_words():
    rng = random.Random(17)
    for d in (2, 3, 4):
        inst = random_instance(rng, d, max_m=3)
        table = build_generators(inst)
        for word in enumerate_normal_words(inst, 5):
            image = pi_substitute(
                table, Polynomial.from_term(inst.ring_p, word, 1)
            )
            assert leading_term(image, LexOrder()) == lead_of_image(inst, word)


def test_lead_of_image_rejects_non_normal():
    inst = classical(4)
    with pytest.raises(ValueError):
        lead_of_image(inst, PMonomial((0,) * 4, (((1, 3), 1), ((2, 4), 1))))


def test_lead_of_image_rejects_word_of_other_d():
    with pytest.raises(RingMismatchError):
        lead_of_image(classical(4), PMonomial((0,) * 3, (((1, 2), 1),)))


def test_lead_of_image_refuses_a_word_whose_image_overflows_a_field():
    # f1 = x1^2, so pi(u1_2^e) leads with x1^(2e)*y2^e and x1's field caps e
    inst = ProblemInstance.from_coeffs(2, [[0, 0, 1], [0, 1]])
    table = build_generators(inst)
    for word in (PMonomial((0, 0), (((1, 2), 2**31),)), PMonomial((2**33, 0), ())):
        with pytest.raises(BudgetExceededError):
            lead_of_image(inst, word)
        with pytest.raises(BudgetExceededError):
            pi_substitute(table, Polynomial.from_term(inst.ring_p, word, 1))


def test_lead_of_image_of_a_word_within_room():
    inst = ProblemInstance.from_coeffs(2, [[0, 0, 1], [0, 1]])
    for word, lead in (
        (PMonomial((3, 1), (((1, 2), 2),)), AMonomial((7, 1), (0, 2))),
        (PMonomial((0, 0), (((1, 2), 2**30 - 1),)), AMonomial((2**31 - 2, 0), (0, 2**30 - 1))),
        (PMonomial((2**32 - 1, 0), ()), AMonomial((2**32 - 1, 0), (0, 0))),
    ):
        assert lead_of_image(inst, word) == (lead, 1)


def test_recover_two_factor_lead():
    rng = random.Random(19)
    inst = random_instance(rng, 4)
    m = inst.m
    lead = AMonomial((m[0], 0, m[2], 0), (0, 1, 0, 1))
    word = recover_word_from_lead(inst, lead)
    assert word == PMonomial((0,) * 4, (((1, 2), 1), ((3, 4), 1)))


def test_recover_pure_x_base_case():
    rng = random.Random(23)
    inst = random_instance(rng, 2)
    lead = AMonomial((5, 0), (0, 0))
    assert recover_word_from_lead(inst, lead) == PMonomial((5, 0), ())


def test_recover_impossible_lead():
    rng = random.Random(29)
    inst = random_instance(rng, 3)
    with pytest.raises(PeelingError):
        recover_word_from_lead(inst, AMonomial((0, 0, 0), (1, 0, 0)))


def test_recover_round_trip_for_all_enumerated_words():
    rng = random.Random(31)
    for d in (2, 3, 4):
        inst = random_instance(rng, d, max_m=3)
        for word in enumerate_normal_words(inst, 5):
            lead, _ = lead_of_image(inst, word)
            assert recover_word_from_lead(inst, lead) == word


def _peel_outcome(peel, inst, lead):
    try:
        return peel(inst, lead)
    except PeelingError:
        return PeelingError


@pytest.mark.parametrize("d", range(2, 7))
def test_peel_by_shift_matches_reference_peel(d):
    # Several factors u_ik per step against one per step, on every lead of the
    # enumerated words and on random keys, most of which are no lead at all.
    rng = random.Random(900 + d)
    inst = random_instance(rng, d, max_m=3)
    words = enumerate_normal_words(inst, 6)
    leads = [unpack(lead_of_image(inst, w)[0], d) for w in words]
    randoms = [
        tuple(rng.randint(0, 7) if slot % 2 == 0 else rng.randint(0, 2) for slot in range(2 * d))
        for _ in range(400)
    ]
    outcomes = []
    for exps in leads + randoms:
        outcome = _peel_outcome(recover_word_from_lead, inst, pack(exps))
        assert outcome == _peel_outcome(reference_recover_word, inst, exps), exps
        outcomes.append(outcome)
    assert outcomes[: len(words)] == words
    failed = outcomes[len(words):].count(PeelingError)
    assert len(randoms) // 2 < failed < len(randoms)


def test_recovered_leads_are_injective():
    rng = random.Random(37)
    inst = random_instance(rng, 4, max_m=2)
    words = enumerate_normal_words(inst, 4)
    leads = [lead_of_image(inst, w)[0] for w in words]
    assert len(set(leads)) == len(leads)


def test_rewrite_pure_x():
    rng = random.Random(41)
    inst = random_instance(rng, 2)
    g = parse_poly("x1^3", "A", 2)
    assert rewrite_constant(inst, g) == parse_poly("x1^3", "P", 2)


def test_rewrite_generator_itself():
    inst = classical(2)
    h = rewrite_constant(inst, parse_poly("x1*y2 - x2*y1", "A", 2))
    assert h == parse_poly("u1_2", "P", 2)


def test_rewrite_round_trip_d4():
    rng = random.Random(43)
    inst = random_instance(rng, 4, max_m=2)
    table = build_generators(inst)
    p = parse_poly("u1_2*u3_4 + 5*x1*u2_3", "P", 4)
    g = pi_substitute(table, p)
    h = rewrite_constant(inst, g)
    assert pi_substitute(table, h) == g
    assert all(is_normal_word(inst, mono) for mono in h.terms)


def test_rewrite_rejects_non_constant():
    rng = random.Random(47)
    inst = random_instance(rng, 2)
    with pytest.raises(NotAConstantError):
        rewrite_constant(inst, parse_poly("y1", "A", 2))


def test_rewrite_output_is_always_normal():
    rng = random.Random(53)
    for _ in range(20):
        d = rng.randint(2, 4)
        inst = random_instance(rng, d, max_m=2)
        table = build_generators(inst)
        p = random_ppoly(rng, d, terms=3, max_x=2, max_u=1, max_factors=2)
        g = pi_substitute(table, p)
        if g.is_zero():
            continue
        h = rewrite_constant(inst, g)
        assert all(is_normal_word(inst, mono) for mono in h.terms)
        assert pi_substitute(table, h) == g


def test_kernel_oracle_d1():
    rng = random.Random(59)
    inst = random_instance(rng, 1, max_m=3)
    basis = kernel_dim_oracle(inst, 3)
    assert len(basis) == 4
    expected = {parse_poly(t, "A", 1) for t in ("1", "x1", "x1^2", "x1^3")}
    assert set(basis) == expected


def test_kernel_oracle_d2_classical():
    inst = classical(2)
    basis = kernel_dim_oracle(inst, 2)
    assert len(basis) == 7
    for g in basis:
        assert is_constant(inst, g)
        assert g.degree() <= 2
    # span check against the expected basis, via ranks of the joint system
    expected = [parse_poly(t, "A", 2) for t in (
        "1", "x1", "x2", "x1^2", "x1*x2", "x2^2", "x1*y2 - x2*y1"
    )]
    cols = {}
    rows = []
    for poly in basis + expected:
        terms, _ = int_terms(poly)
        rows.append({cols.setdefault(mono, len(cols)): coeff for mono, coeff in terms.items()})
    joint_rank = linalg.rank(rows, len(cols))
    assert joint_rank == linalg.rank(rows[:7], len(cols)) == 7


def test_kernel_oracle_basis_members_are_constants():
    rng = random.Random(61)
    for d in (1, 2, 3):
        inst = random_instance(rng, d, max_m=2)
        for g in kernel_dim_oracle(inst, 3):
            assert is_constant(inst, g)


@pytest.mark.parametrize("d, degrees", [(1, (3, 6)), (2, (2, 4)), (3, (2, 4))])
def test_kernel_oracle_basis_is_normalized(d, degrees, monkeypatch):
    # Each element is primitive over Z with a positive A-lex-leading
    # coefficient, and the basis is sorted by lead, descending.  Leads may
    # repeat: on tests/golden/mixed4.json at degree 5 the 185 elements have
    # 149 distinct leads.
    captured = []
    nullspace = linalg.nullspace

    def spy(rows, ncols):
        captured.append((rows, ncols))
        return nullspace(rows, ncols)

    monkeypatch.setattr(linalg, "nullspace", spy)
    rng = random.Random(1700 + d)
    for _ in range(3):
        inst = rational_instance(rng, d)
        for degree in degrees:
            captured.clear()
            basis = kernel_dim_oracle(inst, degree)
            ((rows, ncols),) = captured
            assert len(basis) == len(reference_nullspace(rows, ncols))
            leads = []
            for g in basis:
                assert all(c.denominator == 1 for c in g.terms.values())
                assert gcd(*[int(c) for c in g.terms.values()]) == 1
                lead, lc = leading_term(g, LexOrder())
                assert lc > 0
                assert is_constant(inst, g)
                leads.append(lead)
            assert leads == sorted(leads, reverse=True)


def test_kernel_oracle_budget_guard(monkeypatch):
    inst = classical(3)
    monkeypatch.setattr(normal_words, "MAX_SLICE_MONOMIALS", 10)
    with pytest.raises(BudgetExceededError):
        kernel_dim_oracle(inst, 5)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_slice_columns_match_the_multiset_enumeration(d):
    # The table of trailing-slot keys gives every monomial of degree <= D
    # once, in descending A-lex order; D = 0 gives the one monomial 1.
    for max_degree in range(7):
        cols = normal_words._monomials_up_to_degree(d, max_degree)
        assert cols == reference_slice_columns(d, max_degree)
    assert normal_words._monomials_up_to_degree(d, 0) == [0]


@pytest.mark.parametrize("d, max_degree", [(1, 7), (2, 5), (3, 4), (4, 3)])
def test_delta_matrix_matches_the_per_column_build(d, max_degree):
    # delta(x^a*y^b) = x^a*delta(y^b): one delta per y-monomial gives the
    # same columns, in the same order, and the same rows, entry order included.
    rng = random.Random(3500 + d)
    for inst in (
        rational_instance(rng, d),
        instance_with_degrees(
            rng, [rng.randint(1, 3) for _ in range(d)], dense=True, leads=RATIONAL_LEADS
        ),
        classical(d),
    ):
        for degree in range(max_degree + 1):
            cols, rows = normal_words._delta_matrix(inst, degree)
            ref_cols, ref_rows = reference_delta_matrix(inst, degree)
            assert cols == ref_cols
            assert [list(row.items()) for row in rows] == [list(row.items()) for row in ref_rows]
    assert normal_words._delta_matrix(inst, 0) == ([0], [])


def test_kernel_oracle_builds_checked_polynomials():
    # The basis comes from the unchecked constructor; the checked one gives
    # the same polynomials, with Fraction coefficients in the same order.
    inst = instance_with_degrees(random.Random(3510), (2, 1, 3), dense=True, leads=RATIONAL_LEADS)
    for g in kernel_dim_oracle(inst, 4):
        checked = Polynomial(g.ring, g.terms)
        assert checked == g and list(checked.terms.items()) == list(g.terms.items())
        assert all(type(c) is Fraction for c in g.terms.values())


def test_rewrite_round_trips_every_oracle_basis_element():
    rng = random.Random(67)
    inst = instance_with_degrees(rng, (1, 2, 2))
    table = build_generators(inst)
    for g in kernel_dim_oracle(inst, 4):
        h = rewrite_constant(inst, g)
        assert pi_substitute(table, h) == g


def test_independence_rank_equals_count():
    rng = random.Random(71)
    inst = instance_with_degrees(rng, (1, 2, 2))
    result = independence_check(inst, 5)
    assert result.ok
    assert result.rank == result.word_count == 85


def test_independence_check_reads_each_lead_off_its_integer_image(monkeypatch):
    rng = random.Random(79)
    for d in (2, 3, 4):
        inst = random_instance(rng, d, max_m=3)
        table = build_generators(inst)
        words = enumerate_normal_words(inst, 5)
        for word in words:
            assert max(scaled_image(table, word)[0]) == lead_of_image(inst, word)[0]
    # a word listed twice shares its lead with itself
    monkeypatch.setattr(normal_words, "enumerate_normal_words", lambda inst, D: words + words[:1])
    result = independence_check(inst, 5)
    assert not result.leads_pairwise_distinct
    assert result.rank == len(words)


def test_independence_trivial_degree_zero():
    rng = random.Random(73)
    inst = random_instance(rng, 3)
    result = independence_check(inst, 0)
    assert result.word_count == 1
    assert result.rank == 1
    assert result.ok
    assert repr(result) == "IndependenceResult(word_count=1, rank=1, leads_pairwise_distinct=True)"
