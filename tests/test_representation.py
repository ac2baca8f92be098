"""Dense exponent tuples and packed ring-A keys against the sparse reference representation."""

import random
from operator import add

import pytest

from constalg import (
    CORRECTED,
    LITERAL,
    AMonomial,
    BudgetExceededError,
    DillOrder,
    LexOrder,
    PMonomial,
    Polynomial,
    ProblemInstance,
    apply_delta,
    build_generators,
    dill_key,
    format_monomial,
    format_poly,
    parse_poly,
    pi_substitute,
    ring_a,
    ring_p,
    u_pairs,
)
from constalg.poly import (
    FIELD_MAX,
    LEX,
    MAX_EXPONENT,
    PLayout,
    field_shift,
    p_layout,
    pack,
    u_position,
    univariate,
    unpack,
)
from constalg.presentation import pi_image_of_monomial
from helpers import (
    a_exponents,
    random_instance,
    random_pmonomial,
    random_ppoly,
    random_sparse_p,
    sparse_alex_key,
    sparse_dill_key,
    sparse_format,
    sparse_of,
    sparse_p_div,
    sparse_p_divides,
    sparse_p_lcm,
    sparse_p_mul,
)


@pytest.mark.parametrize("d", range(2, 8))
def test_pmonomial_matches_sparse_reference(d):
    rng = random.Random(4000 + d)
    for _ in range(300):
        a, b = random_sparse_p(rng, d), random_sparse_p(rng, d)
        ma, mb = PMonomial(a[0], a[1].items()), PMonomial(b[0], b[1].items())
        assert ma.d == d
        assert sparse_of(ma) == a
        assert ma.upairs == tuple(sorted(a[1].items()))
        assert PMonomial(ma.xexp, ma.upairs) == ma
        assert format_monomial(ma) == sparse_format(*a)

        product = ma.mul(mb)
        assert sparse_of(product) == sparse_p_mul(a, b)
        assert sparse_of(ma.lcm(mb)) == sparse_p_lcm(a, b)
        assert ma.divides(mb) == sparse_p_divides(a, b)
        assert ma.divides(product) and sparse_p_divides(a, sparse_p_mul(a, b))
        assert sparse_of(product.div(ma)) == sparse_p_div(sparse_p_mul(a, b), a)

        for variant in (CORRECTED, LITERAL):
            ka, kb = dill_key(ma, variant), dill_key(mb, variant)
            assert (ka < kb) == (sparse_dill_key(a, variant) < sparse_dill_key(b, variant))
            assert (ka == kb) == (a == b)


@pytest.mark.parametrize("d", range(2, 8))
def test_amonomial_matches_sparse_reference(d):
    rng = random.Random(5000 + d)
    monos, refs = [], []
    for _ in range(300):
        xexp = tuple(rng.randint(0, 3) for _ in range(d))
        yexp = tuple(rng.randint(0, 3) for _ in range(d))
        mono = AMonomial(xexp, yexp)
        assert a_exponents(mono, d) == (xexp, yexp)
        assert unpack(mono, d) == sparse_alex_key(xexp, yexp)
        assert format_monomial(mono, d) == sparse_format(xexp, yexp)
        if monos:
            other, (other_x, other_y) = monos[-1], refs[-1]
            product = mono + other
            assert a_exponents(product, d) == (
                tuple(map(add, xexp, other_x)),
                tuple(map(add, yexp, other_y)),
            )
            assert unpack(product, d) == tuple(map(add, unpack(mono, d), unpack(other, d)))
        monos.append(mono)
        refs.append((xexp, yexp))
    by_key = sorted(range(len(monos)), key=lambda t: monos[t])
    by_reference = sorted(range(len(monos)), key=lambda t: sparse_alex_key(*refs[t]))
    assert by_key == by_reference


def test_constructors_validate():
    with pytest.raises(ValueError):
        PMonomial((0, 0, 0), (((1, 2), 1), ((1, 2), 2)))
    with pytest.raises(ValueError):
        PMonomial((0, 0), (((1, 3), 1),))
    with pytest.raises(ValueError):
        PMonomial((0, -1), ())
    with pytest.raises(ValueError):
        AMonomial((0, 1), (0,))
    with pytest.raises(ValueError):
        AMonomial((0,), (-1,))
    with pytest.raises(ValueError):
        AMonomial((FIELD_MAX + 1,), (0,))
    assert PMonomial((1, 0), (((1, 2), 0),)) == PMonomial((1, 0), ())


def test_u_position_indexes_u_pairs():
    for d in range(1, 9):
        for pos, (j, k) in enumerate(u_pairs(d)):
            assert u_position(d, j, k) == pos


def test_generator_degree_closed_form():
    # deg pi(u_jk) = max(m_j, m_k) + 1, the weight normal-word enumeration uses
    rng = random.Random(59)
    for d in (2, 3, 4, 5):
        inst = random_instance(rng, d, max_m=4)
        table = build_generators(inst)
        for j, k in u_pairs(d):
            assert table.u_power(j, k, 1).degree() == max(inst.m[j - 1], inst.m[k - 1]) + 1


@pytest.mark.parametrize("d", range(1, 8))
def test_packed_monomial_round_trip_and_order(d):
    # Packed keys of ring A: the fields read back as the exponent tuple, int
    # order is the tuple order (so the A-lex order), and + is the product.
    rng = random.Random(6000 + d)
    monos = [(0,) * (2 * d)]
    for _ in range(300):
        top = rng.choice((3, MAX_EXPONENT))
        xexp, yexp = (tuple(rng.randint(0, top) for _ in range(d)) for _ in "xy")
        monos.append(sparse_alex_key(xexp, yexp))
        assert AMonomial(xexp, yexp) == pack(monos[-1])
    monos.append((FIELD_MAX,) * (2 * d))
    keys = [pack(mono) for mono in monos]
    for mono, key in zip(monos, keys):
        assert unpack(key, d) == mono
        assert [key >> field_shift(d, slot) & FIELD_MAX for slot in range(2 * d)] == list(mono)
    assert sorted(range(len(monos)), key=keys.__getitem__) == sorted(
        range(len(monos)), key=monos.__getitem__
    )
    assert sorted(keys) == [pack(mono) for mono in sorted(monos)]
    for a, b in zip(monos[1:100], monos[2:101]):
        if max(a) + max(b) <= FIELD_MAX:
            assert pack(a) + pack(b) == pack(tuple(map(add, a, b)))
    capped = [key for key, mono in zip(keys, monos) if max(mono) <= MAX_EXPONENT]
    assert set(Polynomial(ring_a(d), dict.fromkeys(capped, 1)).terms) == set(capped)


def test_polynomial_refuses_exponents_above_the_cap():
    over = AMonomial((0, MAX_EXPONENT + 1), (MAX_EXPONENT, 0))
    with pytest.raises(BudgetExceededError, match=f"exponent {MAX_EXPONENT + 1} of x2 exceeds"):
        Polynomial(ring_a(2), {over: 1})


@pytest.mark.parametrize("d", (1, 8, 64))
def test_degree_is_the_field_sum(d):
    rng = random.Random(7000 + d)
    keys = [AMonomial((MAX_EXPONENT,) * d, (MAX_EXPONENT,) * d), 0]
    for _ in range(100):
        top = rng.choice((3, MAX_EXPONENT))
        keys.append(AMonomial(*(tuple(rng.randint(0, top) for _ in range(d)) for _ in "xy")))
    for key in keys:
        assert Polynomial(ring_a(d), {key: 1}).degree() == sum(sum(a_exponents(key, d), ()))
    assert Polynomial(ring_a(d), dict.fromkeys(keys[1:], 1)).degree() == max(
        sum(unpack(key, d)) for key in keys[1:]
    )
    # ring P sums the exponent tuple; zero has degree -1 in both rings
    assert parse_poly("u1_2^2*x1 + x2", "P", 2).degree() == 3
    assert Polynomial(ring_p(2), {}).degree() == Polynomial(ring_a(d), {}).degree() == -1


OVER = f"exponent {MAX_EXPONENT + 1} of x1 exceeds the cap"


@pytest.mark.parametrize("slot", range(4))
def test_product_at_the_cap_is_exact(slot):
    # one field sums to MAX_EXPONENT exactly, its neighbours to 3; one more overflows
    a = 1000
    left = [1] * 4
    right = [2] * 4
    left[slot], right[slot] = a, MAX_EXPONENT - a
    product = Polynomial(ring_a(2), {pack(left): 1}) * Polynomial(ring_a(2), {pack(right): 1})
    expected = [3] * 4
    expected[slot] = MAX_EXPONENT
    assert list(product.terms) == [pack(expected)]
    assert product.degree() == MAX_EXPONENT + 9
    right[slot] += 1
    with pytest.raises(BudgetExceededError, match="exceeds the cap"):
        Polynomial(ring_a(2), {pack(left): 1}) * Polynomial(ring_a(2), {pack(right): 1})


def test_ring_a_results_refuse_exponents_above_the_cap():
    x1 = parse_poly("x1", "A", 2)
    assert (x1**MAX_EXPONENT).degree() == MAX_EXPONENT
    with pytest.raises(BudgetExceededError, match=OVER):
        x1 ** (MAX_EXPONENT + 1)
    with pytest.raises(BudgetExceededError, match=OVER):
        x1 ** (1 << 64)  # fails on a squaring, long before the last one
    assert univariate(ring_a(2), 1, ((MAX_EXPONENT, 1),)).degree() == MAX_EXPONENT
    with pytest.raises(BudgetExceededError, match=OVER):
        univariate(ring_a(2), 1, ((MAX_EXPONENT + 1, 1),))
    with pytest.raises(BudgetExceededError, match=f"exponent {FIELD_MAX + 1} of x1 exceeds"):
        univariate(ring_a(2), 1, ((FIELD_MAX + 1, 1),))

    nowicki = ProblemInstance.from_coeffs(2, [[0, 1], [0, 1]])
    near = parse_poly(f"x1^{MAX_EXPONENT - 1}*y1", "A", 2)
    assert apply_delta(nowicki, near) == parse_poly(f"x1^{MAX_EXPONENT}", "A", 2)
    with pytest.raises(BudgetExceededError, match=OVER):
        apply_delta(nowicki, near * parse_poly("x1", "A", 2))

    table = build_generators(nowicki)
    word = PMonomial((MAX_EXPONENT - 1, 0), (((1, 2), 1),))
    assert pi_image_of_monomial(table, word).degree() == MAX_EXPONENT + 1
    over_word = PMonomial((MAX_EXPONENT, 0), (((1, 2), 1),))
    with pytest.raises(BudgetExceededError, match=OVER):
        pi_image_of_monomial(table, over_word)
    with pytest.raises(BudgetExceededError, match=OVER):
        pi_substitute(table, Polynomial.from_term(nowicki.ring_p, over_word, 1))

    # f1 = x1^65536: the lead x1^(65536*e)*y2^e of u1_2^e reaches 2^21 at e = 32
    wide = build_generators(ProblemInstance.from_coeffs(2, [[0] * 65536 + [1], [0, 1]]))
    assert wide.u_power(1, 2, 31).degree() == 65536 * 31 + 31
    with pytest.raises(BudgetExceededError, match=OVER):
        wide.u_power(1, 2, 32)


def test_ring_p_products_refuse_a_field_past_the_packed_width():
    # A ring-P product adds keys of the lex layout, whose fields hold at most
    # 2^31 - 1; a product past that raises instead of building a polynomial
    # that `format_poly` would refuse.
    half = 2**30
    assert format_poly(u12_power(half) * u12_power(half - 1)) == "u1_2^2147483647"
    message = "a product overflows a packed field of at most 2147483647"
    with pytest.raises(BudgetExceededError, match=message):
        u12_power(half) * u12_power(half)
    with pytest.raises(BudgetExceededError, match=message):
        (u12_power(half) + parse_poly("x1", "P", 2)) ** 2


# -- packed ring-P keys -----------------------------------------------------------


@pytest.mark.parametrize("d", range(2, 9))
def test_packed_p_int_order_is_the_corrected_dill_order(d):
    # The int order of each layout is its order: the corrected and literal
    # keys sort like the sparse reference keys, the lex key like the tuples.
    rng = random.Random(8000 + d)
    monos = [PMonomial.one(d)]
    for _ in range(300):
        top = rng.choice((3, MAX_EXPONENT))
        monos.append(random_pmonomial(rng, d, max_x=top, max_u=top, max_factors=3))
    # The reference literal key spells out every factor: small exponents only.
    small = [mono for mono in monos if max(mono) <= 3]
    cases = ((DillOrder(CORRECTED), monos), (DillOrder(LITERAL), small), (LexOrder(), monos))
    for order, sample in cases:
        layout = order.layout(d)
        keys = [layout.pack(mono) for mono in sample]
        assert [layout.unpack(key) for key in keys] == sample
        if isinstance(order, DillOrder):
            assert keys == [dill_key(mono, order.variant) for mono in sample]
            reference = [sparse_dill_key(sparse_of(mono), order.variant) for mono in sample]
        else:
            reference = sample
        by_key = sorted(range(len(sample)), key=keys.__getitem__)
        assert by_key == sorted(range(len(sample)), key=reference.__getitem__)
    width = len(monos[0])
    for mono in monos:
        u_degree, length, x_degree, _ = sparse_dill_key(sparse_of(mono))
        assert dill_key(mono) >> 32 * width == (u_degree << 64) + (length << 32) + x_degree


@pytest.mark.parametrize("d", range(2, 8))
def test_packed_p_operations_match_pmonomial(d):
    # Under every order a quotient and a product are sums of keys less the
    # key of 1, and divisibility reads the exponent fields' guards.
    rng = random.Random(8100 + d)
    for order in (DillOrder(CORRECTED), DillOrder(LITERAL), LexOrder()):
        layout = order.layout(d)
        pack, guards, support = layout.pack, layout.exponent_guards, layout.support
        one = pack(PMonomial.one(d))
        for _ in range(300):
            a, b, c = (random_pmonomial(rng, d) for _ in "abc")
            ka, kb, kc = pack(a), pack(b), pack(c)
            multiple = a.mul(c)
            assert ka + kc - one == pack(multiple)
            assert pack(multiple) - ka + one == kc == pack(multiple.div(a))
            assert not (pack(multiple) - ka) & guards
            assert (not (ka - kb) & guards) == b.divides(a)
            assert (not (kb - ka) & guards) == a.divides(b)
            lcm = pack(a.lcm(b))
            assert lcm - ka + one == pack(a.lcm(b).div(a))
            assert lcm - kb + one == pack(a.lcm(b).div(b))
            assert not (lcm - ka) & guards and not (lcm - kb) & guards
            assert kb + lcm - ka == pack(b.mul(a.lcm(b).div(a)))  # g*q from g, m and lm
            assert (not support(ka) & support(kb)) == (a.lcm(b) == a.mul(b))


def sparse_p_monomial(sparse):
    return PMonomial(sparse[0], sparse[1].items())


@pytest.mark.parametrize("d", range(2, 8))
def test_packed_lcm_matches_the_sparse_reference(d):
    # Random pairs, each also against itself and against a monomial of no
    # common variable, under every order, on the shared 32-bit layout and
    # on 8- and 16-bit fields.  Exponents stay below field_max // (6d), so
    # every degree and interval-length field of a product or an lcm fits.
    rng = random.Random(8200 + d)
    for order in (CORRECTED, LITERAL, LEX):
        for layout in (p_layout(d, order), PLayout(d, order, 8), PLayout(d, order, 16)):
            cap = layout.field_max // (6 * d)
            for _ in range(200):
                a, b = (random_sparse_p(rng, d, max_x=cap, max_u=cap) for _ in range(2))
                coprime = (
                    tuple(0 if x else y for x, y in zip(a[0], b[0])),
                    {pair: e for pair, e in b[1].items() if pair not in a[1]},
                )
                ka = layout.pack(sparse_p_monomial(a))
                for other in (b, a, coprime):
                    expected = layout.pack(sparse_p_monomial(sparse_p_lcm(a, other)))
                    kb = layout.pack(sparse_p_monomial(other))
                    assert layout.lcm(ka, kb) == layout.lcm(kb, ka) == expected
                assert layout.lcm(ka, ka) == ka
                kc = layout.pack(sparse_p_monomial(coprime))
                assert not layout.support(ka) & layout.support(kc)
                product = sparse_p_monomial(sparse_p_mul(a, coprime))
                assert layout.lcm(ka, kc) == layout.pack(product)


def test_packed_lcm_refuses_a_field_over_the_layout():
    # With 8-bit fields x1^100 and x2^100 each pack, but their lcm has
    # x-degree 200 > 127, a field of both DILL layouts; lex has no degree
    # field and holds it.  The coprime pair and the pair of shared support
    # take the two paths of `lcm`.
    for order in (CORRECTED, LITERAL, LEX):
        layout = PLayout(2, order, 8)
        product = PMonomial((100, 100), ())
        for left, right in (((100, 0), (0, 100)), ((100, 1), (1, 100))):
            a, b = (layout.pack(PMonomial(xexp, ())) for xexp in (left, right))
            if order == LEX:
                assert layout.lcm(a, b) == layout.lcm(b, a) == layout.pack(product)
                continue
            for first, second in ((a, b), (b, a)):
                with pytest.raises(BudgetExceededError) as raised:
                    layout.lcm(first, second)
                assert str(raised.value) == layout.overflow_message
            with pytest.raises(BudgetExceededError, match=r"monomial x1\^100\*x2\^100 overflows"):
                layout.pack(product)


def reference_p_product(p, q):
    """p*q multiplied out term by term with the sparse reference product."""
    terms = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            mono = sparse_p_monomial(sparse_p_mul(sparse_of(m1), sparse_of(m2)))
            terms[mono] = terms.get(mono, 0) + c1 * c2
    return Polynomial(p.ring, terms)  # drops the coefficients that cancelled


@pytest.mark.parametrize("d", range(1, 6))
def test_ring_p_products_match_a_term_by_term_reference(d):
    rng = random.Random(8300 + d)
    one = Polynomial.constant(ring_p(d), 1)
    for _ in range(60):
        p, q = random_ppoly(rng, d, terms=4), random_ppoly(rng, d, terms=3)
        assert p * q == reference_p_product(p, q)
        assert q * p == p * q
        # the cross terms of (p + q)(p - q) cancel; a zero factor gives zero
        assert (p + q) * (p - q) == reference_p_product(p, p) - reference_p_product(q, q)
        assert (p * (q - q)).terms == {} and (p * one) == p
        expected = one
        for exponent in range(4):
            assert p**exponent == expected
            expected = reference_p_product(expected, p)


def test_packed_p_fields_refuse_overflow():
    layout = p_layout(3)
    top = layout.field_max
    assert top == 2**31 - 1
    fitting = [
        PMonomial((top, 0, 0), ()),
        PMonomial((0, 0, 0), (((1, 2), top),)),
        PMonomial((0, 0, 1), (((1, 3), top // 2),)),  # interval length top - 1
    ]
    for mono in fitting:
        assert layout.unpack(layout.pack(mono)) == mono
    # a sum of two keys sets the guard of the field it overflows
    assert (layout.pack(fitting[0]) + layout.pack(PMonomial((0, 1, 0), ()))) & layout.guards
    assert not (layout.pack(fitting[2]) + layout.pack(PMonomial((0, 1, 0), ()))) & layout.guards
    over = [
        PMonomial((top, 1, 0), ()),  # x-degree top + 1
        PMonomial((0, 0, 0), (((1, 3), top // 2 + 1),)),  # interval length top + 1
        PMonomial((1 << 40, 0, 0), ()),
    ]
    # lex has no degree fields: only an exponent above top overflows there
    for order, refused in ((CORRECTED, over), (LITERAL, over), (LEX, over[2:])):
        for mono in refused:
            with pytest.raises(BudgetExceededError, match=f"a packed field of at most {top}"):
                p_layout(3, order).pack(mono)
    assert p_layout(3, LEX).unpack(p_layout(3, LEX).pack(over[0])) == over[0]
    narrow = PLayout(2, CORRECTED, 8)
    assert narrow.unpack(narrow.pack(PMonomial((127, 0), ()))) == PMonomial((127, 0), ())
    message = r"x1\^128 overflows a packed field of at most 127"
    with pytest.raises(BudgetExceededError, match=message):
        narrow.pack(PMonomial((128, 0), ()))


def u12_power(exp, coeff=1):
    """coeff * u1_2^exp in ring P(2)."""
    return Polynomial.from_term(ring_p(2), PMonomial((0, 0), (((1, 2), exp),)), coeff)


def test_ordering_refuses_a_field_over_the_packed_width():
    # Printing sorts ring-P terms by `dill_key`, so it refuses a monomial
    # whose order field passes 2^31 - 1, as `verify-gb` does.
    top = 2**31 - 1
    assert format_poly(u12_power(top)) == f"u1_2^{top}"
    for exp in (top + 1, 2**40):
        message = f"u1_2\\^{exp} overflows a packed field of at most {top}"
        with pytest.raises(BudgetExceededError, match=message):
            format_poly(u12_power(exp))
        for variant in (CORRECTED, LITERAL):
            with pytest.raises(BudgetExceededError, match="overflows a packed field of at most"):
                DillOrder(variant).key(PMonomial((exp, 0), ()))


def test_repr_of_an_unorderable_polynomial_lists_its_terms_as_stored():
    # `str` sorts ring-P terms by the packed order, so it refuses this
    # polynomial; `repr` still shows it, terms in insertion order.
    p = u12_power(2**31, -2) + parse_poly("1/2*x1", "P", 2)
    assert repr(p) == "Polynomial({'u1_2^2147483648': '-2', 'x1': '1/2'}, d=2)"
    for show in (str, format_poly):
        with pytest.raises(BudgetExceededError, match="overflows a packed field"):
            show(p)
    fitting = u12_power(2**31 - 1, -2) + parse_poly("1/2*x1", "P", 2)
    assert repr(fitting) == "Polynomial('-2*u1_2^2147483647 + 1/2*x1', d=2)"
