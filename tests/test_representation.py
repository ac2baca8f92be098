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
    parse_poly,
    pi_substitute,
    ring_a,
    u_pairs,
)
from constalg.poly import (
    FIELD_MAX,
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
            assert ka == sparse_dill_key(a, variant)
            assert (ka < kb) == (sparse_dill_key(a, variant) < sparse_dill_key(b, variant))
        # the corrected key shares the monomial's tuple instead of copying it
        assert dill_key(ma)[3] is ma


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


# -- packed ring-P keys -----------------------------------------------------------


@pytest.mark.parametrize("d", range(2, 9))
def test_packed_p_int_order_is_the_corrected_dill_order(d):
    rng = random.Random(8000 + d)
    layout = p_layout(d)
    monos = [PMonomial.one(d)]
    for _ in range(300):
        top = rng.choice((3, MAX_EXPONENT))
        monos.append(random_pmonomial(rng, d, max_x=top, max_u=top, max_factors=3))
    width = len(monos[0])
    for mono in monos:
        key = layout.pack(mono)
        assert layout.unpack(key) == mono
        u_degree, length, x_degree, _ = dill_key(mono)
        assert key >> 32 * width == (u_degree << 64) + (length << 32) + x_degree
    assert sorted(monos, key=layout.pack) == sorted(monos, key=dill_key)
    # The literal key spells out every factor, so only small exponents go there.
    small = [mono for mono in monos if max(mono) <= 3]
    for order in (DillOrder(LITERAL), LexOrder()):
        packed_key = order.packed_key(d)
        assert sorted(small, key=lambda m: packed_key(layout.pack(m))) == sorted(
            small, key=order.key
        )
    assert DillOrder(CORRECTED).packed_key(d) is None


@pytest.mark.parametrize("d", range(2, 8))
def test_packed_p_operations_match_pmonomial(d):
    rng = random.Random(8100 + d)
    layout = p_layout(d)
    pack, guards, support = layout.pack, layout.guards, layout.support
    for _ in range(300):
        a, b, c = (random_pmonomial(rng, d) for _ in "abc")
        ka, kb, kc = pack(a), pack(b), pack(c)
        multiple = a.mul(c)
        assert ka + kc == pack(multiple)
        assert pack(multiple) - ka == kc == pack(multiple.div(a))
        assert not (pack(multiple) - ka) & guards
        assert (not (ka - kb) & guards) == b.divides(a)
        assert (not (kb - ka) & guards) == a.divides(b)
        lcm = pack(a.lcm(b))
        assert lcm - ka == pack(a.lcm(b).div(a)) and lcm - kb == pack(a.lcm(b).div(b))
        assert not (lcm - ka) & guards and not (lcm - kb) & guards
        assert (not support(ka) & support(kb)) == (a.lcm(b) == a.mul(b))


def test_packed_p_fields_refuse_overflow():
    layout = p_layout(3)
    top = layout.field_max
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
    for mono in over:
        with pytest.raises(BudgetExceededError, match=f"overflows a packed field of at most {top}"):
            layout.pack(mono)
    narrow = PLayout(2, 4)
    assert narrow.unpack(narrow.pack(PMonomial((7, 0), ()))) == PMonomial((7, 0), ())
    with pytest.raises(BudgetExceededError, match=r"x1\^8 overflows a packed field of at most 7"):
        narrow.pack(PMonomial((8, 0), ()))
