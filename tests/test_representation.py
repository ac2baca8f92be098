"""Dense exponent tuples and packed ring-A keys against the sparse reference representation."""

import random

import pytest

from constalg import (
    CORRECTED,
    LITERAL,
    AMonomial,
    BudgetExceededError,
    PMonomial,
    build_generators,
    dill_key,
    format_monomial,
    u_pairs,
)
from constalg.poly import (
    FIELD_MAX,
    MAX_EXPONENT,
    field_shift,
    pack,
    pack_terms,
    u_position,
    unpack,
    unpack_terms,
)
from helpers import (
    random_instance,
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
        assert (mono.d, mono.xexp, mono.yexp) == (d, xexp, yexp)
        assert mono == sparse_alex_key(xexp, yexp)
        assert format_monomial(mono) == sparse_format(xexp, yexp)
        if monos:
            other = monos[-1]
            product = mono.mul(other)
            assert product.xexp == tuple(a + b for a, b in zip(xexp, other.xexp))
            assert product.yexp == tuple(a + b for a, b in zip(yexp, other.yexp))
            assert product.div(other) == mono
            assert other.divides(product)
            assert mono.divides(other) == all(
                a <= b for a, b in zip(xexp + yexp, other.xexp + other.yexp)
            )
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
    # Packed keys of ring A: the fields read back as the tuple, int order is
    # the tuple order (so the A-lex order), and + is the monomial product.
    rng = random.Random(6000 + d)
    monos = [AMonomial.one(d)]
    for _ in range(300):
        top = rng.choice((3, MAX_EXPONENT))
        monos.append(AMonomial(*(tuple(rng.randint(0, top) for _ in range(d)) for _ in "xy")))
    monos.append(AMonomial((FIELD_MAX,) * d, (FIELD_MAX,) * d))
    keys = [pack(mono) for mono in monos]
    for mono, key in zip(monos, keys):
        assert unpack(key, d) == mono and type(unpack(key, d)) is AMonomial
        assert [key >> field_shift(d, slot) & FIELD_MAX for slot in range(2 * d)] == list(mono)
    assert sorted(range(len(monos)), key=keys.__getitem__) == sorted(
        range(len(monos)), key=monos.__getitem__
    )
    assert sorted(keys) == [pack(mono) for mono in sorted(monos)]
    for a, b in zip(monos[1:100], monos[2:101]):
        if max(a) + max(b) <= FIELD_MAX:
            assert pack(a) + pack(b) == pack(a.mul(b))
    capped = {mono: 1 for mono in monos[:-1]}
    assert unpack_terms(pack_terms(capped), d) == capped


def test_pack_terms_refuses_exponents_above_the_cap():
    over = AMonomial((0, MAX_EXPONENT + 1), (MAX_EXPONENT, 0))
    with pytest.raises(BudgetExceededError, match=f"exponent {MAX_EXPONENT + 1} of x2 exceeds"):
        pack_terms({over: 1})
