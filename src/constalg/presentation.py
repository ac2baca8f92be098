"""Generators of the algebra of constants and their defining relations.

The generators are the 2x2 determinants u_jk = f_j(x_j)*y_k - f_k(x_k)*y_j,
one for each pair j < k.  The substitution homomorphism pi maps ring P onto
the algebra of constants by x_i -> x_i and u_jk -> that determinant.  Two
relation families vanish under pi:

    r(i,j,k,l) = u_ij*u_kl - u_ik*u_jl + u_il*u_jk        (i < j < k < l)
    s(i,j,k)   = f_i*u_jk - f_j*u_ik + f_k*u_ij           (i < j < k)

with the f factors of s fully expanded over ring P, since reduction needs
every term.

The generator table works over the integers: it stores L*u_jk with int
coefficients, L = the lcm of the f-coefficient denominators, keyed by
packed ring-A monomials (see `poly`), and caches their powers, so every
monomial product is one int addition.  `scaled_image` returns L^e * pi(w)
for a word w of u-degree e, which `rewrite_constant_int` peels with;
`u_power`, `pi_image_of_monomial` and `pi_substitute` check that the
image fits the packed fields, divide by the power of L and return the true
polynomials over Fraction, keyed by AMonomials.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import comb

from .derivation import ProblemInstance, check_field_room
from .errors import BudgetExceededError, RingMismatchError
from .poly import (
    PMonomial,
    Polynomial,
    field_shift,
    mul_terms,
    pack,
    u_pairs,
    u_var,
    univariate,
    unpack_terms,
)

# Most relations `build_relations` may build: C(24,4) + C(24,3), so d <= 24.
MAX_RELATIONS = 12_650


class GeneratorTable:
    """The pair determinants u_jk of one instance, kept as L*u_jk with int coefficients.

    `scaled` maps (j, k) to the term map {packed monomial: int} of L*u_jk,
    and `_power_cache` maps (j, k, e) to that of (L*u_jk)^e.
    """

    def __init__(self, instance: ProblemInstance, scaled: dict):
        self.instance = instance
        self.scaled = scaled
        self._power_cache: dict = {}

    def scaled_power(self, j: int, k: int, exponent: int) -> dict:
        """Term map of (L*u_jk)^exponent, by squaring.

        Caches the exponents exponent, exponent // 2, ..., 1: O(log e) entries.
        """
        key = (j, k, exponent)
        power = self._power_cache.get(key)
        if power is None:
            if exponent <= 1:
                power = self.scaled[(j, k)] if exponent else {0: 1}
            else:
                half = self.scaled_power(j, k, exponent // 2)
                power = mul_terms(half, half)
                if exponent & 1:
                    power = mul_terms(power, self.scaled[(j, k)])
            self._power_cache[key] = power
        return power

    def u_power(self, j: int, k: int, exponent: int) -> Polynomial:
        """u_jk^exponent, read off the cached power of L*u_jk."""
        check_field_room(self.instance, 2 * exponent)
        scale = self.instance.integer_f[0] ** exponent
        return _unscale(self.instance.ring_a, self.scaled_power(j, k, exponent), scale)


def _unscale(ring, terms: dict, scale: int) -> Polynomial:
    """The polynomial terms/scale over Fraction, `terms` keyed by packed monomials."""
    unscaled = {m: Fraction(c, scale) for m, c in terms.items()}
    return Polynomial._make(ring, unpack_terms(unscaled, ring.d))


def build_generators(inst: ProblemInstance) -> GeneratorTable:
    """All L*u_jk = (L*f_j)(x_j)*y_k - (L*f_k)(x_k)*y_j, keyed by (j, k) with j < k."""
    _, rows = inst.integer_f
    d = inst.d
    scaled = {}
    for j, k in combinations(range(1, d + 1), 2):
        terms = {}
        for i, other, sign in ((j, k, 1), (k, j, -1)):
            y_other = 1 << field_shift(d, 2 * other - 1)
            x_shift = field_shift(d, 2 * i - 2)
            for power, c in enumerate(rows[i - 1]):
                if c:
                    terms[y_other + (power << x_shift)] = sign * c
        scaled[(j, k)] = terms
    return GeneratorTable(inst, scaled)


def _check_image_room(inst: ProblemInstance, mono: PMonomial) -> None:
    """`check_field_room` for pi(mono), whose A-lex lead weighs sum_i a_i/m_i + 2*(u-degree)."""
    npairs = len(u_pairs(inst.d))
    weight = sum(map(Fraction, mono[npairs:], inst.m)) + 2 * sum(mono[:npairs])
    check_field_room(inst, weight)


def pi_substitute(table: GeneratorTable, p: Polynomial) -> Polynomial:
    """Ring homomorphism ring P -> ring A: x_i -> x_i, u_jk -> table.u_power(j, k, 1)."""
    inst = table.instance
    if p.ring != inst.ring_p:
        raise RingMismatchError(f"polynomial over {p.ring} does not match d={inst.d}")
    terms: dict = {}
    for mono, coeff in p.terms.items():
        _check_image_room(inst, mono)
        image, scale = scaled_image(table, mono)
        factor = coeff / scale
        for m, c in image.items():
            new = factor * c + terms.get(m, 0)  # Fraction first: no reverse-operator path
            if new:
                terms[m] = new
            else:
                del terms[m]
    return Polynomial._make(inst.ring_a, unpack_terms(terms, inst.d))


def scaled_image(table: GeneratorTable, mono: PMonomial) -> tuple[dict, int]:
    """(terms, L^e): the int term map of L^e * pi(mono), e the u-degree of mono.

    The keys are packed; the caller has checked that pi(mono) fits the
    fields (`derivation.check_field_room`).
    """
    d = table.instance.d
    pairs = u_pairs(d)
    exps = [0] * (2 * d)
    exps[0::2] = mono[len(pairs):]
    terms = {pack(exps): 1}
    for (j, k), e in zip(pairs, mono):
        if e:
            terms = mul_terms(terms, table.scaled_power(j, k, e))
    return terms, table.instance.integer_f[0] ** sum(mono[:len(pairs)])


def pi_image_of_monomial(table: GeneratorTable, mono: PMonomial) -> Polynomial:
    """pi(mono) over Fraction."""
    _check_image_room(table.instance, mono)
    return _unscale(table.instance.ring_a, *scaled_image(table, mono))


def quadratic_relation(inst: ProblemInstance, i: int, j: int, k: int, l: int) -> Polynomial:
    """The three-term quadratic identity among pair determinants."""
    if not (1 <= i < j < k < l <= inst.d):
        raise ValueError(f"indices must satisfy 1 <= {i} < {j} < {k} < {l} <= {inst.d}")
    ring = inst.ring_p
    return (
        u_var(ring, i, j) * u_var(ring, k, l)
        - u_var(ring, i, k) * u_var(ring, j, l)
        + u_var(ring, i, l) * u_var(ring, j, k)
    )


def mixed_relation(inst: ProblemInstance, i: int, j: int, k: int) -> Polynomial:
    """The identity f_i*u_jk - f_j*u_ik + f_k*u_ij, f factors expanded."""
    if not (1 <= i < j < k <= inst.d):
        raise ValueError(f"indices must satisfy 1 <= {i} < {j} < {k} <= {inst.d}")
    ring = inst.ring_p
    fi, fj, fk = (univariate(ring, t, enumerate(inst.f[t - 1])) for t in (i, j, k))
    return fi * u_var(ring, j, k) - fj * u_var(ring, i, k) + fk * u_var(ring, i, j)


class Relation(namedtuple("Relation", "family indices poly")):
    """One relation: family "R" or "S", its index tuple and its polynomial."""

    __slots__ = ()

    @property
    def label(self) -> str:
        return f"{self.family}({','.join(map(str, self.indices))})"


def relation_count(d: int) -> int:
    """Number of relations r(i,j,k,l) and s(i,j,k) at dimension d."""
    return comb(d, 4) + comb(d, 3)


def build_relations(inst: ProblemInstance) -> list[Relation]:
    """All r(i,j,k,l), then all s(i,j,k), each family in lexicographic index order.

    Every polynomial maps to zero under pi.  More than MAX_RELATIONS raise
    BudgetExceededError.
    """
    count = relation_count(inst.d)
    if count > MAX_RELATIONS:
        raise BudgetExceededError(f"d={inst.d} has {count} relations, more than {MAX_RELATIONS}")
    indices = range(1, inst.d + 1)
    return [
        *(Relation("R", idx, quadratic_relation(inst, *idx)) for idx in combinations(indices, 4)),
        *(Relation("S", idx, mixed_relation(inst, *idx)) for idx in combinations(indices, 3)),
    ]
