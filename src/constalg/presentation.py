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
coefficients, L = the lcm of the f-coefficient denominators, and caches
their powers.  `scaled_image` returns L^e * pi(w) for a word w of u-degree
e, which `rewrite_constant` peels with; `u_power` and
`pi_image_of_monomial` divide by the power of L and return the true
polynomials over Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb

from .derivation import ProblemInstance
from .errors import BudgetExceededError, RingMismatchError
from .poly import AMonomial, PMonomial, Polynomial, mul_terms, u_pairs, u_var, univariate

# Most relations `build_relations` may build: C(24,4) + C(24,3), so d <= 24.
MAX_RELATIONS = 12_650


class GeneratorTable:
    """The pair determinants u_jk of one instance, kept as L*u_jk with int coefficients.

    `scaled` maps (j, k) to the term map of L*u_jk, and `_power_cache`
    maps (j, k, e) to that of (L*u_jk)^e.
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
                power = self.scaled[(j, k)] if exponent else {AMonomial.one(self.instance.d): 1}
            else:
                half = self.scaled_power(j, k, exponent // 2)
                power = mul_terms(half, half)
                if exponent & 1:
                    power = mul_terms(power, self.scaled[(j, k)])
            self._power_cache[key] = power
        return power

    def u_power(self, j: int, k: int, exponent: int) -> Polynomial:
        """u_jk^exponent, read off the cached power of L*u_jk."""
        scale = self.instance.integer_f[0] ** exponent
        return _unscale(self.instance.ring_a, self.scaled_power(j, k, exponent), scale)


def _unscale(ring, terms: dict, scale: int) -> Polynomial:
    """The polynomial terms/scale over Fraction."""
    return Polynomial._make(ring, {m: Fraction(c, scale) for m, c in terms.items()})


def build_generators(inst: ProblemInstance) -> GeneratorTable:
    """All L*u_jk = (L*f_j)(x_j)*y_k - (L*f_k)(x_k)*y_j, keyed by (j, k) with j < k."""
    _, rows = inst.integer_f
    scaled = {}
    for j, k in combinations(range(1, inst.d + 1), 2):
        terms = {}
        for i, other, sign in ((j, k, 1), (k, j, -1)):
            exps = [0] * (2 * inst.d)
            exps[2 * other - 1] = 1
            for power, c in enumerate(rows[i - 1]):
                if c:
                    exps[2 * i - 2] = power
                    terms[AMonomial._of(exps)] = sign * c
        scaled[(j, k)] = terms
    return GeneratorTable(inst, scaled)


def pi_substitute(table: GeneratorTable, p: Polynomial) -> Polynomial:
    """Ring homomorphism ring P -> ring A: x_i -> x_i, u_jk -> table.u_power(j, k, 1)."""
    inst = table.instance
    if p.ring != inst.ring_p:
        raise RingMismatchError(f"polynomial over {p.ring} does not match d={inst.d}")
    terms: dict = {}
    for mono, coeff in p.terms.items():
        image, scale = scaled_image(table, mono)
        factor = coeff / scale
        for m, c in image.items():
            new = factor * c + terms.get(m, 0)  # Fraction first: no reverse-operator path
            if new:
                terms[m] = new
            else:
                del terms[m]
    return Polynomial._make(inst.ring_a, terms)


def scaled_image(table: GeneratorTable, mono: PMonomial) -> tuple[dict, int]:
    """(terms, L^e): the int term map of L^e * pi(mono), e the u-degree of mono."""
    d = table.instance.d
    pairs = u_pairs(d)
    exps = [0] * (2 * d)
    exps[0::2] = mono[len(pairs):]
    terms = {AMonomial._of(exps): 1}
    for (j, k), e in zip(pairs, mono):
        if e:
            terms = mul_terms(terms, table.scaled_power(j, k, e))
    return terms, table.instance.integer_f[0] ** sum(mono[:len(pairs)])


def pi_image_of_monomial(table: GeneratorTable, mono: PMonomial) -> Polynomial:
    """pi(mono) over Fraction."""
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


@dataclass
class RelationSet:
    """The full relation families, in lexicographic index order.

    quadratic holds (indices, r(i,j,k,l)) for all i<j<k<l; mixed holds
    (indices, s(i,j,k)) for all i<j<k.  Every polynomial maps to zero
    under pi.
    """

    quadratic: list = field(default_factory=list)
    mixed: list = field(default_factory=list)

    def labeled(self) -> list[tuple[str, Polynomial]]:
        out = [(relation_label("R", idx), p) for idx, p in self.quadratic]
        out.extend((relation_label("S", idx), p) for idx, p in self.mixed)
        return out

    def polynomials(self) -> list[Polynomial]:
        return [p for _, p in self.labeled()]

    def __len__(self):
        return len(self.quadratic) + len(self.mixed)


def relation_label(family: str, indices) -> str:
    return f"{family}({','.join(str(i) for i in indices)})"


def relation_count(d: int) -> int:
    """Number of relations r(i,j,k,l) and s(i,j,k) at dimension d."""
    return comb(d, 4) + comb(d, 3)


def build_relations(inst: ProblemInstance) -> RelationSet:
    """All r(i,j,k,l) and s(i,j,k); more than MAX_RELATIONS raise BudgetExceededError."""
    count = relation_count(inst.d)
    if count > MAX_RELATIONS:
        raise BudgetExceededError(f"d={inst.d} has {count} relations, more than {MAX_RELATIONS}")
    relations = RelationSet()
    for idx in combinations(range(1, inst.d + 1), 4):
        relations.quadratic.append((idx, quadratic_relation(inst, *idx)))
    for idx in combinations(range(1, inst.d + 1), 3):
        relations.mixed.append((idx, mixed_relation(inst, *idx)))
    return relations
