"""Generators of the algebra of constants and their defining relations.

The generators are the 2x2 determinants u_jk = f_j(x_j)*y_k - f_k(x_k)*y_j,
one for each pair j < k.  The substitution homomorphism pi maps ring P onto
the algebra of constants by x_i -> x_i and u_jk -> that determinant.  Two
relation families vanish under pi:

    r(i,j,k,l) = u_ij*u_kl - u_ik*u_jl + u_il*u_jk        (i < j < k < l)
    s(i,j,k)   = f_i*u_jk - f_j*u_ik + f_k*u_ij           (i < j < k)

with the f factors of s fully expanded over ring P, since reduction needs
every term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .derivation import ProblemInstance
from .errors import BudgetExceededError, RingMismatchError
from .poly import AMonomial, PMonomial, Polynomial, u_pairs, u_var, univariate, y_var

# Most relations `build_relations` may build: C(24,4) + C(24,3), so d <= 24.
MAX_RELATIONS = 12_650


class GeneratorTable:
    """The pair determinants u_jk of one instance, as ring-A polynomials."""

    def __init__(self, instance: ProblemInstance, u: dict):
        self.instance = instance
        self.u = u
        self._power_cache: dict = {}

    def u_power(self, j: int, k: int, exponent: int) -> Polynomial:
        """Memoized power u_jk^exponent of the expanded generator image.

        Multiplies up from the highest cached power below, caching each step.
        """
        cache = self._power_cache
        e = exponent
        while e and (j, k, e) not in cache:
            e -= 1
        result = cache.get((j, k, e))
        if result is None:
            result = cache[(j, k, 0)] = Polynomial.constant(self.instance.ring_a, 1)
        while e < exponent:
            e += 1
            result = cache[(j, k, e)] = result * self.u[(j, k)]
        return result


def build_generators(inst: ProblemInstance) -> GeneratorTable:
    """All u_jk = f_j(x_j)*y_k - f_k(x_k)*y_j, keyed by (j, k) with j < k."""
    ring = inst.ring_a
    table = {}
    for j, k in combinations(range(1, inst.d + 1), 2):
        table[(j, k)] = inst.f_polynomial(j) * y_var(ring, k) - inst.f_polynomial(
            k
        ) * y_var(ring, j)
    return GeneratorTable(inst, table)


def pi_substitute(table: GeneratorTable, p: Polynomial) -> Polynomial:
    """Ring homomorphism ring P -> ring A: x_i -> x_i, u_jk -> table.u[(j,k)]."""
    inst = table.instance
    if p.ring != inst.ring_p:
        raise RingMismatchError(f"polynomial over {p.ring} does not match d={inst.d}")
    result = Polynomial.zero(inst.ring_a)
    for mono, coeff in p.terms.items():
        result = result + pi_image_of_monomial(table, mono).scale(coeff)
    return result


def pi_image_of_monomial(table: GeneratorTable, mono: PMonomial) -> Polynomial:
    inst = table.instance
    pairs = u_pairs(inst.d)
    exps = [0] * (2 * inst.d)
    exps[0::2] = mono[len(pairs):]
    image = Polynomial.from_term(inst.ring_a, AMonomial._of(exps), 1)
    for (j, k), e in zip(pairs, mono):
        if e:
            image = image * table.u_power(j, k, e)
    return image


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
