"""Polynomial reduction, S-polynomials and Groebner-basis verification.

The main entry point is `verify_groebner`, which checks that the relations
of an instance form a reduced Groebner basis under the DILL order: the
computed leading monomials must match the expected pattern (u_ik*u_jl for
quadratic relations, xj^mj*u_ik for mixed ones), every S-polynomial of a
pair of relations must reduce to zero, and the basis must be reduced.
Pairs with coprime leads are discharged by Buchberger's first criterion
instead of a reduction; the others are pseudo-reduced over the integers
by `reduce_int` (fraction-free pseudo-division; Geddes, Czapor and
Labahn, Algorithms for Computer Algebra, 1992).  The result carries a
per-pair certificate that records what discharged each pair.

`reduce`, over Fraction, and `buchberger_complete`, a generic completion
that must add nothing when run on the relations, are the independent
cross-checks.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import compress
from math import comb, gcd

from .derivation import ProblemInstance
from .errors import BudgetExceededError
from .orders import CORRECTED, DillOrder
from .poly import PMonomial, Polynomial, format_monomial, int_terms, leading_term, p_dimension
from .presentation import Relation, build_relations, relation_count

# Most pairs `verify_groebner` may check.  d = 12 has 255,255 (a dense instance
# took 48 s in process on 2 CPUs); d = 13 has 500,500.
MAX_VERIFY_PAIRS = 300_000
# Most steps the integer reductions of one `verify_groebner` run may take.
# Dense instances with f_i of degree 1-3 take 28,580 steps at d = 10 and
# 91,098 at d = 12; the count grows linearly with the degrees of the f_i.
MAX_REDUCTION_STEPS = 500_000
# Largest pair queue `buchberger_complete` may hold.
MAX_PAIR_QUEUE = 100_000


class LeadTable:
    """Leading terms (lm, lc, terms) of a reduction basis, indexed by u-position.

    The basis is a list of term maps {monomial: coefficient}, Fraction for
    `reduce`, int for `reduce_int`.  Each lead is filed under the first
    nonzero u-position of its exponent tuple (leads without u-factors under
    None).  A lead can only divide monomials that are nonzero at that
    position, so `reducer` and `divided_by_other` test a monomial only
    against the leads filed under its nonzero u-positions.  The table is
    built for one order and must be used with that order.
    """

    def __init__(self, basis, order):
        basis = list(basis)
        if not basis:
            raise ValueError("reduction needs a nonempty basis")
        if not all(basis):
            raise ValueError("reduction basis must not contain zero")
        width = len(next(iter(basis[0])))
        self._u_positions = range(width - p_dimension(width))
        self.entries = []
        self._by_position: dict = {}
        for index, terms in enumerate(basis):
            lm = max(terms, key=order.key)
            self.entries.append((lm, terms[lm], terms))
            first = next(compress(self._u_positions, lm), None)
            self._by_position.setdefault(first, []).append((index, *self.entries[-1]))

    def reducer(self, mono: PMonomial):
        """(lm, lc, terms) of the first basis element whose lead divides mono, or None."""
        best = None
        best_index = len(self.entries)
        by_position = self._by_position
        for pos in (None, *compress(self._u_positions, mono)):
            for index, lm, lc, terms in by_position.get(pos, ()):
                if index >= best_index:
                    break
                if lm.divides(mono):
                    best, best_index = (lm, lc, terms), index
                    break
        return best

    def divided_by_other(self, mono: PMonomial, own: int) -> bool:
        """Whether the lead of a basis element other than entry `own` divides mono."""
        by_position = self._by_position
        for pos in (None, *compress(self._u_positions, mono)):
            for index, lm, _, _ in by_position.get(pos, ()):
                if index != own and lm.divides(mono):
                    return True
        return False


def reduce(p: Polynomial, basis, order) -> Polynomial:
    """Full normal form of p modulo the basis.

    `basis` is a list of polynomials or a `LeadTable` of their term maps
    built for `order`.  Deterministic: the order-maximal reducible monomial
    is rewritten first, always against the first basis element whose lead
    divides it.  No monomial of the result is divisible by any basis lead.
    """
    leads = basis if isinstance(basis, LeadTable) else LeadTable([g.terms for g in basis], order)
    key = order.key
    work = dict(p.terms)
    remainder: dict = {}
    while work:
        mono = max(work, key=key)
        coeff = work.pop(mono)
        hit = leads.reducer(mono)
        if hit is None:
            remainder[mono] = coeff
            continue
        lm, lc, g = hit
        quot = mono.div(lm)
        factor = coeff / lc
        for gm, gc in g.items():
            if gm is lm:
                continue
            target = gm.mul(quot)
            new = work.get(target, 0) - factor * gc
            if new:
                work[target] = new
            else:
                work.pop(target, None)
    return Polynomial._make(p.ring, remainder)


def reduce_int(work: dict, leads: LeadTable, order, steps: int) -> int:
    """Pseudo-reduce the int term map `work` in place; return steps plus the steps taken.

    `leads` holds int term maps.  The reducer is chosen as in `reduce`.
    With c the coefficient of the work's maximal monomial, a its reducer
    g's lead coefficient, k = gcd(c, a) signed like a and q the monomial
    quotient, the work becomes (a/k)*work - (c/k)*q*g: a nonzero integer
    multiple of `reduce`'s work, so it empties exactly when the normal form
    is zero.  A maximal monomial that no lead divides cannot cancel, since
    later steps add only smaller ones, so it stops the reduction and stays
    in the work.  A total above MAX_REDUCTION_STEPS raises BudgetExceededError.
    """
    key = order.key
    reducer = leads.reducer
    while work:
        mono = max(work, key=key)
        hit = reducer(mono)
        if hit is None:
            break
        steps += 1
        if steps > MAX_REDUCTION_STEPS:
            raise BudgetExceededError(
                f"verification needs more than {MAX_REDUCTION_STEPS} reduction steps"
            )
        lm, lead, g = hit
        coeff = work.pop(mono)
        common = gcd(coeff, lead)
        if lead < 0:
            common = -common
        quotient, multiplier = coeff // common, lead // common
        if multiplier != 1:
            for m in work:
                work[m] *= multiplier
        quot = mono.div(lm)
        for gm, gc in g.items():
            if gm is lm:
                continue
            target = gm.mul(quot)
            new = work.get(target, 0) - quotient * gc
            if new:
                work[target] = new
            else:
                work.pop(target, None)
    return steps


def _primitive(p: Polynomial) -> dict:
    """p as an int term map whose coefficients have gcd 1: a nonzero rational multiple of p."""
    terms, _ = int_terms(p)
    content = gcd(*terms.values())
    return {m: c // content for m, c in terms.items()}


def s_polynomial(g: Polynomial, h: Polynomial, order) -> Polynomial:
    """The cancellation combination lcm/lead(g)*g/lc(g) - lcm/lead(h)*h/lc(h).

    Built in one pass over the two term maps; the lead terms, which
    cancel, are skipped.
    """
    if g.is_zero() or h.is_zero():
        raise ValueError("s_polynomial needs nonzero inputs")
    g._check_compatible(h)
    lmg, lcg = leading_term(g, order)
    lmh, lch = leading_term(h, order)
    lcm = lmg.lcm(lmh)
    qg, qh = lcm.div(lmg), lcm.div(lmh)
    terms = {m.mul(qg): c / lcg for m, c in g.terms.items() if m is not lmg}
    neg = -lch
    for m, c in h.terms.items():
        if m is lmh:
            continue
        target = m.mul(qh)
        new = c / neg
        if target in terms:
            new += terms[target]
        if new:
            terms[target] = new
        else:
            del terms[target]
    return Polynomial._make(g.ring, terms)


def _monic(p: Polynomial, order) -> Polynomial:
    _, lc = leading_term(p, order)
    return p.scale(Fraction(1) / lc)


# -- expected leading monomials ----------------------------------------------


def expected_lead(inst: ProblemInstance, family: str, indices) -> PMonomial:
    """Claimed lead: u_ik*u_jl for R(i,j,k,l), xj^mj*u_ik for S(i,j,k)."""
    d = inst.d
    if family == "R":
        i, j, k, l = indices
        return PMonomial((0,) * d, (((i, k), 1), ((j, l), 1)))
    i, j, k = indices
    xexp = tuple(inst.m[j - 1] if t == j - 1 else 0 for t in range(d))
    return PMonomial(xexp, (((i, k), 1),))


class LeadConformanceEntry(namedtuple("LeadConformanceEntry", "label expected computed")):
    """A relation's computed lead next to the lead the pattern expects."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.computed == self.expected

    def to_json_dict(self) -> dict:
        return {
            "relation": self.label,
            "expected": format_monomial(self.expected),
            "computed": format_monomial(self.computed),
            "ok": self.ok,
        }


def verify_lead_conformance(
    inst: ProblemInstance, relations: list[Relation], variant: str = CORRECTED
) -> list[LeadConformanceEntry]:
    """Compare each relation's computed lead with the expected pattern, in list order."""
    order = DillOrder(variant)
    return [
        LeadConformanceEntry(
            rel.label,
            expected_lead(inst, rel.family, rel.indices),
            leading_term(rel.poly, order)[0],
        )
        for rel in relations
    ]


# -- pairwise verification ----------------------------------------------------


class PairOutcome(namedtuple("PairOutcome", "left right discharged_by")):
    """What became of the S-polynomial of one pair of basis elements.

    `discharged_by` is "coprime" when the leads are coprime: then S(left,
    right) reduces to zero by Buchberger's first criterion (S(g, h)
    reduces to zero modulo {g, h}) and no reduction runs.  It is
    "reduction" when the reduction against the basis gave zero, and None
    when its remainder was nonzero.  The two flags follow from it.
    """

    __slots__ = ()

    @property
    def coprime_leads(self) -> bool:
        return self.discharged_by == "coprime"

    @property
    def normal_form_zero(self) -> bool:
        return self.discharged_by is not None

    def to_json_dict(self) -> dict:
        return {
            "left": self.left,
            "right": self.right,
            "coprime_leads": self.coprime_leads,
            "normal_form_zero": self.normal_form_zero,
            "discharged_by": self.discharged_by,
        }


class GroebnerCertificate(
    namedtuple("GroebnerCertificate", "instance variant conformance pairs reduced")
):
    """The lead-conformance entries, the pair outcomes and reducedness of one check.

    The verdict holds when every lead conforms, every pair reduces to zero
    and the basis is reduced.
    """

    __slots__ = ()

    @property
    def conformance_ok(self) -> bool:
        return all(e.ok for e in self.conformance)

    @property
    def verdict(self) -> bool:
        return self.first_failure() is None

    def first_failure(self) -> str | None:
        """The first reason the verdict is false, or None.

        A failing pair is always one whose leads are not coprime, because
        coprime pairs are discharged by the criterion.
        """
        for bad in self.conformance:
            if not bad.ok:
                return (
                    f"lead of {bad.label} is {format_monomial(bad.computed)}, "
                    f"expected {format_monomial(bad.expected)}"
                )
        for pair in self.pairs:
            if not pair.normal_form_zero:
                return f"s-polynomial of ({pair.left}, {pair.right}) does not reduce to zero"
        if not self.reduced:
            return "basis is not reduced"
        return None

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance.to_json_dict(),
            "variant": self.variant,
            "lead_conformance": {
                "ok": self.conformance_ok,
                "entries": [e.to_json_dict() for e in self.conformance],
            },
            "pairs": [p.to_json_dict() for p in self.pairs],
            "reduced": self.reduced,
            "verdict": self.verdict,
        }


def verify_reduced(basis, order) -> bool:
    """No monomial of one element may be divisible by another element's lead.

    `basis` is a list of polynomials or a `LeadTable` built for `order`.
    Divisibility reads only monomials, so coefficients are irrelevant to
    the verdict.
    """
    if isinstance(basis, LeadTable):
        leads = basis
    elif not basis:
        return True
    else:
        leads = LeadTable([g.terms for g in basis], order)
    return not any(
        leads.divided_by_other(mono, own)
        for own, (_, _, terms) in enumerate(leads.entries)
        for mono in terms
    )


def verify_groebner(
    inst: ProblemInstance,
    variant: str = CORRECTED,
    relations: list[Relation] | None = None,
) -> GroebnerCertificate:
    """Check that the relations R and S form a reduced Groebner basis.

    A lead that does not conform aborts the pair phase; the verdict is
    then false.  Pairs with coprime leads are discharged by Buchberger's
    first criterion; every other S-polynomial is pseudo-reduced by
    `reduce_int` against the relations scaled to primitive int term maps.
    More than MAX_VERIFY_PAIRS pairs raise BudgetExceededError before the
    relations are built, more than MAX_REDUCTION_STEPS reduction steps
    when they are taken.
    """
    count = relation_count(inst.d) if relations is None else len(relations)
    if comb(count, 2) > MAX_VERIFY_PAIRS:
        raise BudgetExceededError(f"{count} relations give more than {MAX_VERIFY_PAIRS} pairs")
    if relations is None:
        relations = build_relations(inst)
    order = DillOrder(variant)
    conformance = verify_lead_conformance(inst, relations, variant)
    pairs: list[PairOutcome] = []
    if not relations:
        return GroebnerCertificate(inst, variant, conformance, pairs, True)
    leads = LeadTable([_primitive(rel.poly) for rel in relations], order)
    if all(e.ok for e in conformance):
        steps = 0
        rows = list(zip(relations, leads.entries))
        for i, (left, (lmg, _, _)) in enumerate(rows):
            for right, (lmh, _, _) in rows[i + 1:]:
                spoly = s_polynomial(left.poly, right.poly, order)
                if lmg.lcm(lmh) == lmg.mul(lmh):
                    discharged_by = "coprime"
                else:
                    work, _ = int_terms(spoly)
                    steps = reduce_int(work, leads, order, steps)
                    discharged_by = None if work else "reduction"
                pairs.append(PairOutcome(left.label, right.label, discharged_by))
    return GroebnerCertificate(inst, variant, conformance, pairs, verify_reduced(leads, order))


# -- generic completion --------------------------------------------------------


def buchberger_complete(basis, order) -> list[Polynomial]:
    """Complete a generating set to a Groebner basis under the given order.

    Standard completion with the normal selection strategy (pair of
    minimal lcm under the order; ties broken by index), the coprime-lead
    criterion, and full reduction of each S-polynomial.  The result is
    monic-normalized.  Zero inputs are dropped; a pair queue larger than
    MAX_PAIR_QUEUE raises BudgetExceededError instead of silently churning.
    """
    basis = list(basis)
    if not basis:
        raise ValueError("completion needs a nonempty input set")
    work = [_monic(g, order) for g in basis if not g.is_zero()]
    leads = [leading_term(g, order)[0] for g in work]
    queue = {(i, j) for i in range(len(work)) for j in range(i + 1, len(work))}
    while queue:
        if len(queue) > MAX_PAIR_QUEUE:
            raise BudgetExceededError(
                f"pair queue grew past the budget of {MAX_PAIR_QUEUE}"
            )
        i, j = min(queue, key=lambda ij: (order.key(leads[ij[0]].lcm(leads[ij[1]])), ij))
        queue.remove((i, j))
        lcm = leads[i].lcm(leads[j])
        if lcm == leads[i].mul(leads[j]):
            continue
        spoly = s_polynomial(work[i], work[j], order)
        if spoly.is_zero():
            continue
        normal_form = reduce(spoly, work, order)
        if normal_form.is_zero():
            continue
        work.append(_monic(normal_form, order))
        leads.append(leading_term(normal_form, order)[0])
        new = len(work) - 1
        queue.update((t, new) for t in range(new))
    return work
