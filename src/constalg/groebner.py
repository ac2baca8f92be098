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

The layer works over ring P alone.  `LeadTable` and `reduce_int` key
monomials by the packed ints of the order's layout (`order.layout(d)`, a
`poly.PLayout`), whose int order is the order, so a leading monomial is
a `max`, a product by a quotient one addition and a divisibility test
one subtraction and one AND (Bachmann and Schoenemann, ISSAC 1998;
Monagan and Pearce, CASC 2007).  `LeadTable` tries a lead only on the
monomials whose u-support holds the lead's.  `LeadTable(basis, order)`
alone packs a basis, each element a primitive int term map; `reduce`
packs its input too, runs `reduce_int` and divides once at the end.  `s_polynomial` (Buchberger 1965) takes
each input's lead and monic tail from the order handle's memo, built
once per polynomial, so a pair costs its lcm, two quotients and the
merge of two tail products.  The generic completion
`buchberger_complete`, which must add nothing when run on the relations,
is a cross-check by its own pair algorithm; it takes each element's lead
once, and its queue is a heap that keys each pair once.  The Fraction
references, which share no code with `LeadTable`, are
`tests/helpers.reference_reduce` and `reference_pair_outcomes`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from heapq import heappop, heappush
from math import comb, gcd

from .derivation import ProblemInstance
from .errors import BudgetExceededError, RingMismatchError
from .orders import CORRECTED, DillOrder
from .poly import (
    RING_P,
    PMonomial,
    Polynomial,
    Ring,
    format_monomial,
    int_terms,
    leading_term,
)
from .presentation import Relation, build_relations, relation_count

# Most pairs `verify_groebner` may check.  d = 12 has 255,255 (a dense instance
# took 18-24 s in process on 2 shared CPUs); d = 13 has 500,500.
MAX_VERIFY_PAIRS = 300_000
# Most steps the integer reductions of one `verify_groebner` run may take.
# Dense instances with f_i of degree 1-3 take 28,580 steps at d = 10 and
# 91,098 at d = 12; the count grows linearly with the degrees of the f_i.
MAX_REDUCTION_STEPS = 500_000
# Largest pair queue `buchberger_complete` may hold.
MAX_PAIR_QUEUE = 100_000


class LeadTable:
    """Leading terms (lm, lc, terms) of a reduction basis over ring P(d), with their u-supports.

    Each nonzero polynomial of `basis`, all over one ring P, becomes an int
    term map {packed monomial: coefficient} of gcd 1 under `layout` =
    `order.layout(d)`, whose int order is the order.  A lead divides only
    monomials whose u-support, the set of nonzero u-positions, holds its
    own, so `reducer` and `divided_by_other` test a monomial against those
    leads alone, in basis order; that list is built once for each support.
    """

    def __init__(self, basis, order):
        basis = list(basis)
        if not basis:
            raise ValueError("reduction needs a nonempty basis")
        ring = _ring_p(basis[0])
        for g in basis:
            basis[0]._check_compatible(g)
        if not all(basis):
            raise ValueError("reduction basis must not contain zero")
        self.layout = layout = order.layout(ring.d)
        self.entries = []
        self._supports = []  # [(the guard bits of the lead's u-support, entry)]
        for g in basis:
            terms, _ = int_terms(g)
            content = gcd(*terms.values())
            terms = {layout.pack(m): c // content for m, c in terms.items()}
            lm = max(terms)
            self.entries.append((lm, terms[lm], terms))
            self._supports.append(((lm + layout.fill) & layout.u_guards, self.entries[-1]))
        self._candidates: dict = {}

    def _candidates_of(self, mono: int) -> list:
        """The entries whose lead's u-support lies in mono's, in basis order."""
        positions = (mono + self.layout.fill) & self.layout.u_guards
        found = self._candidates.get(positions)
        if found is None:
            found = self._candidates[positions] = [
                entry for own, entry in self._supports if own & positions == own
            ]
        return found

    def reducer(self, mono: int):
        """(lm, lc, terms) of the first basis element whose lead divides mono, or None."""
        guards = self.layout.exponent_guards
        for entry in self._candidates_of(mono):
            if not (mono - entry[0]) & guards:
                return entry
        return None

    def divided_by_other(self, mono: int, own: int) -> bool:
        """Whether the lead of a basis element other than entry `own` divides mono."""
        guards, own = self.layout.exponent_guards, self.entries[own]
        return any(
            entry is not own and not (mono - entry[0]) & guards
            for entry in self._candidates_of(mono)
        )


def _ring_p(p: Polynomial) -> Ring:
    """p's ring, which must be a ring P: the Groebner layer works there alone."""
    if p.ring.flavor != RING_P:
        raise RingMismatchError(f"Groebner bases are computed over ring P, not {p.ring}")
    return p.ring


def reduce(p: Polynomial, basis, order) -> Polynomial:
    """Full normal form of p modulo the basis.

    `basis` is a list of polynomials over p's ring, which must be a ring P.
    Deterministic: the order-maximal reducible monomial is rewritten first,
    always against the first basis element whose lead divides it.  No
    monomial of the result is divisible by any basis lead.  `reduce_int`
    computes it up to a positive factor.
    """
    ring = _ring_p(p)
    for g in basis:
        p._check_compatible(g)
    leads = LeadTable(basis, order)
    work, den = int_terms(p)
    work = leads.layout.pack_terms(work)
    _, scale = reduce_int(work, leads, 0)
    unpack = leads.layout.unpack
    return Polynomial._make(ring, {unpack(m): Fraction(c, den * scale) for m, c in work.items()})


def reduce_int(work: dict, leads: LeadTable, steps: int) -> tuple[int, int]:
    """Pseudo-reduce the int term map `work` in place; return (steps + steps taken, scale).

    `work` and `leads` hold int term maps on packed monomials of one
    layout.  The work's maximal monomial, its `max`, goes first: to a
    remainder when no lead divides it, else, with c its coefficient, a
    the lead coefficient of the first basis element g whose lead divides
    it, k = gcd(c, a) signed like a and q the monomial quotient, the work
    becomes (a/k)*work - (c/k)*q*g and the remainder (a/k)*remainder.  The
    remainder then goes back into the work, which holds scale*NF: NF is
    the normal form over Fraction, scale the product of the factors
    a/k > 0.  A total above MAX_REDUCTION_STEPS, or a product that
    overflows a packed field, raises BudgetExceededError.
    """
    layout, reducer = leads.layout, leads.reducer
    guards = layout.guards
    remainder: dict = {}
    scale = 1
    while work:
        mono = max(work)
        coeff = work.pop(mono)
        hit = reducer(mono)
        if hit is None:
            remainder[mono] = coeff
            continue
        steps += 1
        if steps > MAX_REDUCTION_STEPS:
            raise BudgetExceededError(
                f"verification needs more than {MAX_REDUCTION_STEPS} reduction steps"
            )
        lm, lead, g = hit
        common = gcd(coeff, lead)
        if lead < 0:
            common = -common
        quotient, multiplier = coeff // common, lead // common
        if multiplier != 1:
            scale *= multiplier
            for terms in (work, remainder):
                for m in terms:
                    terms[m] *= multiplier
        quot = mono - lm
        for gm, gc in g.items():
            if gm is lm:
                continue
            target = gm + quot
            if target & guards:
                raise BudgetExceededError(
                    f"a reduction product overflows a packed field of at most {layout.field_max}"
                )
            new = work.get(target, 0) - quotient * gc
            if new:
                work[target] = new
            else:
                work.pop(target, None)
    work.update(remainder)
    return steps, scale


def s_polynomial(g: Polynomial, h: Polynomial, order) -> Polynomial:
    """The cancellation combination lcm/lead(g)*g/lc(g) - lcm/lead(h)*h/lc(h).

    Each input's lead, monic tail and negated monic tail are built once
    per order handle, in its `monic` memo.  A pair then takes the lcm, the
    two quotients and the products of the tails by them; the leads, which
    cancel, are not in the tails, and a coefficient is added only where
    two products meet.
    """
    _ring_p(g)
    if g.is_zero() or h.is_zero():
        raise ValueError("s_polynomial needs nonzero inputs")
    g._check_compatible(h)
    _, lmg, tail, _ = _monic_parts(g, order)
    _, lmh, _, neg_tail = _monic_parts(h, order)
    lcm = lmg.lcm(lmh)
    qg, qh = lcm.div(lmg), lcm.div(lmh)
    terms = {m.mul(qg): c for m, c in tail}
    for m, c in neg_tail:
        target = m.mul(qh)
        if target in terms:
            c += terms[target]
            if not c:
                del terms[target]
                continue
        terms[target] = c
    return Polynomial._make(g.ring, terms)


def _monic_parts(p: Polynomial, order) -> tuple:
    """order.monic[id(p)] = (p, lead, monic tail, negated monic tail) for nonzero p, made once.

    The tails are lists of (monomial, coefficient / lc) without the lead.
    The entry holds p, so no other polynomial can take its id while the
    handle lives.
    """
    entry = order.monic.get(id(p))
    if entry is None:
        lead, lc = leading_term(p, order)
        tail = [(m, c / lc) for m, c in p.terms.items() if m is not lead]
        entry = order.monic[id(p)] = (p, lead, tail, [(m, -c) for m, c in tail])
    return entry


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

    `basis` is a list of polynomials over one ring P or a `LeadTable` built
    for `order`.  A list becomes a `LeadTable`, whose int term maps are
    multiples of its polynomials; divisibility reads only monomials, so
    that keeps its verdict.
    """
    if not basis:
        return True
    leads = basis if isinstance(basis, LeadTable) else LeadTable(basis, order)
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
    then false.  Pairs with coprime leads, whose supports are disjoint, are
    discharged by Buchberger's first criterion; every other S-polynomial
    is packed and pseudo-reduced by `reduce_int` against the relations
    scaled to primitive packed int term maps.  More than MAX_VERIFY_PAIRS
    pairs raise BudgetExceededError before the relations are built, more
    than MAX_REDUCTION_STEPS reduction steps when they are taken, and so
    does a monomial that overflows a packed field.
    """
    count = relation_count(inst.d) if relations is None else len(relations)
    if comb(count, 2) > MAX_VERIFY_PAIRS:
        raise BudgetExceededError(f"{count} relations give more than {MAX_VERIFY_PAIRS} pairs")
    if relations is None:
        relations = build_relations(inst)
    for rel in relations:
        if rel.poly.ring != inst.ring_p:
            raise RingMismatchError(
                f"relation {rel.label} lies in {rel.poly.ring}, not in {inst.ring_p}"
            )
    order = DillOrder(variant)
    conformance = verify_lead_conformance(inst, relations, variant)
    pairs: list[PairOutcome] = []
    if not relations:
        return GroebnerCertificate(inst, variant, conformance, pairs, True)
    leads = LeadTable([rel.poly for rel in relations], order)
    if all(e.ok for e in conformance):
        steps = 0
        pack_terms, support = leads.layout.pack_terms, leads.layout.support
        rows = [(rel, support(lm)) for rel, (lm, _, _) in zip(relations, leads.entries)]
        for i, (left, left_support) in enumerate(rows):
            for right, right_support in rows[i + 1:]:
                spoly = s_polynomial(left.poly, right.poly, order)
                if left_support & right_support:
                    work = pack_terms(int_terms(spoly)[0])
                    steps, _ = reduce_int(work, leads, steps)
                    discharged_by = None if work else "reduction"
                else:
                    discharged_by = "coprime"
                pairs.append(PairOutcome(left.label, right.label, discharged_by))
    return GroebnerCertificate(inst, variant, conformance, pairs, verify_reduced(leads, order))


# -- generic completion --------------------------------------------------------


def buchberger_complete(basis, order) -> list[Polynomial]:
    """Complete a generating set to a Groebner basis under the given order.

    Standard completion with the normal selection strategy (pair of
    minimal lcm under the order; ties broken by index), the coprime-lead
    criterion, and full reduction of each S-polynomial.  Each pair's lcm
    is keyed once, when the pair is queued.  The result is
    monic-normalized.  Zero inputs are dropped; a pair queue larger than
    MAX_PAIR_QUEUE raises BudgetExceededError instead of silently churning.
    """
    basis = list(basis)
    if not basis:
        raise ValueError("completion needs a nonempty input set")
    _ring_p(basis[0])
    for g in basis:
        basis[0]._check_compatible(g)
    work: list[Polynomial] = []
    leads: list[PMonomial] = []
    queue: list = []  # heap of (key of the lcm, i, j)

    def add(g):
        """Append g made monic and its lead, and queue its pairs with the elements before it."""
        lead, lc = leading_term(g, order)
        work.append(g.scale(Fraction(1) / lc))
        leads.append(lead)
        new = len(work) - 1
        for t in range(new):
            heappush(queue, (order.key(leads[t].lcm(lead)), t, new))
        if len(queue) > MAX_PAIR_QUEUE:
            raise BudgetExceededError(f"pair queue grew past the budget of {MAX_PAIR_QUEUE}")

    for g in basis:
        if not g.is_zero():
            add(g)
    while queue:
        _, i, j = heappop(queue)
        if leads[i].lcm(leads[j]) == leads[i].mul(leads[j]):
            continue
        normal_form = reduce(s_polynomial(work[i], work[j], order), work, order)
        if not normal_form.is_zero():
            add(normal_form)
    return work
