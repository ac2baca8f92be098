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
per-pair certificate that records what discharged each pair.  Its file
text, `GroebnerCertificate.to_json_text`, is `json.dumps(to_json_dict(),
indent=2)` plus a newline, byte for byte, but writes each pair entry
from one template instead of encoding a dict per pair.

The layer works over ring P alone.  `LeadTable` and `reduce_int` key
monomials by the packed ints of the order's layout (`order.layout(d)`, a
`poly.PLayout`), whose int order is the order, so a product by a
quotient is one addition and a divisibility test one subtraction and one
AND (Bachmann and Schoenemann, ISSAC 1998; Monagan and Pearce, CASC
2007).  `LeadTable(basis, order)` alone checks and packs a basis: each
element becomes a primitive int term map with a positive lead
coefficient, split into its lead, taken by `leading_term`, and its
tail.  It tries a lead only on the monomials whose u-support holds the
lead's: each entry is filed under the lowest guard bit of its lead's
u-support, or under 0 when that support is empty, and a monomial looks
only in file 0 and the files of its own support's bits.  Its step count
is the budget of one `verify_groebner` run, `reduce` call or completion.
`reduce` packs its input too, runs `reduce_int` and divides once.
`s_polynomial` (Buchberger 1965) takes two table entries and returns
the fraction-free S-polynomial on the same packed keys: the lcm
(`PLayout.lcm`, taken on the keys without unpacking them) and two tail
products, merged by `_subtract_product` as a reduction step is.  The
generic completion `buchberger_complete`, a cross-check by its own pair
algorithm that must add nothing to the relations, appends each new
element to its one table, and its queue is a heap that keys each pair
once.  The Fraction references, which share no code with `LeadTable`,
are `tests/helpers.reference_reduce`, `reference_s_polynomial` and
`reference_pair_outcomes`.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from heapq import heappop, heappush
from json.encoder import encode_basestring_ascii
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
# took 3.4-4.2 s in process on 2 shared CPUs); d = 13 has 500,500.
MAX_VERIFY_PAIRS = 300_000
# Most steps the reductions against one `LeadTable` (a `verify_groebner` run, a
# `reduce` call or a completion) may take.  Dense instances with f_i of degree 1-3
# take 28,580 steps at d = 10 and 91,098 at d = 12, linear in the degrees of the f_i.
MAX_REDUCTION_STEPS = 500_000
# Largest pair queue `buchberger_complete` may hold.
MAX_PAIR_QUEUE = 100_000
# Most elements one `buchberger_complete` may add to its inputs.  The tests'
# completions add at most 20.  Two sets of three 3-term inputs in P(3) that
# add 111 and 234 elements in 105 s and 141 s are refused after 2.7 s and
# 0.16 s (2 shared CPUs).
MAX_COMPLETION_ELEMENTS = 50


class LeadTable:
    """Entries (lm, lc, tail) of a reduction basis over ring P(d), with their u-supports.

    Each nonzero polynomial of the iterable `basis`, all over one ring P,
    is scaled to int coefficients of gcd 1 and a positive lead coefficient
    on the packed keys of `layout` = `order.layout(d)`, whose int order is
    the order.  Its entry holds the packed lead, which `leading_term`
    picks, the lead's coefficient and the int term map of the other terms;
    `add` appends one.  A lead divides only monomials whose u-support, the
    set of nonzero u-positions, holds its own, so `reducer` and
    `divided_by_other` test a monomial against those leads alone, in basis
    order, listed once per support until an `add`.  `add` files an entry
    under the lowest guard bit of its lead's u-support, a lead without
    u-factors under 0, so the list of a support gathers file 0 and the
    files of the support's bits.  `steps` counts the reduction steps.
    """

    def __init__(self, basis, order):
        basis = list(basis)
        if not basis:
            raise ValueError("reduction needs a nonempty basis")
        ring = _ring_p(basis)
        if not all(basis):
            raise ValueError("reduction basis must not contain zero")
        self.layout = layout = order.layout(ring.d)
        self.steps = 0
        self.entries = []
        self._files: dict = {}  # lowest u-guard bit of a lead -> [(index, u-support, entry)]
        self._candidates: dict = {}
        for g in basis:
            self.add(layout.pack(leading_term(g, order)[0]), layout.pack_terms(int_terms(g)[0]))

    def add(self, lm: int, terms: dict) -> None:
        """Append `terms`, of lead `lm`, over its content signed like its lead coefficient."""
        content = gcd(*terms.values())
        if terms[lm] < 0:
            content = -content
        entry = (lm, terms[lm] // content, {m: c // content for m, c in terms.items() if m != lm})
        own = (lm + self.layout.fill) & self.layout.u_guards
        self._files.setdefault(own & -own, []).append((len(self.entries), own, entry))
        self.entries.append(entry)
        self._candidates.clear()

    def _candidates_of(self, mono: int) -> list:
        """The entries whose lead's u-support lies in mono's, in basis order."""
        positions = (mono + self.layout.fill) & self.layout.u_guards
        found = self._candidates.get(positions)
        if found is None:
            rows, rest = list(self._files.get(0, ())), positions
            while rest:
                guard = rest & -rest
                rows += self._files.get(guard, ())
                rest ^= guard
            found = self._candidates[positions] = [
                entry for _, own, entry in sorted(rows) if own & positions == own
            ]
        return found

    def reducer(self, mono: int):
        """The entry (lm, lc, tail) of the first basis element whose lead divides mono, or None."""
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


def _ring_p(polys: list) -> Ring:
    """polys[0]'s ring, which must be a ring P shared by all polys: the layer works there alone."""
    ring = polys[0].ring
    if ring.flavor != RING_P:
        raise RingMismatchError(f"Groebner bases are computed over ring P, not {ring}")
    for g in polys:
        polys[0]._check_compatible(g)
    return ring


def reduce(p: Polynomial, basis, order) -> Polynomial:
    """Full normal form of p modulo the basis.

    `basis` is an iterable of polynomials over p's ring, which must be a ring P.
    Deterministic: the order-maximal reducible monomial is rewritten first,
    always against the first basis element whose lead divides it.  No
    monomial of the result is divisible by any basis lead.  `reduce_int`
    computes it up to a positive factor; each call has one table and budget.
    """
    basis = list(basis)
    ring = _ring_p([p, *basis])
    leads = LeadTable(basis, order)
    work, den = int_terms(p)
    work = leads.layout.pack_terms(work)
    scale = reduce_int(work, leads)
    unpack = leads.layout.unpack
    return Polynomial._make(ring, {unpack(m): Fraction(c, den * scale) for m, c in work.items()})


def reduce_int(work: dict, leads: LeadTable) -> int:
    """Pseudo-reduce the int term map `work` in place; return the scale.

    `work` is an int term map on the packed monomials of `leads.layout`.
    The work's maximal monomial, its `max`, goes first: to a remainder
    when no lead divides it, else, with c its coefficient, a the lead
    coefficient of the first basis element g whose lead divides it, which
    is positive, k = gcd(c, a) and q the monomial quotient, the work
    becomes (a/k)*work - (c/k)*q*g and the remainder (a/k)*remainder.  The
    remainder then goes back into the work, which holds scale*NF: NF is
    the normal form over Fraction, scale the product of the factors
    a/k > 0.  Each step adds one to `leads.steps`, which all reductions
    against the table share; a count above MAX_REDUCTION_STEPS, or a
    product over a packed field, raises BudgetExceededError.
    """
    layout, reducer = leads.layout, leads.reducer
    remainder: dict = {}
    scale = 1
    while work:
        mono = max(work)
        coeff = work.pop(mono)
        hit = reducer(mono)
        if hit is None:
            remainder[mono] = coeff
            continue
        leads.steps += 1
        if leads.steps > MAX_REDUCTION_STEPS:
            raise BudgetExceededError(
                f"verification needs more than {MAX_REDUCTION_STEPS} reduction steps"
            )
        lm, lead, tail = hit
        common = gcd(coeff, lead)
        quotient, multiplier = coeff // common, lead // common
        if multiplier != 1:
            scale *= multiplier
            for terms in (work, remainder):
                for m in terms:
                    terms[m] *= multiplier
        _subtract_product(work, quotient, mono - lm, tail, layout)
    work.update(remainder)
    return scale


def _subtract_product(work: dict, factor: int, quot: int, tail: dict, layout) -> None:
    """work -= factor*q*tail, q of key offset `quot`; a key that sets a guard bit raises."""
    guards = layout.guards
    for m, c in tail.items():
        target = m + quot
        if target & guards:
            raise BudgetExceededError(layout.overflow_message)
        new = work.get(target, 0) - factor * c
        if new:
            work[target] = new
        else:
            del work[target]


def s_polynomial(g: tuple, h: tuple, layout) -> dict:
    """The S-polynomial (b/k)*(L/lm_g)*g - (a/k)*(L/lm_h)*h of two `LeadTable` entries.

    g = (lm_g, a, tail) and h = (lm_h, b, tail) are entries of a table on
    `layout`, k = gcd(a, b) and L the lcm of the two leads; the result is
    an int term map on the same packed keys.  It is ab/k times the
    product formula L/lm_g*g/a - L/lm_h*h/b, so it reduces to zero
    exactly when that does.  The leads cancel, so only the tails are
    multiplied, a quotient L/lm being the offset L - lm; a product that
    overflows a packed field raises BudgetExceededError.
    """
    (lmg, a, tail_g), (lmh, b, tail_h) = g, h
    lcm = layout.lcm(lmg, lmh)
    k = gcd(a, b)
    terms: dict = {}
    _subtract_product(terms, -(b // k), lcm - lmg, tail_g, layout)
    _subtract_product(terms, a // k, lcm - lmh, tail_h, layout)
    return terms


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


# The fields of a pair entry after "right", as `json.dumps(..., indent=2)`
# writes them in a certificate's pair list, keyed by `discharged_by`.
_PAIR_OUTCOME_TEXT = {
    by: "".join(
        f',\n      "{key}": {json.dumps(value)}'
        for key, value in PairOutcome("", "", by).to_json_dict().items()
        if key not in ("left", "right")
    )
    for by in ("coprime", "reduction", None)
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

    def _json_fields(self, pairs) -> dict:
        """The top-level fields in file order, with `pairs` as the pair list."""
        return {
            "instance": self.instance.to_json_dict(),
            "variant": self.variant,
            "lead_conformance": {
                "ok": self.conformance_ok,
                "entries": [e.to_json_dict() for e in self.conformance],
            },
            "pairs": pairs,
            "reduced": self.reduced,
            "verdict": self.verdict,
        }

    def to_json_dict(self) -> dict:
        return self._json_fields([p.to_json_dict() for p in self.pairs])

    def to_json_text(self) -> str:
        """`json.dumps(self.to_json_dict(), indent=2)` plus a newline, built without the pair dicts.

        Every field but the pair list is encoded by `json.dumps` as it
        stands.  Each pair entry comes from one template: its labels,
        each quoted once per certificate as `json.dumps` quotes strings,
        and its outcome fields from `_PAIR_OUTCOME_TEXT`.
        """
        parts = []
        for key, value in self._json_fields(None).items():
            if key == "pairs":
                parts.append(f'  "pairs": {self._pairs_text()}')
            else:
                parts.append(json.dumps({key: value}, indent=2)[2:-2])
        return "{\n" + ",\n".join(parts) + "\n}\n"

    def _pairs_text(self) -> str:
        """The pair list as `json.dumps(..., indent=2)` writes it one level deep."""
        if not self.pairs:
            return "[]"
        lefts, rights, _ = zip(*self.pairs)
        quoted = {label: encode_basestring_ascii(label) for label in {*lefts, *rights}}
        outcome = _PAIR_OUTCOME_TEXT
        entries = [
            f'    {{\n      "left": {quoted[left]},\n      "right": {quoted[right]}'
            f"{outcome[by]}\n    }}"
            for left, right, by in self.pairs
        ]
        return "[\n" + ",\n".join(entries) + "\n  ]"


def verify_reduced(basis, order) -> bool:
    """No monomial of one element may be divisible by another element's lead.

    `basis` is an iterable of polynomials over one ring P or a `LeadTable`
    built for `order`.  Polynomials become a `LeadTable`, whose entries
    hold their monomials, each lead and its tail; divisibility reads only
    monomials, so that keeps its verdict.
    """
    if not isinstance(basis, LeadTable):
        basis = list(basis)
        if not basis:
            return True
        basis = LeadTable(basis, order)
    return not any(
        basis.divided_by_other(mono, own)
        for own, (lm, _, tail) in enumerate(basis.entries)
        for mono in (lm, *tail)
    )


def verify_groebner(
    inst: ProblemInstance,
    variant: str = CORRECTED,
    relations: list[Relation] | None = None,
) -> GroebnerCertificate:
    """Check that the relations R and S form a reduced Groebner basis.

    A lead that does not conform aborts the pair phase; the verdict is
    then false.  Every pair's S-polynomial is built from the relations'
    `LeadTable` entries.  Pairs with coprime leads, whose supports are
    disjoint, are discharged by Buchberger's first criterion; every other
    S-polynomial is pseudo-reduced by `reduce_int` against the same
    table, which counts the steps of the whole run.  More than
    MAX_VERIFY_PAIRS pairs raise BudgetExceededError before the relations
    are built, more than MAX_REDUCTION_STEPS reduction steps when they are
    taken, and so does a monomial that overflows a packed field.
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
        layout = leads.layout
        rows = [
            (rel.label, entry, layout.support(entry[0]))
            for rel, entry in zip(relations, leads.entries)
        ]
        for i, (left, g, left_support) in enumerate(rows):
            for right, h, right_support in rows[i + 1:]:
                work = s_polynomial(g, h, layout)
                if left_support & right_support:
                    reduce_int(work, leads)
                    discharged_by = None if work else "reduction"
                else:
                    discharged_by = "coprime"
                pairs.append(PairOutcome(left, right, discharged_by))
    return GroebnerCertificate(inst, variant, conformance, pairs, verify_reduced(leads, order))


# -- generic completion --------------------------------------------------------


def buchberger_complete(basis, order) -> list[Polynomial]:
    """Complete a generating set to a Groebner basis under the given order.

    Standard completion with the normal selection strategy (pair of
    minimal lcm under the order; ties broken by index), the coprime-lead
    criterion, and full reduction of each S-polynomial by `reduce_int`
    against one `LeadTable` of the inputs, to which each nonzero normal
    form is added.  Each pair's lcm is keyed once, when the pair is
    queued.  The result is the entries made monic.  Zero inputs are
    dropped; a pair queue over MAX_PAIR_QUEUE, more than
    MAX_COMPLETION_ELEMENTS added elements or, over all reductions, more
    than MAX_REDUCTION_STEPS steps raise BudgetExceededError.
    """
    basis = list(basis)
    if not basis:
        raise ValueError("completion needs a nonempty input set")
    ring = _ring_p(basis)
    if not any(basis):
        return []
    leads = LeadTable([g for g in basis if g], order)
    entries, layout = leads.entries, leads.layout
    queue: list = []  # heap of (packed lcm, i, j)

    def queue_pairs(new):
        """Queue the pairs of element `new` with the elements before it."""
        lm = entries[new][0]
        for t in range(new):
            heappush(queue, (layout.lcm(entries[t][0], lm), t, new))
        if len(queue) > MAX_PAIR_QUEUE:
            raise BudgetExceededError(f"pair queue grew past the budget of {MAX_PAIR_QUEUE}")

    inputs = len(entries)
    for new in range(inputs):
        queue_pairs(new)
    while queue:
        _, i, j = heappop(queue)
        g, h = entries[i], entries[j]
        if not layout.support(g[0]) & layout.support(h[0]):
            continue
        normal_form = s_polynomial(g, h, layout)
        reduce_int(normal_form, leads)
        if normal_form:
            if len(entries) - inputs >= MAX_COMPLETION_ELEMENTS:
                raise BudgetExceededError(
                    f"completion added more than {MAX_COMPLETION_ELEMENTS} elements"
                )
            leads.add(max(normal_form), normal_form)
            queue_pairs(len(entries) - 1)
    unpack = layout.unpack
    return [
        Polynomial._make(ring, {unpack(m): Fraction(c, lc) for m, c in ((lm, lc), *tail.items())})
        for lm, lc, tail in entries
    ]
