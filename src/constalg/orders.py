"""Admissible monomial orders for the two rings.

Ring P carries the DILL order (degree, interval length, lexicographic).
Two tie-break conventions are provided:

* ``corrected`` (the default) compares u-degree, then total interval
  length, then x-degree, then the exponent vector lexicographically with
  variable precedence u1_2 > u1_3 > ... > u(d-1)_d > x1 > ... > xd.
  Under it the leading monomial of every quadratic relation r(i,j,k,l)
  is u_ik*u_jl and of every mixed relation s(i,j,k) is xj^mj*u_ik, which
  is what the whole reduction theory here is built on.
* ``literal`` keeps the clause order x-degree, u-degree, interval
  length, then an index-tuple comparison.  It does NOT reproduce the
  leading monomials above (see verify_lead_conformance) and is kept for
  experimentation only.

Both rings also carry a lexicographic order, handled by `LexOrder`: on
ring A the int order of the packed keys, variable precedence
x1 > y1 > x2 > y2 > ... > yd; on ring P the tuple order, the DILL
tie-break precedence above.  A monomial is its own lex key.

Each ring-P order is defined once, by its packed layout `poly.PLayout`:
`dill_key` is the packed key, whose int order is the order; an order
handle's `key` packs a monomial on each call, and its `layout(d)` is the
layout `groebner` reduces on.  A handle holds no state beyond its
variant, so one handle may serve any number of computations.
"""

from __future__ import annotations

from .poly import CORRECTED, LEX, LITERAL, PMonomial, p_layout

VARIANTS = (CORRECTED, LITERAL)


def dill_key(mono: PMonomial, variant: str = CORRECTED) -> int:
    """The packed key of `mono` under the variant (`poly.PLayout`); int order is the order.

    A field above `PLayout.field_max` raises BudgetExceededError.
    """
    return p_layout(mono.d, variant).pack(mono)


class DillOrder:
    """Order handle for ring P monomials; `key` packs the monomial anew on each call."""

    def __init__(self, variant: str = CORRECTED):
        if variant not in VARIANTS:
            raise ValueError(f"unknown order variant {variant!r}")
        self.variant = variant

    def key(self, mono: PMonomial) -> int:
        return dill_key(mono, self.variant)

    def layout(self, d: int):
        """The packed layout of ring P(d) under this order."""
        return p_layout(d, self.variant)

    def __repr__(self):
        return f"DillOrder({self.variant!r})"


class LexOrder:
    """Lex order handle for either ring: the monomial is its own key."""

    def key(self, mono):
        return mono

    def layout(self, d: int):
        """The packed layout of ring P(d) under lex: the exponent fields alone."""
        return p_layout(d, LEX)

    def __repr__(self):
        return "LexOrder()"
