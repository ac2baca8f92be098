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

`packed_key(d)` gives each order's key on the packed P-monomials of
`poly.PLayout`: None for the corrected order, which is their int order,
the exponent fields for lex, and an unpacking key for the literal variant.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .poly import PMonomial, p_dimension, p_layout, u_pairs

CORRECTED = "corrected"
LITERAL = "literal"
VARIANTS = (CORRECTED, LITERAL)


@lru_cache(maxsize=128)
def _interval_lengths(width: int) -> tuple[int, ...]:
    """k - j at each u-position of a P-monomial tuple of the given width."""
    return tuple(k - j for j, k in u_pairs(p_dimension(width)))


def _literal_omega(mono: PMonomial) -> tuple:
    pairs = u_pairs(mono.d)
    xs = []
    for i, e in enumerate(mono[len(pairs):], start=1):
        xs.extend([i] * e)
    js = []
    ks = []
    for (j, k), e in zip(pairs, mono):
        js.extend([j] * e)
        ks.extend([k] * e)
    return tuple(xs) + tuple(js) + tuple(ks)


def dill_key(mono: PMonomial, variant: str = CORRECTED) -> tuple:
    """Sort key; tuples compare like the monomials under the chosen variant.

    The corrected key is (u-degree, interval length, x-degree, mono): its
    last entry is the monomial's own exponent tuple, whose order is the
    tie-break.  The first three entries of a product's key are the sums of
    the factors' entries.
    """
    lengths = _interval_lengths(len(mono))
    u_degree = sum(mono[: len(lengths)])
    interval_length = sum(map(mul, lengths, mono))
    x_degree = sum(mono) - u_degree
    if variant == CORRECTED:
        return (u_degree, interval_length, x_degree, mono)
    if variant == LITERAL:
        return (x_degree, u_degree, interval_length, _literal_omega(mono))
    raise ValueError(f"unknown order variant {variant!r}")


class DillOrder:
    """Order handle for ring P monomials.

    `key` memoises its results in the handle, so a handle should serve one
    computation: the memo is freed with it.
    """

    def __init__(self, variant: str = CORRECTED):
        if variant not in VARIANTS:
            raise ValueError(f"unknown order variant {variant!r}")
        self.variant = variant
        self._keys: dict = {}

    def key(self, mono: PMonomial) -> tuple:
        key = self._keys.get(mono)
        if key is None:
            key = self._keys[mono] = dill_key(mono, self.variant)
        return key

    def packed_key(self, d: int):
        """Key on the packed monomials of ring P(d) (`poly.PLayout`), None for int order.

        Int order is the corrected order.  The literal key unpacks each
        monomial once, into a memo of the returned key.
        """
        if self.variant == CORRECTED:
            return None
        keys, unpack = {}, p_layout(d).unpack

        def key(packed: int) -> tuple:
            found = keys.get(packed)
            if found is None:
                found = keys[packed] = dill_key(unpack(packed), self.variant)
            return found

        return key

    def __repr__(self):
        return f"DillOrder({self.variant!r})"


class LexOrder:
    """Lex order handle for either ring: the monomial is its own key."""

    def key(self, mono):
        return mono

    def packed_key(self, d: int):
        """Key on the packed monomials of ring P(d): their exponent fields, in tuple order."""
        return p_layout(d).exponent_mask.__and__

    def __repr__(self):
        return "LexOrder()"
