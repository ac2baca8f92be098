"""Sparse exact polynomial arithmetic for the two working rings.

Ring A = Q[x_1..x_d, y_1..y_d] hosts the derivation and its constants;
ring P = Q[x_1..x_d, u_jk : 1 <= j < k <= d] hosts presentations of the
constants.  A `Polynomial` holds `fractions.Fraction` coefficients; the hot
paths elsewhere clear denominators once and work on plain term maps
{monomial: int}.  Floating point never enters.  Polynomials are immutable
values and every operation is a pure function, so they are safe to share
across threads.

`parse_poly_int` reads the text grammar into such an int term map and one
common denominator; `parse_poly` divides it into a Fraction polynomial,
and `int_terms` takes a Fraction polynomial back to that form.  The text
is first cut into terms and tokens in C and each distinct token read once
(`_split_poly_int`); a text with any token that this tokenizer does not
accept goes whole to the step scanner `_scan_poly_int`, the reference
reading, which also raises every ParseError.  Both readers give each term
as (packed key, signed numerator, denominator), the key packing the
exponents as `pack` does in either ring, and `_sum_terms` alone sums
them, takes the lcm of the denominators and unpacks ring-P keys.

Variable indices are 1-based everywhere they are visible (text syntax,
u-pair labels).  Each ring has one monomial form, whose natural order is
the lexicographic order the ring uses:

* ring A: one packed int, the exponents a_1, b_1, ..., a_d, b_d of
  x^a * y^b in fields of FIELD_BITS bits, a_1 in the most significant
  field, so int order is the A-lex order x1 > y1 > x2 > ... > yd and the
  product of two monomials is the sum of their keys;
* ring P: a `PMonomial`, the exponent tuple (e_12, e_13, ..., e_(d-1)d,
  a_1, ..., a_d) of prod u_jk^e_jk * x^a, u-pairs in `u_pairs(d)` order,
  so tuple order is the DILL tie-break u1_2 > u1_3 > ... > u(d-1)_d > x1 >
  ... > xd.

Each ring-P order is defined once, by its `PLayout`: packed by it, a
P-monomial is one int whose int order is that order.  `format_poly`,
`orders.dill_key` and the reduction path of `groebner` key P-monomials so;
a ring-P product adds keys of the lex layout (`mul_terms`).
Ring P has no variable constructor: a term is `Polynomial.from_term` of a
`PMonomial`, and `univariate` builds a polynomial in one x_i of either ring.

This module alone owns the packed layouts: ring A's (`field_shift`,
`field_shifts`, `pack`, `unpack`) and ring P's (`PLayout`, one per
order).  No field of a ring-A `Polynomial` exceeds MAX_EXPONENT: the
parser checks the cap as it reads, and the constructor and every
computed ring-A result pass through `capped`; both raise
BudgetExceededError.  So the sum of two keys
never carries into a neighbouring field.  `mul_terms`, the hot path, does
not check; `derivation.check_field_room` bounds what the derivation, the
generator images and the peel build there.  A ring-P product refuses a
key that sets a guard bit, with BudgetExceededError.
"""

from __future__ import annotations

import re
import struct
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from operator import add, le, mul, sub

from .errors import BudgetExceededError, ParseError, RingMismatchError

RING_A = "A"
RING_P = "P"

# Width of one exponent field of a packed ring-A monomial; `pack` and
# `unpack` read and write the fields as big-endian unsigned 32-bit words.
FIELD_BITS = 32
FIELD_MAX = (1 << FIELD_BITS) - 1

# Largest exponent the parser and `capped` accept for any one variable;
# larger ones raise BudgetExceededError.  While 2*d*m_i*MAX_EXPONENT stays
# within FIELD_MAX, no derived exponent can reach a neighbouring field.
MAX_EXPONENT = (1 << 21) - 1

# Most terms a polynomial text may have, counted from its signs before any
# term is read; more raise BudgetExceededError.
MAX_TERMS = 1_000_000

# Most tokens of one term the tokenizer sums into a packed key: that many
# fields of at most MAX_EXPONENT cannot carry into a neighbouring field.
_MAX_FACTORS = FIELD_MAX // MAX_EXPONENT


class Ring(namedtuple("Ring", "flavor d")):
    """Ring descriptor: flavor 'A' or 'P' plus the dimension d."""

    __slots__ = ()

    def __new__(cls, flavor: str, d: int):
        if flavor not in (RING_A, RING_P):
            raise ValueError(f"unknown ring flavor {flavor!r}")
        if d < 1:
            raise ValueError("ring dimension d must be >= 1")
        return tuple.__new__(cls, (flavor, d))


def ring_a(d: int) -> Ring:
    return Ring(RING_A, d)


def ring_p(d: int) -> Ring:
    return Ring(RING_P, d)


@lru_cache(maxsize=128)
def u_pairs(d: int) -> tuple[tuple[int, int], ...]:
    """All u-variable labels (j, k), 1 <= j < k <= d, in ascending order.

    A label's index here is the position of its exponent in a P-monomial.
    """
    return tuple((j, k) for j in range(1, d + 1) for k in range(j + 1, d + 1))


def p_dimension(width: int) -> int:
    """The d of a P-monomial exponent tuple of this width, d(d-1)/2 + d."""
    return (isqrt(8 * width + 1) - 1) // 2


def u_position(d: int, j: int, k: int) -> int:
    """Index of the label (j, k) in `u_pairs(d)`."""
    return (j - 1) * (2 * d - j) // 2 + k - j - 1


# Unchecked constructor _new(PMonomial, exps), also used by the hot paths of
# normal_words: exps must be nonnegative and in PMonomial's layout.
_new = tuple.__new__


def _exponent(e) -> int:
    """e, once it is a nonnegative int; a float or a bool raises ValueError."""
    if not isinstance(e, int) or isinstance(e, bool):
        raise ValueError(f"exponent {e!r} is not an integer")
    if e < 0:
        raise ValueError("exponents must be nonnegative")
    return e


class PMonomial(tuple):
    """Monomial prod u_jk^e * x^a of ring P, stored as (e_12, ..., e_(d-1)d, a_1, ..., a_d).

    The constructor takes the x-exponents and ((j, k), e) items with 1-based
    labels j < k; absent pairs have exponent zero.  The operations are
    single passes over two tuples of the same width.
    """

    __slots__ = ()

    def __new__(cls, xexp, upairs):
        xexp = tuple(map(_exponent, xexp))
        d = len(xexp)
        exps = [0] * (d * (d - 1) // 2)
        for (j, k), e in upairs:
            if not (1 <= j < k <= d):
                raise ValueError(f"u-pair ({j},{k}) out of range for d={d}")
            if _exponent(e) == 0:
                continue
            pos = u_position(d, j, k)
            if exps[pos]:
                raise ValueError("duplicate u-pair in monomial")
            exps[pos] = e
        exps.extend(xexp)
        return _new(cls, exps)

    @staticmethod
    def one(d: int) -> "PMonomial":
        return _new(PMonomial, (0,) * (d * (d + 1) // 2))

    @property
    def d(self) -> int:
        return p_dimension(len(self))

    @property
    def xexp(self) -> tuple:
        return self[len(self) - self.d:]

    @property
    def upairs(self) -> tuple:
        """The nonzero u-exponents as ((j, k), e) items in ascending label order."""
        return tuple((pair, e) for pair, e in zip(u_pairs(self.d), self) if e)

    def mul(self, other):
        return _new(PMonomial, map(add, self, other))

    def divides(self, other) -> bool:
        return all(map(le, self, other))

    def div(self, other):
        """Quotient self / other; other must divide self."""
        return _new(PMonomial, map(sub, self, other))

    def lcm(self, other):
        return _new(PMonomial, map(max, self, other))

    def __repr__(self):
        return f"PMonomial({format_monomial(self)!r})"


# -- packed ring-P monomials -------------------------------------------------

# The orders a ring-P layout realises; `orders.DillOrder` takes the first two.
CORRECTED = "corrected"
LITERAL = "literal"
LEX = "lex"

# Width of a field of `p_layout`, guard bit included.
P_FIELD_BITS = 32


class PLayout:
    """The packed key of a P-monomial of ring P(d) under one order: one int of `bits`-bit fields.

    Fields, most significant first: the order's leading fields, then the
    exponents in tuple order e_12, ..., e_(d-1)d, a_1, ..., a_d, so that
    int order is the order.  The leading fields are

    * corrected: u-degree, interval length, x-degree;
    * literal: x-degree, u-degree, interval length, then field_max - a_i,
      field_max - c_j (c_j = sum_k e_jk, j < d) and field_max - e_jk.  Once
      the degrees tie, the literal order's index lists (i once per unit of
      a_i, then j and then k once per unit of e_jk) have equal lengths, and
      the list with the larger count at the first differing index is the
      smaller;
    * lex: none; int order is then the tuple order.

    Each field is an affine function of the exponents, so key(g*q) =
    key(g) + key(m) - key(lm) when m = lm*q.  The top bit of each field is
    its guard, zero in every valid key, so a field holds at most
    `field_max`.  lm divides m exactly when m - lm sets no guard of an
    exponent field (`exponent_guards`): those fields are the least
    significant, and a field of m below lm's borrows, which sets its guard.
    Each field of key(g) + key(m) - key(lm) lies in -field_max..2*field_max,
    so the least significant one outside 0..field_max sets its guard;
    `overflow_message` is the error text for such a product.  Affinity
    also gives the lcm without unpacking: with one = key(1) and the column
    col_p = key(x_p) - one of each exponent field p, key(lcm(a, b)) =
    a + b - one - sum of min(a_p, b_p)*col_p over the fields set in both
    keys, so a coprime pair costs one addition; `lcm(a, b)` reads those
    fields by their guards, and each field of its result lies in
    -field_max..2*field_max, so one guard check finds an overflow.
    `p_layout(d, order)` is the shared layout of P_FIELD_BITS-bit fields;
    `bits` may be 8, 16, 32 or 64.
    """

    def __init__(self, d: int, order: str = CORRECTED, bits: int = P_FIELD_BITS):
        pairs = u_pairs(d)
        n = self._n = len(pairs)
        width = self._width = n + d
        self._lengths = [k - j for j, k in pairs]
        # c_j sums the u-positions of the pairs (j, k), which are consecutive.
        self._blocks = [(u_position(d, j, j + 1), u_position(d, j, d) + 1) for j in range(1, d)]
        leading = {CORRECTED: self._corrected, LITERAL: self._literal, LEX: self._lex}
        if order not in leading:
            raise ValueError(f"unknown order variant {order!r}")
        self._leading = leading[order]
        self.field_max = (1 << bits - 1) - 1
        self.overflow_message = f"a product overflows a packed field of at most {self.field_max}"
        fields = len(self._leading(PMonomial.one(d))) + width
        code = {8: "B", 16: "H", 32: "I", 64: "Q"}[bits]
        self._struct = struct.Struct(f">{fields}{code}")
        ones = sum(1 << bits * f for f in range(fields))  # bit 0 of every field
        self.guards = ones << bits - 1
        self.fill = self.guards - ones  # field_max in every field
        self.exponent_guards = self.guards & (1 << bits * width) - 1
        self.u_guards = self.exponent_guards >> bits * d << bits * d
        self._one, self._bits = self.pack(PMonomial.one(d)), bits
        self._columns = {}  # bit shift of exponent field p -> pack(x_p) - pack(1)
        for p in range(width):
            unit = _new(PMonomial, (0,) * p + (1,) + (0,) * (width - 1 - p))
            self._columns[bits * (width - 1 - p)] = self.pack(unit) - self._one

    def _corrected(self, mono: PMonomial) -> tuple:
        u_degree = sum(mono[: self._n])
        return u_degree, sum(map(mul, self._lengths, mono)), sum(mono) - u_degree

    def _literal(self, mono: PMonomial) -> tuple:
        us, xs = mono[: self._n], mono[self._n:]
        counts = [sum(us[start:end]) for start, end in self._blocks]
        flipped = [self.field_max - v for v in (*xs, *counts, *us)]
        return sum(xs), sum(us), sum(map(mul, self._lengths, us)), *flipped

    @staticmethod
    def _lex(mono: PMonomial) -> tuple:
        return ()

    def pack(self, mono: PMonomial) -> int:
        """The key of `mono`; a field outside 0..field_max raises BudgetExceededError."""
        try:
            key = int.from_bytes(self._struct.pack(*self._leading(mono), *mono), "big")
        except struct.error:  # a field wider than `bits`, or a literal field below 0
            key = self.guards
        if key & self.guards:
            raise BudgetExceededError(
                f"monomial {format_monomial(mono)} overflows a packed field of "
                f"at most {self.field_max}"
            )
        return key

    def pack_terms(self, terms: dict) -> dict:
        """The term map `terms` of P-monomials keyed by their packed keys."""
        pack = self.pack
        return {pack(m): c for m, c in terms.items()}

    def unpack(self, key: int) -> PMonomial:
        fields = self._struct.unpack(key.to_bytes(self._struct.size, "big"))
        return _new(PMonomial, fields[len(fields) - self._width:])

    def lcm(self, a: int, b: int) -> int:
        """The key of the lcm of keys a and b; a field it overflows raises BudgetExceededError."""
        key, top = a + b - self._one, self.field_max
        common = (a + self.fill) & (b + self.fill) & self.exponent_guards  # shared support
        while common:
            guard = common & -common
            shift = guard.bit_length() - self._bits
            key -= min(a >> shift & top, b >> shift & top) * self._columns[shift]
            common ^= guard
        if key & self.guards:
            raise BudgetExceededError(self.overflow_message)
        return key

    def support(self, key: int) -> int:
        """The guards of the nonzero exponent fields; coprime keys have disjoint supports."""
        return (key + self.fill) & self.exponent_guards


@lru_cache(maxsize=128)
def p_layout(d: int, order: str = CORRECTED) -> PLayout:
    return PLayout(d, order)


def _width(ring: Ring) -> int:
    """Number of exponents of a monomial of the ring."""
    d = ring.d
    return 2 * d if ring.flavor == RING_A else d * (d + 1) // 2


def _exact(value) -> Fraction:
    """value as a Fraction; a float or a bool is no exact coefficient and raises TypeError."""
    if isinstance(value, (float, bool)):
        raise TypeError(f"coefficient {value!r} is not an exact rational")
    return Fraction(value)


def _x_position(ring: Ring, i: int) -> int:
    d = ring.d
    return 2 * i - 2 if ring.flavor == RING_A else d * (d - 1) // 2 + i - 1


# -- packed ring-A monomials -------------------------------------------------


@lru_cache(maxsize=128)
def _fields(width: int) -> struct.Struct:
    """Big-endian 32-bit words, one per exponent of a monomial of this width."""
    return struct.Struct(f">{width}I")


@lru_cache(maxsize=128)
def _over_cap(width: int) -> int:
    """The bits of a packed monomial of this width that only a field above MAX_EXPONENT sets."""
    high = FIELD_MAX ^ MAX_EXPONENT  # MAX_EXPONENT is 2^k - 1
    return sum(high << (FIELD_BITS * slot) for slot in range(width))


def field_shift(d: int, slot: int) -> int:
    """Bit offset of exponent slot `slot` (x_i at 2i-2, y_i at 2i-1) in a packed monomial."""
    return (2 * d - 1 - slot) * FIELD_BITS


@lru_cache(maxsize=128)
def field_shifts(d: int) -> tuple:
    """(x_i's, y_i's `field_shift`) for i = 1..d, in that order."""
    return tuple((field_shift(d, 2 * i), field_shift(d, 2 * i + 1)) for i in range(d))


def pack(exps) -> int:
    """The packed key of the exponents `exps`, each at most FIELD_MAX, exps[0] most significant.

    For ring A they are (a_1, b_1, ..., a_d, b_d); the parser packs ring-P
    exponent tuples so too, and `_sum_terms` unpacks them.
    """
    return int.from_bytes(_fields(len(exps)).pack(*exps), "big")


def unpack(key: int, d: int) -> tuple:
    """The exponents (a_1, b_1, ..., a_d, b_d) of a packed key of ring A(d)."""
    return _fields(2 * d).unpack(key.to_bytes(8 * d, "big"))


def AMonomial(xexp, yexp) -> int:
    """The packed key of x^xexp * y^yexp in ring A, from two exponent vectors of one length.

    Named like the monomial class it replaced.  Exponents must lie in
    0..FIELD_MAX; a `Polynomial` takes keys whose exponents are at most
    MAX_EXPONENT.
    """
    exps = [e for pair in zip(xexp, yexp, strict=True) for e in pair]
    if not all(0 <= e <= FIELD_MAX for e in exps):
        raise ValueError(f"exponents must lie in 0..{FIELD_MAX}")
    return pack(exps)


def _cap_error(exps, flavor: str, d: int) -> BudgetExceededError:
    """The error for the largest of the exponents `exps`, which exceeds MAX_EXPONENT."""
    slot = max(range(len(exps)), key=exps.__getitem__)
    name = dict(_variable_names(flavor, d))[slot]
    return BudgetExceededError(
        f"exponent {exps[slot]} of {name} exceeds the cap of {MAX_EXPONENT}"
    )


def capped(ring: Ring, terms: dict) -> dict:
    """The ring-A term map `terms`, once no key has a field above MAX_EXPONENT.

    Every ring-A `Polynomial` is built through here; a field above the cap
    raises BudgetExceededError, as in the parser.
    """
    over = _over_cap(2 * ring.d)
    for key in terms:
        if key & over:
            raise _cap_error(unpack(key, ring.d), RING_A, ring.d)
    return terms


def check_monomial(mono, ring: Ring) -> None:
    """Raise RingMismatchError unless `mono` is a monomial of `ring`.

    In ring A that is an int, not a bool, with no bit above its 2d fields.
    A key does not record its d, so a key of A(d) passes at every larger d.
    """
    if ring.flavor == RING_A:
        ok = type(mono) is int and not mono >> 2 * ring.d * FIELD_BITS
    else:
        ok = isinstance(mono, PMonomial) and len(mono) == _width(ring)
    if not ok:
        raise RingMismatchError(f"monomial {mono!r} does not belong to ring {ring}")


class Polynomial:
    """Sparse polynomial: a finite map monomial -> nonzero Fraction.

    The monomials are packed ints in ring A and PMonomials in ring P.  The
    zero polynomial is the empty map.  Equality is equality of term maps.
    Instances are immutable; the `terms` dict must not be mutated.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms=None):
        normalized: dict = {}
        if terms:
            for mono, coeff in terms.items():
                check_monomial(mono, ring)
                if not isinstance(coeff, Fraction):
                    coeff = _exact(coeff)
                if coeff:
                    normalized[mono] = coeff
            if ring.flavor == RING_A:
                capped(ring, normalized)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", normalized)

    @classmethod
    def _make(cls, ring: Ring, terms: dict) -> "Polynomial":
        """Unchecked constructor for computed results.

        `terms` must already map monomials of `ring` to nonzero Fractions,
        ring-A keys within the cap (`capped`), and is taken over, not copied.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "ring", ring)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ring: Ring) -> "Polynomial":
        return Polynomial._make(ring, {})

    @staticmethod
    def constant(ring: Ring, value) -> "Polynomial":
        mono = 0 if ring.flavor == RING_A else PMonomial.one(ring.d)
        return Polynomial(ring, {mono: value})

    @staticmethod
    def from_term(ring: Ring, mono, coeff) -> "Polynomial":
        return Polynomial(ring, {mono: coeff})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        if self.ring.flavor == RING_A:
            # 2^FIELD_BITS is 1 modulo FIELD_MAX, so a key is its field sum
            # modulo FIELD_MAX, and that sum, at most 2*d*MAX_EXPONENT, is
            # smaller while d < 1024.
            return max(m % FIELD_MAX for m in self.terms)
        return max(map(sum, self.terms))

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"cannot combine polynomials over {self.ring} and {other.ring}"
            )

    def _combine(self, other, op):
        """self op other, op being operator.add or operator.sub."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = op(terms.get(mono, 0), coeff)
            if new:
                terms[mono] = new
            else:
                terms.pop(mono, None)
        return Polynomial._make(self.ring, terms)

    # Two methods, not one alias: perfbench's tracer wraps each.
    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        return Polynomial._make(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        ring = self.ring
        if ring.flavor == RING_A:
            return Polynomial._make(ring, capped(ring, mul_terms(self.terms, other.terms)))
        layout = p_layout(ring.d, LEX)
        terms = mul_terms(layout.pack_terms(self.terms), layout.pack_terms(other.terms))
        # An overflowing product survives: top powers of its variable cannot cancel.
        if any(m & layout.guards for m in terms):
            raise BudgetExceededError(layout.overflow_message)
        return Polynomial._make(ring, {layout.unpack(m): c for m, c in terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(1 / _exact(other))
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.constant(self.ring, 1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def scale(self, factor) -> "Polynomial":
        factor = _exact(factor)
        if not factor:
            return Polynomial.zero(self.ring)
        return Polynomial._make(self.ring, {m: c * factor for m, c in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        try:
            text = repr(format_poly(self))
        except BudgetExceededError:  # a ring-P field past PLayout.field_max: terms as stored
            text = repr({format_monomial(m, self.ring.d): str(c) for m, c in self.terms.items()})
        return f"Polynomial({text}, d={self.ring.d})"


def mul_terms(left: dict, right: dict) -> dict:
    """Product of two term maps {packed monomial: coefficient}; no zero is stored.

    A key of ring A or of ring P's lex layout: a product's key is the sum
    of the two keys, whose fields the caller checks or bounds.
    """
    terms: dict = {}
    get = terms.get
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            prod = m1 + m2
            new = get(prod, 0) + c1 * c2
            if new:
                terms[prod] = new
            else:
                terms.pop(prod, None)
    return terms


# -- single-variable helpers -----------------------------------------------


def univariate(ring: Ring, i: int, terms) -> Polynomial:
    """The polynomial sum of coeff * x_i^power over the (power, coeff) pairs of `terms`.

    A negative power raises ValueError, one above MAX_EXPONENT
    BudgetExceededError.
    """
    if not (1 <= i <= ring.d):
        raise ValueError(f"index {i} out of range 1..{ring.d}")
    exps = [0] * _width(ring)
    pos = _x_position(ring, i)
    packed = ring.flavor == RING_A
    shift = field_shift(ring.d, pos)
    out = {}
    for power, coeff in terms:
        coeff = _exact(coeff)
        if coeff:
            exps[pos] = power
            if power < 0:
                raise ValueError("exponents must be nonnegative")
            if power > MAX_EXPONENT:  # before the shift, which would carry
                raise _cap_error(exps, ring.flavor, ring.d)
            out[power << shift if packed else _new(PMonomial, exps)] = coeff
    return Polynomial._make(ring, out)


# -- leading terms -----------------------------------------------------------


def leading_term(p: Polynomial, order) -> tuple:
    """Order-maximal monomial of p and its coefficient.

    `order` is any object with a `key(monomial)` method inducing a total
    admissible comparison for p's ring flavor.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no leading term")
    mono = max(p.terms, key=order.key)
    return mono, p.terms[mono]


# -- text format -------------------------------------------------------------
#
# poly   := [sign] term { sign term } ;  sign := '+' | '-'
# term   := coef | coef '*' factors | factors
# factors:= factor { '*' factor }
# factor := var [ '^' nat ]
# var    := 'x' nat | 'y' nat | 'u' nat '_' nat
# coef   := nat | nat '/' nat
#
# Whitespace is insignificant between tokens; indices are 1-based.

# The step scanner matches these patterns in place; each skips leading
# whitespace.  A factor match holds the letter and index of x or y (groups
# 1 and 2) or the indices of u (groups 3 and 4), then the exponent (group
# 5), which `_checked_slot` and the scanner check.  `_STAR_FACTOR` reads a
# '*' together with the factor after it.
_SIGN = re.compile(r"\s*([+-])")
_COEF = re.compile(r"\s*(\d+)(?:\s*/\s*(\d*))?")
_FACTOR_BODY = r"(?:([xy])(\d+)|u(\d+)_(\d+))(?:\s*\^\s*(\d*))?"
_FACTOR = re.compile(r"\s*" + _FACTOR_BODY)
_STAR_FACTOR = re.compile(r"\s*\*\s*" + _FACTOR_BODY)
_STAR = re.compile(r"\s*\*")
_END = re.compile(r"\s*\Z")

# The tokenizer cuts a text at its signs into terms and each term at '*'
# into tokens; `_TOKEN` must match a whole token: a coefficient (groups 1
# and 2) or a factor (groups 3 and 4).
_TERMS = re.compile(r"([+-])")
_TOKEN = re.compile(r"\s*(?:(\d+)(?:\s*/\s*(\d+))?|([xy]\d+|u\d+_\d+)(?:\s*\^\s*(\d+))?)\s*")


def _fault(text: str, pos: int, expected: str) -> ParseError:
    """ParseError naming what was expected at `pos` and what stands there."""
    rest = text[pos:].lstrip()
    found = repr(rest[0]) if rest else "the end of the text"
    return ParseError(f"expected {expected} at offset {len(text) - len(rest)}, found {found}")


def _nat(match, group: int) -> int:
    """The natural number in a matched group; one too long for int() is a ParseError."""
    try:
        return int(match[group])
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise ParseError(
            f"number of {len(match[group])} digits at offset {match.start(group)} is too long"
        ) from None


def _checked_slot(match, ring: Ring) -> int:
    """Exponent slot of the variable of a `_FACTOR` match.

    Leading zeros are accepted; a wrong letter, an index out of range or a
    number too long for int() raises ParseError.
    """
    flavor, d = ring.flavor, ring.d
    letter = match[1]
    if letter:
        i = _nat(match, 2)
        if letter == "y" and flavor != RING_A:
            raise ParseError("variable y is not valid in ring P")
        if not 1 <= i <= d:
            raise ParseError(f"index of {letter}{i} out of range 1..{d}")
        return 2 * i - 1 if letter == "y" else _x_position(ring, i)
    j, k = _nat(match, 3), _nat(match, 4)
    if flavor != RING_P:
        raise ParseError("variable u is not valid in ring A")
    if not 1 <= j < k <= d:
        raise ParseError(f"u{j}_{k} needs indices 1 <= j < k <= {d}")
    return u_position(d, j, k)


def parse_poly_int(text: str, flavor: str, d: int) -> tuple[dict, int]:
    """Parse `text` in the grammar above into (terms, den): the polynomial is terms/den.

    `terms` maps monomials to nonzero ints, packed ones in ring A, and `den`
    is the lcm of the denominators as written, so no Fraction is built.  A
    text of more than MAX_TERMS terms, counted from its signs before any
    term is read, raises BudgetExceededError.  The tokenizer reads the text
    when it accepts every token, and the step scanner otherwise.
    """
    count = text.count("+") + text.count("-") + (_SIGN.match(text) is None)
    if count > MAX_TERMS:
        raise BudgetExceededError(f"{count} terms exceed the cap of {MAX_TERMS}")
    return _split_poly_int(text, flavor, d) or _scan_poly_int(text, flavor, d)


class _Tokens(dict):
    """The memo of one call: token -> what the tokenizer reads from it, on first sight.

    That is (num, den) for a coefficient, the packed exponents of a factor,
    or None for a token left to the step scanner: no full match of
    `_TOKEN`, a name `_slots` does not list, a number too long for int(),
    an exponent above MAX_EXPONENT or a zero denominator.
    """

    __slots__ = ("slots", "width")

    def __init__(self, slots: dict, width: int):
        self.slots, self.width = slots, width

    def __missing__(self, token: str):
        self[token] = value = self._read(token)
        return value

    def _read(self, token: str):
        match = _TOKEN.fullmatch(token)
        if match is None:
            return None
        num, den, name, exp = match.groups()
        try:
            if name is None:
                den = 1 if den is None else int(den)
                return (int(num), den) if den else None
            exp = 1 if exp is None else int(exp)
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            return None
        slot = self.slots.get(name)
        if slot is None or exp > MAX_EXPONENT:
            return None
        return exp << (self.width - 1 - slot) * FIELD_BITS


def _split_poly_int(text: str, flavor: str, d: int) -> tuple[dict, int] | None:
    """`_scan_poly_int(text, flavor, d)` if the tokenizer accepts every token, else None.

    Terms come from one re.split at the signs, tokens from str.split at
    '*', and each distinct token is read once, into a memo local to the
    call.  A term's key is the sum of its factors' packed exponents; with
    at most _MAX_FACTORS tokens no field carries into the next, so one
    above MAX_EXPONENT shows as a bit of `_over_cap`.
    """
    width = _width(Ring(flavor, d))
    read, over_cap = _Tokens(_slots(flavor, d), width).__getitem__, _over_cap(width)
    parts = _TERMS.split(text)
    signs, terms = ["+", *parts[1::2]], parts[::2]
    if len(terms) > 1 and not terms[0].strip():  # a sign before the first term
        del signs[0], terms[0]
    parsed = []
    try:
        for sign, term in zip(signs, terms):
            factors = term.split("*")
            if len(factors) > _MAX_FACTORS:
                return None
            head = read(factors[0])
            if type(head) is tuple:
                num, cden = head
                del factors[0]
            else:
                num = cden = 1
            mono = sum(map(read, factors))
            if mono & over_cap:  # the step scanner raises the cap error
                return None
            parsed.append((mono, -num if sign == "-" else num, cden))
    except TypeError:  # a None or a coefficient among the summed tokens
        return None
    return _sum_terms(parsed, flavor, width)


def _scan_poly_int(text: str, flavor: str, d: int) -> tuple[dict, int]:
    """The step scanner: `parse_poly_int` of `text`, or the error it raises.

    One pass over the text: the factors of a term add their exponents into
    one list, which is packed once.  A summed exponent above MAX_EXPONENT
    raises BudgetExceededError.
    """
    ring = Ring(flavor, d)
    width = _width(ring)
    star_factor = _STAR_FACTOR.match
    if _END.match(text):
        raise ParseError("empty polynomial expression")
    parsed = []
    pos = 0
    while True:
        match = _SIGN.match(text, pos)
        if match:
            pos = match.end()
        elif pos:  # only the first term may omit its sign
            if _END.match(text, pos):
                break
            star = _STAR.match(text, pos)  # a '*' that `_STAR_FACTOR` did not take
            if star:
                raise _fault(text, star.end(), "a variable after '*'")
            raise _fault(text, pos, "'+', '-', '*' or the end of the text")
        negative = match is not None and match[1] == "-"
        exps = [0] * width
        match = _COEF.match(text, pos)
        if match:
            cden = match[2]
            if cden == "":
                raise _fault(text, match.end(), "a denominator after '/'")
            cden = 1 if cden is None else _nat(match, 2)
            if not cden:
                raise ParseError(f"zero denominator in coefficient {match[0].strip()!r}")
            num = _nat(match, 1)
            pos = match.end()
            match = star_factor(text, pos)
        else:
            num = cden = 1
            match = _FACTOR.match(text, pos)
            if match is None:
                raise _fault(text, pos, "a coefficient or a variable")
        while match:
            exp = match[5]
            pos = match.end()
            if exp == "":
                raise _fault(text, pos, "a natural number after '^'")
            exps[_checked_slot(match, ring)] += 1 if exp is None else _nat(match, 5)
            match = star_factor(text, pos)
        if max(exps) > MAX_EXPONENT:
            raise _cap_error(exps, flavor, d)
        parsed.append((pack(exps), -num if negative else num, cden))
    return _sum_terms(parsed, flavor, width)


def _sum_terms(parsed: list, flavor: str, width: int) -> tuple[dict, int]:
    """(terms, den) from the (packed key, signed numerator, denominator) of each term, in order.

    `den` is the lcm of the denominators; each term is scaled once, so many
    distinct denominators cost no rescaling.  Keys pack the `width`
    exponents as `pack` does; in ring P each is unpacked to a PMonomial.
    """
    den = lcm(*{cden for _, _, cden in parsed})
    terms: dict = {}
    for mono, num, cden in parsed:
        new = terms.get(mono, 0) + num * (den // cden)
        if new:
            terms[mono] = new
        else:
            terms.pop(mono, None)
    if flavor == RING_A:
        return terms, den
    exps = _fields(width).unpack
    return {_new(PMonomial, exps(k.to_bytes(4 * width, "big"))): c for k, c in terms.items()}, den


def parse_poly(text: str, flavor: str, d: int) -> Polynomial:
    """Parse `text` in the grammar above into a polynomial over Fraction: terms/den."""
    terms, den = parse_poly_int(text, flavor, d)
    return Polynomial._make(Ring(flavor, d), {m: Fraction(c, den) for m, c in terms.items()})


def int_terms(p: Polynomial) -> tuple[dict, int]:
    """(terms, den) with p = terms/den: int coefficients, den the lcm of p's denominators."""
    den = lcm(*[c.denominator for c in p.terms.values()])
    return {m: c.numerator * (den // c.denominator) for m, c in p.terms.items()}, den


@lru_cache(maxsize=256)
def _variable_names(flavor: str, d: int) -> tuple:
    """(position, name) of each variable, in printing order: x's, then y's or u's."""
    if flavor == RING_A:
        xs = tuple((2 * i - 2, f"x{i}") for i in range(1, d + 1))
        return xs + tuple((2 * i - 1, f"y{i}") for i in range(1, d + 1))
    n = d * (d - 1) // 2
    xs = tuple((n + i - 1, f"x{i}") for i in range(1, d + 1))
    return xs + tuple((pos, f"u{j}_{k}") for pos, (j, k) in enumerate(u_pairs(d)))


@lru_cache(maxsize=256)
def _slots(flavor: str, d: int) -> dict:
    """{canonical name: exponent slot} of every variable of the ring, e.g. {"x1": 0, "y1": 1}."""
    return {name: pos for pos, name in _variable_names(flavor, d)}


def format_monomial(mono, d: int | None = None) -> str:
    """Render a monomial in the text grammar; the unit monomial is '1'.

    A packed ring-A key does not record its d, so it needs `d`; a PMonomial
    carries its own.
    """
    if isinstance(mono, PMonomial):
        flavor, exps, d = RING_P, mono, mono.d
    else:
        flavor, exps = RING_A, unpack(mono, d)
    parts = []
    for pos, name in _variable_names(flavor, d):
        e = exps[pos]
        if e:
            parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_poly(p: Polynomial) -> str:
    """Render p with terms in descending canonical order; reparses equal."""
    if p.is_zero():
        return "0"
    # Canonical display order per ring: A-lex (the int order) for ring A,
    # corrected DILL for ring P, whose packed key refuses a field above
    # PLayout.field_max.
    key = None if p.ring.flavor == RING_A else p_layout(p.ring.d).pack
    pieces = []
    for mono in sorted(p.terms, key=key, reverse=True):
        coeff = p.terms[mono]
        negative = coeff < 0
        mag = -coeff if negative else coeff
        text = format_monomial(mono, p.ring.d)
        if text == "1":
            body = str(mag)
        elif mag == 1:
            body = text
        else:
            body = f"{mag}*{text}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)
