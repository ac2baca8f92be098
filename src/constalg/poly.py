"""Sparse exact polynomial arithmetic for the two working rings.

Ring A = Q[x_1..x_d, y_1..y_d] hosts the derivation and its constants;
ring P = Q[x_1..x_d, u_jk : 1 <= j < k <= d] hosts presentations of the
constants.  Coefficients are `fractions.Fraction` throughout; floating
point never enters.  Polynomials are immutable values and every operation
is a pure function, so they are safe to share across threads.

Variable indices are 1-based everywhere they are visible (text syntax,
u-pair labels); exponent vectors are positional tuples, so the exponent
of x_i sits at position i-1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, RingMismatchError

RING_A = "A"
RING_P = "P"


@dataclass(frozen=True)
class Ring:
    """Ring descriptor: flavor 'A' or 'P' plus the dimension d."""

    flavor: str
    d: int

    def __post_init__(self):
        if self.flavor not in (RING_A, RING_P):
            raise ValueError(f"unknown ring flavor {self.flavor!r}")
        if self.d < 1:
            raise ValueError("ring dimension d must be >= 1")


def ring_a(d: int) -> Ring:
    return Ring(RING_A, d)


def ring_p(d: int) -> Ring:
    return Ring(RING_P, d)


def u_pairs(d: int) -> list[tuple[int, int]]:
    """All u-variable labels (j, k), 1 <= j < k <= d, in ascending order."""
    return [(j, k) for j in range(1, d + 1) for k in range(j + 1, d + 1)]


class AMonomial:
    """Monomial x^a * y^b of ring A; xexp and yexp are parallel tuples."""

    __slots__ = ("xexp", "yexp", "_hash")

    def __init__(self, xexp, yexp):
        xexp = tuple(xexp)
        yexp = tuple(yexp)
        if len(xexp) != len(yexp):
            raise ValueError("x and y exponent vectors must have equal length")
        if any(e < 0 for e in xexp) or any(e < 0 for e in yexp):
            raise ValueError("exponents must be nonnegative")
        object.__setattr__(self, "xexp", xexp)
        object.__setattr__(self, "yexp", yexp)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("AMonomial is immutable")

    def __getstate__(self):
        return (self.xexp, self.yexp)

    def __setstate__(self, state):
        object.__setattr__(self, "xexp", state[0])
        object.__setattr__(self, "yexp", state[1])
        object.__setattr__(self, "_hash", None)

    @staticmethod
    def one(d: int) -> "AMonomial":
        return AMonomial((0,) * d, (0,) * d)

    @property
    def d(self) -> int:
        return len(self.xexp)

    def degree(self) -> int:
        return sum(self.xexp) + sum(self.yexp)

    def is_one(self) -> bool:
        return not any(self.xexp) and not any(self.yexp)

    def mul(self, other: "AMonomial") -> "AMonomial":
        return AMonomial(
            tuple(a + b for a, b in zip(self.xexp, other.xexp)),
            tuple(a + b for a, b in zip(self.yexp, other.yexp)),
        )

    def divides(self, other: "AMonomial") -> bool:
        return all(a <= b for a, b in zip(self.xexp, other.xexp)) and all(
            a <= b for a, b in zip(self.yexp, other.yexp)
        )

    def div(self, other: "AMonomial") -> "AMonomial":
        """Quotient self / other; other must divide self."""
        return AMonomial(
            tuple(a - b for a, b in zip(self.xexp, other.xexp)),
            tuple(a - b for a, b in zip(self.yexp, other.yexp)),
        )

    def __eq__(self, other):
        return (
            isinstance(other, AMonomial)
            and self.xexp == other.xexp
            and self.yexp == other.yexp
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.xexp, self.yexp))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"AMonomial({format_monomial(self)!r})"


class PMonomial:
    """Monomial x^a * prod u_jk^e of ring P.

    u-exponents are stored as a sorted tuple of ((j, k), e) with 1-based
    labels j < k and e > 0; absent pairs have exponent zero.
    """

    __slots__ = ("xexp", "upairs", "_hash")

    def __init__(self, xexp, upairs):
        xexp = tuple(xexp)
        if any(e < 0 for e in xexp):
            raise ValueError("exponents must be nonnegative")
        d = len(xexp)
        cleaned = []
        for (j, k), e in upairs:
            if e == 0:
                continue
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            if not (1 <= j < k <= d):
                raise ValueError(f"u-pair ({j},{k}) out of range for d={d}")
            cleaned.append(((j, k), e))
        cleaned.sort()
        for idx in range(1, len(cleaned)):
            if cleaned[idx][0] == cleaned[idx - 1][0]:
                raise ValueError("duplicate u-pair in monomial")
        object.__setattr__(self, "xexp", xexp)
        object.__setattr__(self, "upairs", tuple(cleaned))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("PMonomial is immutable")

    def __getstate__(self):
        return (self.xexp, self.upairs)

    def __setstate__(self, state):
        object.__setattr__(self, "xexp", state[0])
        object.__setattr__(self, "upairs", state[1])
        object.__setattr__(self, "_hash", None)

    @staticmethod
    def one(d: int) -> "PMonomial":
        return PMonomial((0,) * d, ())

    @staticmethod
    def from_udict(xexp, udict) -> "PMonomial":
        return PMonomial(xexp, tuple(udict.items()))

    @property
    def d(self) -> int:
        return len(self.xexp)

    def x_degree(self) -> int:
        return sum(self.xexp)

    def u_degree(self) -> int:
        return sum(e for _, e in self.upairs)

    def degree(self) -> int:
        return self.x_degree() + self.u_degree()

    def interval_length(self) -> int:
        """Total length of the open intervals carried by the u-factors."""
        return sum(e * (k - j) for (j, k), e in self.upairs)

    def u_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.upairs)

    def is_one(self) -> bool:
        return not any(self.xexp) and not self.upairs

    def mul(self, other: "PMonomial") -> "PMonomial":
        ud = dict(self.upairs)
        for pair, e in other.upairs:
            ud[pair] = ud.get(pair, 0) + e
        return PMonomial(
            tuple(a + b for a, b in zip(self.xexp, other.xexp)), tuple(ud.items())
        )

    def divides(self, other: "PMonomial") -> bool:
        if any(a > b for a, b in zip(self.xexp, other.xexp)):
            return False
        od = dict(other.upairs)
        return all(e <= od.get(pair, 0) for pair, e in self.upairs)

    def div(self, other: "PMonomial") -> "PMonomial":
        """Quotient self / other; other must divide self."""
        ud = dict(self.upairs)
        for pair, e in other.upairs:
            ud[pair] = ud.get(pair, 0) - e
        return PMonomial(
            tuple(a - b for a, b in zip(self.xexp, other.xexp)), tuple(ud.items())
        )

    def lcm(self, other: "PMonomial") -> "PMonomial":
        ud = dict(self.upairs)
        for pair, e in other.upairs:
            ud[pair] = max(ud.get(pair, 0), e)
        return PMonomial(
            tuple(max(a, b) for a, b in zip(self.xexp, other.xexp)), tuple(ud.items())
        )

    def __eq__(self, other):
        return (
            isinstance(other, PMonomial)
            and self.xexp == other.xexp
            and self.upairs == other.upairs
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.xexp, self.upairs))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"PMonomial({format_monomial(self)!r})"


def _monomial_matches_ring(mono, ring: Ring) -> bool:
    if ring.flavor == RING_A:
        return isinstance(mono, AMonomial) and mono.d == ring.d
    return isinstance(mono, PMonomial) and mono.d == ring.d


class Polynomial:
    """Sparse polynomial: a finite map monomial -> nonzero Fraction.

    The zero polynomial is the empty map.  Equality is equality of term
    maps.  Instances are immutable; the `terms` dict must not be mutated.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms=None):
        normalized: dict = {}
        if terms:
            for mono, coeff in terms.items():
                if not _monomial_matches_ring(mono, ring):
                    raise RingMismatchError(
                        f"monomial {mono!r} does not belong to ring {ring}"
                    )
                if not isinstance(coeff, Fraction):
                    coeff = Fraction(coeff)
                if coeff:
                    normalized[mono] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", normalized)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __getstate__(self):
        return (self.ring, self.terms)

    def __setstate__(self, state):
        object.__setattr__(self, "ring", state[0])
        object.__setattr__(self, "terms", state[1])

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ring: Ring) -> "Polynomial":
        return Polynomial(ring, None)

    @staticmethod
    def constant(ring: Ring, value) -> "Polynomial":
        mono = AMonomial.one(ring.d) if ring.flavor == RING_A else PMonomial.one(ring.d)
        return Polynomial(ring, {mono: Fraction(value)})

    @staticmethod
    def from_term(ring: Ring, mono, coeff) -> "Polynomial":
        return Polynomial(ring, {mono: Fraction(coeff)})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m.degree() for m in self.terms)

    def coefficient(self, mono) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"cannot combine polynomials over {self.ring} and {other.ring}"
            )

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = terms.get(mono, 0) + coeff
            if new:
                terms[mono] = new
            else:
                terms.pop(mono, None)
        return Polynomial(self.ring, terms)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = terms.get(mono, 0) - coeff
            if new:
                terms[mono] = new
            else:
                terms.pop(mono, None)
        return Polynomial(self.ring, terms)

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                prod = m1.mul(m2)
                new = terms.get(prod, 0) + c1 * c2
                if new:
                    terms[prod] = new
                else:
                    terms.pop(prod, None)
        return Polynomial(self.ring, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(1, 1) / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
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
        factor = Fraction(factor)
        if not factor:
            return Polynomial.zero(self.ring)
        return Polynomial(self.ring, {m: c * factor for m, c in self.terms.items()})

    def mul_term(self, mono, coeff) -> "Polynomial":
        """Multiply by the single term coeff * mono (fast path for reducers)."""
        coeff = Fraction(coeff)
        if not coeff:
            return Polynomial.zero(self.ring)
        return Polynomial(
            self.ring, {m.mul(mono): c * coeff for m, c in self.terms.items()}
        )

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
        return f"Polynomial({format_poly(self)!r}, d={self.ring.d})"


# -- single-variable helpers -----------------------------------------------


def x_var(ring: Ring, i: int, exp: int = 1) -> Polynomial:
    if not (1 <= i <= ring.d):
        raise ValueError(f"index {i} out of range 1..{ring.d}")
    xexp = tuple(exp if t == i - 1 else 0 for t in range(ring.d))
    if ring.flavor == RING_A:
        mono = AMonomial(xexp, (0,) * ring.d)
    else:
        mono = PMonomial(xexp, ())
    return Polynomial.from_term(ring, mono, 1)


def y_var(ring: Ring, i: int, exp: int = 1) -> Polynomial:
    if ring.flavor != RING_A:
        raise ValueError("y variables only exist in ring A")
    if not (1 <= i <= ring.d):
        raise ValueError(f"index {i} out of range 1..{ring.d}")
    yexp = tuple(exp if t == i - 1 else 0 for t in range(ring.d))
    return Polynomial.from_term(ring, AMonomial((0,) * ring.d, yexp), 1)


def u_var(ring: Ring, j: int, k: int, exp: int = 1) -> Polynomial:
    if ring.flavor != RING_P:
        raise ValueError("u variables only exist in ring P")
    mono = PMonomial((0,) * ring.d, (((j, k), exp),))
    return Polynomial.from_term(ring, mono, 1)


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


def leading_monomial(p: Polynomial, order):
    return leading_term(p, order)[0]


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

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<uvar>u(?P<uj>\d+)_(?P<uk>\d+))"
    r"|(?P<xyvar>(?P<letter>[xy])(?P<index>\d+))"
    r"|(?P<nat>\d+)"
    r"|(?P<sym>[+\-*/^]))"
)


def _tokenize(text: str) -> list[tuple[str, object]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r} in polynomial")
        if match.group("uvar"):
            tokens.append(("u", (int(match.group("uj")), int(match.group("uk")))))
        elif match.group("xyvar"):
            tokens.append((match.group("letter"), int(match.group("index"))))
        elif match.group("nat"):
            tokens.append(("nat", int(match.group("nat"))))
        elif match.group("sym"):
            tokens.append(("sym", match.group("sym")))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens, ring: Ring):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return (None, None)

    def advance(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_sym(self, symbol: str):
        kind, value = self.advance()
        if kind != "sym" or value != symbol:
            raise ParseError(f"expected {symbol!r} in polynomial")

    def parse(self) -> Polynomial:
        terms: dict = {}
        first = True
        while True:
            kind, value = self.peek()
            if kind is None:
                if first:
                    raise ParseError("empty polynomial expression")
                break
            sign = 1
            if kind == "sym" and value in "+-":
                self.advance()
                sign = -1 if value == "-" else 1
            elif not first:
                raise ParseError("terms must be separated by '+' or '-'")
            coeff, mono = self.parse_term()
            coeff *= sign
            new = terms.get(mono, 0) + coeff
            if new:
                terms[mono] = new
            else:
                terms.pop(mono, None)
            first = False
        return Polynomial(self.ring, terms)

    def parse_term(self):
        kind, value = self.peek()
        if kind == "nat":
            coeff = self.parse_coef()
            kind, value = self.peek()
            if kind == "sym" and value == "*":
                self.advance()
                return coeff, self.parse_factors()
            return coeff, self._one()
        if kind in ("x", "y", "u"):
            return Fraction(1), self.parse_factors()
        raise ParseError("expected a coefficient or a variable")

    def parse_coef(self) -> Fraction:
        kind, num = self.advance()
        if kind != "nat":
            raise ParseError("expected a natural number")
        kind, value = self.peek()
        if kind == "sym" and value == "/":
            self.advance()
            kind, den = self.advance()
            if kind != "nat":
                raise ParseError("expected a denominator after '/'")
            if den == 0:
                raise ParseError("zero denominator in coefficient")
            return Fraction(num, den)
        return Fraction(num)

    def parse_factors(self):
        mono = self.parse_factor()
        while True:
            kind, value = self.peek()
            if kind == "sym" and value == "*":
                nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else (None, None)
                if nxt[0] not in ("x", "y", "u"):
                    raise ParseError("expected a variable after '*'")
                self.advance()
                mono = mono.mul(self.parse_factor())
            else:
                return mono

    def parse_factor(self):
        kind, value = self.advance()
        d = self.ring.d
        if kind == "x":
            if not (1 <= value <= d):
                raise ParseError(f"index of x{value} out of range 1..{d}")
        elif kind == "y":
            if self.ring.flavor != RING_A:
                raise ParseError("variable y is not valid in ring P")
            if not (1 <= value <= d):
                raise ParseError(f"index of y{value} out of range 1..{d}")
        elif kind == "u":
            if self.ring.flavor != RING_P:
                raise ParseError("variable u is not valid in ring A")
            j, k = value
            if j >= k:
                raise ParseError(f"u-pair indices must be ascending, got u{j}_{k}")
            if not (1 <= j < k <= d):
                raise ParseError(f"u-pair ({j},{k}) out of range for d={d}")
        else:
            raise ParseError("expected a variable")
        exp = 1
        peek_kind, peek_value = self.peek()
        if peek_kind == "sym" and peek_value == "^":
            self.advance()
            peek_kind, exp = self.advance()
            if peek_kind != "nat":
                raise ParseError("expected a natural number after '^'")
        zeros = (0,) * d
        if kind == "u":
            return PMonomial(zeros, ((value, exp),))
        powered = tuple(exp if t == value - 1 else 0 for t in range(d))
        if kind == "y":
            return AMonomial(zeros, powered)
        if self.ring.flavor == RING_A:
            return AMonomial(powered, zeros)
        return PMonomial(powered, ())

    def _one(self):
        d = self.ring.d
        return AMonomial.one(d) if self.ring.flavor == RING_A else PMonomial.one(d)


def parse_poly(text: str, flavor: str, d: int) -> Polynomial:
    """Parse `text` in the grammar above into a normalized polynomial."""
    ring = Ring(flavor, d)
    return _Parser(_tokenize(text), ring).parse()


def format_monomial(mono) -> str:
    """Render a monomial in the text grammar; the unit monomial is '1'."""
    parts = []
    for i, e in enumerate(mono.xexp, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    if isinstance(mono, AMonomial):
        for i, e in enumerate(mono.yexp, start=1):
            if e == 1:
                parts.append(f"y{i}")
            elif e > 1:
                parts.append(f"y{i}^{e}")
    else:
        for (j, k), e in mono.upairs:
            if e == 1:
                parts.append(f"u{j}_{k}")
            else:
                parts.append(f"u{j}_{k}^{e}")
    return "*".join(parts) if parts else "1"


def _display_key(mono):
    # Canonical display order per ring: A-lex for ring A, corrected DILL
    # for ring P.  Local import: orders depends on the monomial types above.
    from .orders import alex_key, dill_key

    if isinstance(mono, AMonomial):
        return alex_key(mono)
    return dill_key(mono)


def format_poly(p: Polynomial) -> str:
    """Render p with terms in descending canonical order; reparses equal."""
    if p.is_zero():
        return "0"
    pieces = []
    for mono in sorted(p.terms, key=_display_key, reverse=True):
        coeff = p.terms[mono]
        negative = coeff < 0
        mag = -coeff if negative else coeff
        if mono.is_one():
            body = str(mag)
        elif mag == 1:
            body = format_monomial(mono)
        else:
            body = f"{mag}*{format_monomial(mono)}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)
