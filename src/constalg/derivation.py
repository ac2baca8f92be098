"""Problem instances and the derivation they induce.

An instance fixes d and nonconstant univariate polynomials f_1(x_1), ...,
f_d(x_d); the induced derivation of ring A sends x_i to 0 and y_i to
f_i(x_i) and is extended by linearity and the Leibniz rule.

`apply_delta` returns the true image over Fraction.  The hot paths work
over the integers instead: `ProblemInstance.integer_f` holds L = the lcm
of the f-coefficient denominators and the rows L*f_i as ints.
`is_constant_int` takes the int term map D*g that `poly.parse_poly_int`
returns for a text, D clearing g's denominators, and tests L*D*delta(g) = 0
with ints, so `constalg check` builds no Fraction; `is_constant` runs the
same test on a Fraction polynomial.  `kernel_dim_oracle` builds L*delta's
matrix.

All of them run `delta_terms` on packed ring-A monomials (see `poly`): it
reads b_i with one shift, lowers y_i by subtracting its unit and reaches
each term of f_i(x_i) by adding the packed x_i^p.  `check_field_room`
refuses, with BudgetExceededError, an input from which delta, the
generator images or the peel could build an exponent wider than a field.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import ceil, lcm
from operator import mul

from .errors import BudgetExceededError, InstanceError, RingMismatchError
from .poly import (
    FIELD_MAX,
    MAX_EXPONENT,
    Polynomial,
    Ring,
    field_shift,
    int_terms,
    pack_terms,
    ring_a,
    ring_p,
    univariate,
    unpack_terms,
)

# Largest supported d.  A P-monomial stores d(d+1)/2 exponents, so the work
# per monomial grows quadratically in d; beyond this bound it is impractical.
MAX_D = 64


def _coefficient(value) -> Fraction:
    """An f-coefficient given as an int, a Fraction or a rational string such as '3/2'."""
    if isinstance(value, bool):
        raise InstanceError(f"coefficient {value!r} is not an exact rational")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceError(f"bad rational literal {value!r}") from exc
    raise InstanceError(
        f"coefficient {value!r} must be an integer or a rational string like '3/2'"
    )


class ProblemInstance(namedtuple("ProblemInstance", "d f")):
    """d plus the coefficient vectors of f_1..f_d (ascending degree, trimmed).

    Every f_i must be nonconstant: zero or constant f_i make the algebra
    of constants degenerate and are rejected at construction.  The derived
    values `m`, `lc` and `integer_f` are computed on first use and kept in
    the instance's `__dict__`; no attribute can be set.
    """

    def __setattr__(self, name, value):
        raise AttributeError("ProblemInstance is immutable")

    @cached_property
    def m(self) -> tuple[int, ...]:
        """Degrees m_i = deg f_i."""
        return tuple(len(fi) - 1 for fi in self.f)

    @cached_property
    def lc(self) -> tuple[Fraction, ...]:
        """Leading coefficients of the f_i."""
        return tuple(fi[-1] for fi in self.f)

    @cached_property
    def integer_f(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(L, rows): L the lcm of all coefficient denominators, rows[i] = L*f_(i+1) as ints."""
        scale = lcm(*[c.denominator for fi in self.f for c in fi])
        rows = tuple(tuple(c.numerator * (scale // c.denominator) for c in fi) for fi in self.f)
        return scale, rows

    @property
    def ring_a(self) -> Ring:
        return ring_a(self.d)

    @property
    def ring_p(self) -> Ring:
        return ring_p(self.d)

    @staticmethod
    def from_coeffs(d, coeff_lists) -> "ProblemInstance":
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise InstanceError(f"d must be a positive integer, got {d!r}")
        if d > MAX_D:
            raise InstanceError(f"d = {d} exceeds the supported maximum of {MAX_D}")
        coeff_lists = list(coeff_lists)
        if len(coeff_lists) != d:
            raise InstanceError(
                f"expected {d} coefficient vectors, got {len(coeff_lists)}"
            )
        rows = []
        for i, raw in enumerate(coeff_lists, start=1):
            if not isinstance(raw, (list, tuple)):
                raise InstanceError(f"coefficients of f_{i} must be a list or tuple, got {raw!r}")
            coeffs = [_coefficient(c) for c in raw]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            if not coeffs:
                raise InstanceError(f"f_{i} is the zero polynomial")
            if len(coeffs) == 1:
                raise InstanceError(f"f_{i} is constant; every f_i must have degree >= 1")
            rows.append(tuple(coeffs))
        return ProblemInstance(d, tuple(rows))

    @staticmethod
    def from_json_dict(data) -> "ProblemInstance":
        if not isinstance(data, dict):
            raise InstanceError("instance file must contain a JSON object")
        if "d" not in data or "f" not in data:
            raise InstanceError("instance file needs fields 'd' and 'f'")
        d = data["d"]
        if not isinstance(d, int) or isinstance(d, bool):
            raise InstanceError(f"field 'd' must be an integer, got {d!r}")
        f = data["f"]
        if not isinstance(f, list):
            raise InstanceError("field 'f' must be a list of coefficient lists")
        return ProblemInstance.from_coeffs(d, f)

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "f": [[str(c) for c in fi] for fi in self.f],
        }


def load_instance(path) -> ProblemInstance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InstanceError(f"cannot read instance file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, overlong or deep
        raise InstanceError(f"cannot parse instance file: {exc}") from exc
    return ProblemInstance.from_json_dict(data)


def delta_plan(rows) -> tuple:
    """What `delta_terms` needs of the coefficient rows of f_1..f_d, on packed monomials.

    `rows` is `inst.f` for delta itself or the integer rows of
    `ProblemInstance.integer_f` for L*delta.  Entry i-1 is (y_i's shift,
    y_i's unit, the (x_i^p, c) pairs of the nonzero coefficients c of f_i).
    """
    d = len(rows)
    plan = []
    for i, fi in enumerate(rows):
        x_shift, y_shift = field_shift(d, 2 * i), field_shift(d, 2 * i + 1)
        powers = tuple((p << x_shift, c) for p, c in enumerate(fi) if c)
        plan.append((y_shift, 1 << y_shift, powers))
    return tuple(plan)


def delta_terms(plan, terms) -> dict:
    """{packed monomial: coefficient} of delta applied to the (packed monomial, coefficient) pairs.

    delta(c * x^a y^b) = sum_i c * b_i * x^a y^(b - e_i) * f_i(x_i), with
    `plan` from `delta_plan`.  The map may hold zeros; the caller keeps the
    fields within FIELD_MAX (`check_field_room`).
    """
    sums: dict = {}
    get = sums.get
    for mono, coeff in terms:
        for y_shift, y_unit, powers in plan:
            b = mono >> y_shift & FIELD_MAX
            if b:
                base = mono - y_unit
                factor = coeff * b
                for power, c in powers:
                    target = base + power
                    sums[target] = get(target, 0) + factor * c
    return sums


def check_field_room(inst: ProblemInstance, weight) -> None:
    """Raise BudgetExceededError if monomials of this weight could overflow a packed field.

    Weight x_i by 1/m_i and y_i by 1.  delta trades a y_i for at most
    x_i^m_i, every term of a generator u_jk weighs at most 2, which its
    A-lex lead x_j^m_j*y_k weighs, and the peel subtracts images no heavier
    than their leads.  So from monomials of weight at most `weight` none
    of them builds an exponent x_i above m_i*weight or y_i above weight.
    """
    top = max(inst.m) * weight
    if top > FIELD_MAX:
        raise BudgetExceededError(
            f"exponents could grow to {ceil(top)}, more than a monomial field holds ({FIELD_MAX})"
        )


def _check_terms_room(inst: ProblemInstance, terms) -> None:
    """`check_field_room` for the heaviest of the packed monomials `terms`.

    Each exponent of `terms` is at most MAX_EXPONENT, so they weigh at
    most 2*d*MAX_EXPONENT, which settles most instances without unpacking
    a monomial.
    """
    if max(inst.m) * 2 * inst.d * MAX_EXPONENT > FIELD_MAX:
        common = lcm(*inst.m)  # weights in units of 1/common, in slot order x1, y1, ...
        units = [unit for m in inst.m for unit in (common // m, common)]
        monos = unpack_terms(terms, inst.d)
        heaviest = max((sum(map(mul, mono, units)) for mono in monos), default=0)
        check_field_room(inst, Fraction(heaviest, common))


def _check_ring(inst: ProblemInstance, g: Polynomial) -> None:
    if g.ring != inst.ring_a:
        raise RingMismatchError(f"polynomial over {g.ring} does not match d={inst.d}")


def apply_delta(inst: ProblemInstance, g: Polynomial) -> Polynomial:
    """Image of g under the derivation, over Fraction."""
    _check_ring(inst, g)
    terms = pack_terms(g.terms)
    _check_terms_room(inst, terms)
    sums = delta_terms(delta_plan(inst.f), terms.items())
    image = unpack_terms({m: c for m, c in sums.items() if c}, inst.d)
    return Polynomial._make(inst.ring_a, image)


def is_constant_int(inst: ProblemInstance, terms: dict) -> bool:
    """True iff the derivation annihilates the polynomial with int term map `terms`.

    `terms` is D*g for any positive D, keyed by packed monomials with every
    exponent at most MAX_EXPONENT, as `parse_poly_int` returns it:
    L*D*delta(g), accumulated from the integer rows, vanishes exactly when
    delta(g) does.  A g from which delta or the peel could build an
    exponent too large for a packed field raises BudgetExceededError, so
    `check` and `rewrite` accept the same inputs.
    """
    _check_terms_room(inst, terms)
    _, rows = inst.integer_f
    return not any(delta_terms(delta_plan(rows), terms.items()).values())


def is_constant(inst: ProblemInstance, g: Polynomial) -> bool:
    """True iff the derivation annihilates g; `is_constant_int` on g's int terms."""
    _check_ring(inst, g)
    return is_constant_int(inst, int_terms(g)[0])


def f_adic_expand(inst: ProblemInstance, i: int, g: Polynomial) -> list[Polynomial]:
    """Write g = sum_n q_n(x_i) * f_i(x_i)^n with every deg q_n < deg f_i.

    g must be a polynomial in x_i alone; the list [q_0, q_1, ...] is
    returned positionally, so inner quotients that happen to vanish stay
    in place.  Computed by long division: each pass divides the remaining
    coefficients by f_i in place, keeps the low m_i of them (the remainder)
    as the next layer and goes on with the quotient until it is zero.
    """
    if not (1 <= i <= inst.d):
        raise ValueError(f"index {i} out of range 1..{inst.d}")
    _check_ring(inst, g)
    x_pos = 2 * i - 2
    coeffs = [Fraction(0)] * (g.degree() + 1)
    for mono, coeff in g.terms.items():
        if any(e and t != x_pos for t, e in enumerate(mono)):
            raise ValueError(f"polynomial must be univariate in x{i}, got term {mono!r}")
        coeffs[mono[x_pos]] = coeff
    fi = inst.f[i - 1]
    m = len(fi) - 1
    layers = []
    while True:
        for top in range(len(coeffs) - 1, m - 1, -1):
            # coeffs[top] becomes the quotient's coefficient of x_i^(top - m)
            factor = coeffs[top] = coeffs[top] / fi[m]
            for t in range(m):
                coeffs[top - m + t] -= factor * fi[t]
        layers.append(univariate(inst.ring_a, i, enumerate(coeffs[:m])))
        coeffs = coeffs[m:]
        if not any(coeffs):
            return layers
