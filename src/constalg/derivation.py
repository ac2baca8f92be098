"""Problem instances and the derivation they induce.

An instance fixes d and nonconstant univariate polynomials f_1(x_1), ...,
f_d(x_d); the induced derivation of ring A sends x_i to 0 and y_i to
f_i(x_i) and is extended by linearity and the Leibniz rule.

`apply_delta` returns the true image over Fraction.  The hot paths work
over the integers instead: `ProblemInstance.integer_f` holds L = the lcm
of the f-coefficient denominators and the rows L*f_i as ints, so
`is_constant` tests L*D*delta(g) = 0 with ints, D clearing g's
denominators, and `kernel_dim_oracle` builds L*delta's matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import InstanceError, RingMismatchError
from .poly import AMonomial, Polynomial, Ring, ring_a, ring_p, univariate

# Largest supported d.  A P-monomial stores d(d+1)/2 exponents, so the work
# per monomial grows quadratically in d; beyond this bound it is impractical.
MAX_D = 64


def _coefficient_from_json(value) -> Fraction:
    if isinstance(value, bool):
        raise InstanceError(f"coefficient {value!r} is not an exact rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceError(f"bad rational literal {value!r}") from exc
    raise InstanceError(
        f"coefficient {value!r} must be an integer or a rational string like '3/2'"
    )


@dataclass(frozen=True)
class ProblemInstance:
    """d plus the coefficient vectors of f_1..f_d (ascending degree, trimmed).

    Every f_i must be nonconstant: zero or constant f_i make the algebra
    of constants degenerate and are rejected at construction.
    """

    d: int
    f: tuple[tuple[Fraction, ...], ...]

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
            coeffs = [Fraction(c) for c in raw]
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
        if not isinstance(f, list) or not all(isinstance(fi, list) for fi in f):
            raise InstanceError("field 'f' must be a list of coefficient lists")
        coeffs = [[_coefficient_from_json(c) for c in fi] for fi in f]
        return ProblemInstance.from_coeffs(d, coeffs)

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "f": [[str(c) for c in fi] for fi in self.f],
        }

    def f_polynomial(self, i: int) -> Polynomial:
        """f_i(x_i) as an element of ring A; i is 1-based."""
        if not (1 <= i <= self.d):
            raise ValueError(f"index {i} out of range 1..{self.d}")
        return univariate(self.ring_a, i, enumerate(self.f[i - 1]))


def load_instance(path) -> ProblemInstance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InstanceError(f"cannot read instance file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, overlong or deep
        raise InstanceError(f"cannot parse instance file: {exc}") from exc
    return ProblemInstance.from_json_dict(data)


def delta_terms(rows, mono: AMonomial, coeff=1):
    """The terms of delta(coeff * x^a y^b) = sum_i coeff * b_i * x^a y^(b - e_i) * f_i(x_i).

    `rows` holds the coefficient lists of f_1..f_d: `inst.f` for delta
    itself, or the integer rows of `ProblemInstance.integer_f` for L*delta.
    Terms of different i differ in y_i, terms of one i in x_i: no two
    yielded (monomial, coefficient) pairs share a monomial.
    """
    for i, fi in enumerate(rows):
        y_pos = 2 * i + 1
        bi = mono[y_pos]
        if not bi:
            continue
        factor = coeff * bi
        exps = list(mono)
        exps[y_pos] -= 1
        for power, fc in enumerate(fi):
            if fc:
                exps[y_pos - 1] = mono[y_pos - 1] + power
                yield AMonomial._of(exps), factor * fc


def _delta_sums(rows, terms) -> dict:
    """{monomial: coefficient} of the image of the (monomial, coefficient) pairs; may hold zeros."""
    sums: dict = {}
    for mono, coeff in terms:
        for target, value in delta_terms(rows, mono, coeff):
            sums[target] = sums.get(target, 0) + value
    return sums


def _check_ring(inst: ProblemInstance, g: Polynomial) -> None:
    if g.ring != inst.ring_a:
        raise RingMismatchError(f"polynomial over {g.ring} does not match d={inst.d}")


def apply_delta(inst: ProblemInstance, g: Polynomial) -> Polynomial:
    """Image of g under the derivation, over Fraction."""
    _check_ring(inst, g)
    sums = _delta_sums(inst.f, g.terms.items())
    return Polynomial._make(inst.ring_a, {m: c for m, c in sums.items() if c})


def is_constant(inst: ProblemInstance, g: Polynomial) -> bool:
    """True iff the derivation annihilates g.

    Decided over the integers: with D the lcm of g's denominators, D*g has
    int coefficients and L*D*delta(g), accumulated from the integer rows,
    vanishes exactly when delta(g) does.
    """
    _check_ring(inst, g)
    den = lcm(*[c.denominator for c in g.terms.values()])
    _, rows = inst.integer_f
    scaled = ((m, c.numerator * (den // c.denominator)) for m, c in g.terms.items())
    return not any(_delta_sums(rows, scaled).values())


def _univariate_coeffs(inst: ProblemInstance, i: int, g: Polynomial) -> list[Fraction]:
    """Coefficient list of g, which must involve no variable besides x_i."""
    coeffs: list[Fraction] = []
    x_pos = 2 * i - 2
    for mono, coeff in g.terms.items():
        if any(e and t != x_pos for t, e in enumerate(mono)):
            raise ValueError(
                f"polynomial must be univariate in x{i}, got term {mono!r}"
            )
        power = mono[x_pos]
        if power >= len(coeffs):
            coeffs.extend([Fraction(0)] * (power + 1 - len(coeffs)))
        coeffs[power] = coeff
    return coeffs


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    """Quotient and remainder of univariate coefficient lists (ascending)."""
    num = list(num)
    dm = len(den) - 1
    dlc = den[-1]
    quot = [Fraction(0)] * max(len(num) - dm, 0)
    while len(num) - 1 >= dm and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) - 1 < dm:
            break
        shift = len(num) - 1 - dm
        factor = num[-1] / dlc
        quot[shift] = factor
        for t, dc in enumerate(den):
            num[shift + t] -= factor * dc
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def f_adic_expand(inst: ProblemInstance, i: int, g: Polynomial) -> list[Polynomial]:
    """Write g = sum_n q_n(x_i) * f_i(x_i)^n with every deg q_n < deg f_i.

    g must be a polynomial in x_i alone; the list [q_0, q_1, ...] is
    returned positionally, so inner quotients that happen to vanish stay
    in place.  Computed by repeated Euclidean division by f_i.
    """
    if not (1 <= i <= inst.d):
        raise ValueError(f"index {i} out of range 1..{inst.d}")
    _check_ring(inst, g)
    remainder = _univariate_coeffs(inst, i, g)
    fi = list(inst.f[i - 1])
    layers: list[list[Fraction]] = []
    while any(remainder):
        quot, rem = _poly_divmod(remainder, fi)
        layers.append(rem)
        remainder = quot
    if not layers:
        layers.append([])
    return [univariate(inst.ring_a, i, enumerate(layer)) for layer in layers]
