"""Ring arithmetic, parsing and printing."""

import random
from fractions import Fraction

import pytest

from constalg import (
    AMonomial,
    BudgetExceededError,
    DillOrder,
    LexOrder,
    ParseError,
    PMonomial,
    Polynomial,
    RingMismatchError,
    format_poly,
    leading_term,
    parse_poly,
    ring_a,
    ring_p,
    u_pairs,
    u_var,
)
from constalg.poly import (
    MAX_EXPONENT,
    _scan_poly_int,
    _split_poly_int,
    int_terms,
    parse_poly_int,
    univariate,
)
from helpers import a_exponents, random_apoly, random_ppoly


def test_add_cancellation():
    d = 2
    assert parse_poly("x1 + y1", "A", d) + parse_poly("-x1", "A", d) == parse_poly(
        "y1", "A", d
    )


def test_scalar_mul_and_division():
    p = parse_poly("x1*y2 - 3/2*x2", "A", 2)
    assert 2 * p == p * 2 == p.scale(2)
    assert p / 2 == p.scale(Fraction(1, 2)) == Fraction(1, 2) * p
    with pytest.raises(ZeroDivisionError):
        p / 0


def test_negation_truth_and_text():
    p = parse_poly("x1*y2 - 3/2*x2", "A", 2)
    assert -p == p * -1 and -(-p) == p
    assert p and not Polynomial.zero(ring_a(2))
    assert parse_poly(str(p), "A", 2) == p
    assert repr(p) == "Polynomial('x1*y2 - 3/2*x2', d=2)"
    with pytest.raises(TypeError):
        p + 1
    with pytest.raises(TypeError):
        p - 1


_P = parse_poly("x1*y2 - 3/2*x2", "A", 2)
_MONO = AMonomial((1, 0), (0, 1))


@pytest.mark.parametrize(
    "value", [0.5, 2.0, True, False], ids=["float", "whole-float", "true", "false"]
)
@pytest.mark.parametrize(
    "build",
    [
        lambda v: Polynomial(ring_a(2), {_MONO: v}),
        lambda v: Polynomial.constant(ring_a(2), v),
        lambda v: Polynomial.from_term(ring_a(2), _MONO, v),
        lambda v: _P.scale(v),
        lambda v: univariate(ring_a(2), 1, [(2, 1), (1, v)]),
        lambda v: _P * v,
        lambda v: v * _P,
        lambda v: _P / v,
    ],
    ids=["init", "constant", "from_term", "scale", "univariate", "mul", "rmul", "div"],
)
def test_floats_and_bools_are_no_coefficients(build, value):
    # a float is inexact and a bool no number, so neither reaches a Fraction;
    # the operators reject a float before they reach the check
    with pytest.raises(TypeError, match="is not an exact rational|unsupported operand"):
        build(value)


def test_exact_coefficients_still_convert():
    a2 = ring_a(2)
    half = Fraction(1, 2)
    assert Polynomial.constant(a2, "1/2") == Polynomial.constant(a2, half)
    assert Polynomial.from_term(a2, _MONO, "-3") == Polynomial(a2, {_MONO: -3})
    assert _P.scale("1/2") == _P / 2
    assert univariate(a2, 1, [(0, 0), (1, "1/2")]) == parse_poly("1/2*x1", "A", 2)


def test_add_identity():
    p = parse_poly("x1*y2 - 3*x2", "A", 2)
    assert p + Polynomial.zero(ring_a(2)) == p


def test_add_doubling():
    u = parse_poly("u1_2", "P", 2)
    assert u + u == parse_poly("2*u1_2", "P", 2)


def test_mul_basic():
    a2 = ring_a(2)
    x1 = univariate(a2, 1, ((1, 1),))
    y1 = Polynomial.from_term(a2, AMonomial((0, 0), (1, 0)), 1)
    assert x1 * y1 == parse_poly("x1*y1", "A", 2)


def test_mul_difference_of_squares():
    d = 2
    p = parse_poly("x1 - y1", "A", d)
    q = parse_poly("x1 + y1", "A", d)
    assert p * q == parse_poly("x1^2 - y1^2", "A", d)


def test_mul_absorbing_zero():
    p = random_apoly(random.Random(1), 3)
    assert (p * Polynomial.zero(ring_a(3))).is_zero()


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatchError):
        parse_poly("x1", "A", 2) + parse_poly("x1", "A", 3)
    with pytest.raises(RingMismatchError):
        parse_poly("x1", "A", 2) * parse_poly("x1", "P", 2)


def test_ring_is_an_immutable_value():
    ring = ring_a(2)
    assert ring == ring_a(2) and hash(ring) == hash(ring_a(2))
    assert ring != ring_p(2) and ring != ring_a(3)
    assert repr(ring) == "Ring(flavor='A', d=2)"
    with pytest.raises(AttributeError):
        ring.d = 3
    with pytest.raises(RingMismatchError) as excinfo:
        parse_poly("x1", "A", 2) + parse_poly("x1", "A", 3)
    assert "over Ring(flavor='A', d=2) and Ring(flavor='A', d=3)" in str(excinfo.value)


def test_ring_axioms_randomized():
    rng = random.Random(20260809)
    for _ in range(4000):
        d = rng.randint(1, 3)
        p = random_apoly(rng, d, terms=2, max_exp=2)
        q = random_apoly(rng, d, terms=2, max_exp=2)
        r = random_apoly(rng, d, terms=2, max_exp=2)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_no_zero_coefficients_observable():
    rng = random.Random(5)
    for _ in range(300):
        p = random_ppoly(rng, 3, terms=3)
        q = random_ppoly(rng, 3, terms=3)
        for poly in (p + q, p - q, p * q, p - p):
            assert all(c != 0 for c in poly.terms.values())


def test_leading_term_alex():
    p = parse_poly("x1^2 + y2", "A", 2)
    mono, coeff = leading_term(p, LexOrder())
    assert mono == AMonomial((2, 0), (0, 0))
    assert coeff == 1


def test_leading_term_dill_interval_length():
    p = parse_poly("u1_3*u2_4 - u1_2*u3_4", "P", 4)
    mono, coeff = leading_term(p, DillOrder())
    assert mono == PMonomial((0,) * 4, (((1, 3), 1), ((2, 4), 1)))
    assert coeff == 1


def test_leading_term_of_quadratic_relation():
    # r(1,2,3,4) leads with -u1_3*u2_4 under the corrected order
    r = parse_poly("u1_2*u3_4 - u1_3*u2_4 + u1_4*u2_3", "P", 4)
    mono, coeff = leading_term(r, DillOrder())
    assert mono == PMonomial((0,) * 4, (((1, 3), 1), ((2, 4), 1)))
    assert coeff == -1


def test_leading_term_zero_rejected():
    with pytest.raises(ValueError):
        leading_term(Polynomial.zero(ring_p(2)), DillOrder())


def test_lead_is_multiplicative():
    rng = random.Random(77)
    order = DillOrder()
    for _ in range(300):
        p = random_ppoly(rng, 4, terms=3)
        q = random_ppoly(rng, 4, terms=3)
        if p.is_zero() or q.is_zero():
            continue
        lp, cp = leading_term(p, order)
        lq, cq = leading_term(q, order)
        lpq, cpq = leading_term(p * q, order)
        assert lpq == lp.mul(lq)
        assert cpq == cp * cq
    alex = LexOrder()
    for _ in range(300):
        p = random_apoly(rng, 3, terms=3)
        q = random_apoly(rng, 3, terms=3)
        if p.is_zero() or q.is_zero():
            continue
        lp, cp = leading_term(p, alex)
        lq, cq = leading_term(q, alex)
        assert leading_term(p * q, alex) == (lp + lq, cp * cq)


def test_parse_examples():
    p = parse_poly("x1*y2 - x2^2*y1", "A", 2)
    assert p.terms == {
        AMonomial((1, 0), (0, 1)): Fraction(1),
        AMonomial((0, 2), (1, 0)): Fraction(-1),
    }
    q = parse_poly("3/2*u1_2^2", "P", 2)
    assert q.terms == {PMonomial((0, 0), (((1, 2), 2),)): Fraction(3, 2)}


def test_parse_rejects_descending_u_pair():
    with pytest.raises(ParseError):
        parse_poly("u2_1", "P", 2)


_NINES = "9" * 5000

# Rejected texts and the exact message of each, overlong numbers and texts
# that end inside a term included; recorded from the scanner before it read
# variable names through a table.
PARSE_ERRORS = [
    ("x3", "A", 2, "index of x3 out of range 1..2"),
    ("y1", "P", 2, "variable y is not valid in ring P"),
    ("u1_2", "A", 2, "variable u is not valid in ring A"),
    ("x1 y1", "A", 2, "expected '+', '-', '*' or the end of the text at offset 3, found 'y'"),
    ("", "A", 2, "empty polynomial expression"),
    ("2x1", "A", 2, "expected '+', '-', '*' or the end of the text at offset 1, found 'x'"),
    ("1/0", "A", 2, "zero denominator in coefficient '1/0'"),
    ("x1^", "A", 2, "expected a natural number after '^' at offset 3, found the end of the text"),
    ("x1 + + x2", "A", 2, "expected a coefficient or a variable at offset 5, found '+'"),
    ("u1_5", "P", 4, "u1_5 needs indices 1 <= j < k <= 4"),
    ("x0", "A", 2, "index of x0 out of range 1..2"),
    ("x1*", "A", 2, "expected a variable after '*' at offset 3, found the end of the text"),
    ("*x1", "A", 2, "expected a coefficient or a variable at offset 0, found '*'"),
    ("x1*2", "A", 2, "expected a variable after '*' at offset 3, found '2'"),
    ("2*3", "A", 2, "expected a variable after '*' at offset 2, found '3'"),
    ("1/2/3", "A", 2, "expected '+', '-', '*' or the end of the text at offset 3, found '/'"),
    ("1/", "A", 2, "expected a denominator after '/' at offset 2, found the end of the text"),
    ("x1^2^3", "A", 2, "expected '+', '-', '*' or the end of the text at offset 4, found '^'"),
    ("u1_2_3", "P", 3, "expected '+', '-', '*' or the end of the text at offset 4, found '_'"),
    ("x 1", "A", 2, "expected a coefficient or a variable at offset 0, found 'x'"),
    ("3 x1", "A", 2, "expected '+', '-', '*' or the end of the text at offset 2, found 'x'"),
    ("x1y1", "A", 2, "expected '+', '-', '*' or the end of the text at offset 2, found 'y'"),
    ("-", "A", 2, "expected a coefficient or a variable at offset 1, found the end of the text"),
    ("+-x1", "A", 2, "expected a coefficient or a variable at offset 1, found '-'"),
    ("   ", "A", 2, "empty polynomial expression"),
    ("u2_1", "P", 2, "u2_1 needs indices 1 <= j < k <= 2"),
    ("x" + _NINES, "A", 2, "number of 5000 digits at offset 1 is too long"),
    ("u1_" + _NINES, "P", 3, "number of 5000 digits at offset 3 is too long"),
    ("3/" + _NINES, "A", 2, "number of 5000 digits at offset 2 is too long"),
    (
        "x1*x1^",
        "A",
        2,
        "expected a natural number after '^' at offset 6, found the end of the text",
    ),
    ("2*", "A", 2, "expected a variable after '*' at offset 2, found the end of the text"),
    (
        "x1*y2 - 2/3*x2^ 2 * y1 * ",
        "A",
        2,
        "expected a variable after '*' at offset 25, found the end of the text",
    ),
]


def test_parse_rejects_bad_input():
    for text, flavor, d, message in PARSE_ERRORS:
        with pytest.raises(ParseError) as excinfo:
            parse_poly(text, flavor, d)
        assert str(excinfo.value) == message, text[:30]


def test_parse_accepts_irregular_spellings():
    a2 = ring_a(2)
    x1 = univariate(a2, 1, ((1, 1),))
    y1, y2 = (Polynomial.from_term(a2, AMonomial((0, 0), b), 1) for b in ((1, 0), (0, 1)))
    assert parse_poly("x01*y02", "A", 2) == x1 * y2
    assert parse_poly("x1^0002", "A", 2) == x1 * x1
    assert parse_poly("00/3*y1", "A", 2) == Polynomial.zero(a2)
    assert parse_poly("3/6*y1*y1", "A", 2) == y1 * y1 * Fraction(1, 2)
    assert parse_poly("0*x1 + x1^0", "A", 2) == Polynomial.constant(a2, 1)
    assert parse_poly("1/2*x1 - 1/2*x1", "A", 2) == Polynomial.zero(a2)
    x2 = univariate(ring_p(2), 2, ((1, 1),))
    assert parse_poly("u01_002 + x02", "P", 2) == u_var(ring_p(2), 1, 2) + x2


_SPACES =("", "", " ", "  ", "\t", "\n")


def _variables(mono, d):
    """(name, exponent) of every variable of the monomial of dimension d, exponent 0 included."""
    if isinstance(mono, int):
        return [
            (f"{letter}{i}", e)
            for i, (x, y) in enumerate(zip(*a_exponents(mono, d)), start=1)
            for letter, e in (("x", x), ("y", y))
        ]
    exps = dict(mono.upairs)
    names = [(f"u{j}_{k}", exps.get((j, k), 0)) for j, k in u_pairs(mono.d)]
    return names + [(f"x{i}", e) for i, e in enumerate(mono.xexp, start=1)]


def _render_term(rng, coeff, mono, first, d):
    """One term in the text grammar, written in one of its many equivalent ways."""
    sp = lambda: rng.choice(_SPACES)  # noqa: E731
    sign = "-" if coeff < 0 else "+"
    text = "" if first and sign == "+" and rng.random() < 0.5 else sign + sp()
    factors = []
    variables = _variables(mono, d)
    for name, e in variables:
        while e:  # split x^e into factors x^a * x^b * ...
            part = rng.randint(1, e)
            factors.append(name if part == 1 and rng.random() < 0.5 else f"{name}{sp()}^{sp()}{part}")
            e -= part
    if rng.random() < 0.3:
        factors.append(f"{rng.choice(variables)[0]}{sp()}^{sp()}0")
    rng.shuffle(factors)
    mag = abs(coeff)
    scale = rng.randint(1, 3)
    written = (
        str(mag.numerator)
        if mag.denominator == 1 and rng.random() < 0.5
        else f"{mag.numerator * scale}{sp()}/{sp()}{mag.denominator * scale}"
    )
    if mag == 1 and factors:
        written = rng.choice(["", "1", written])
    if written and factors:
        text += written + sp() + "*" + sp()
    elif written:
        text += written
    star = sp() + "*" + sp()
    return text + star.join(factors)


def _rendered_polynomials():
    """(text, flavor, d, expected terms) of 400 seeded texts, each spelled in one of many ways.

    The expected polynomials are built from monomials, never parsed.
    """
    rng = random.Random(83)
    for _ in range(400):
        flavor, d = rng.choice("AP"), rng.randint(1, 4)
        expected: dict = {}
        terms = []
        for _ in range(rng.randint(0, 5)):
            if flavor == "A":
                mono = AMonomial(
                    [rng.randint(0, 3) for _ in range(d)], [rng.randint(0, 3) for _ in range(d)]
                )
            else:
                pairs = rng.sample(u_pairs(d), rng.randint(0, len(u_pairs(d))))
                mono = PMonomial(
                    [rng.randint(0, 3) for _ in range(d)], [(p, rng.randint(1, 3)) for p in pairs]
                )
            coeff = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1, 1, 2, 5]))
            terms.append((coeff, mono))
            expected[mono] = expected.get(mono, 0) + coeff
            if rng.random() < 0.3:  # a term that the next one cancels
                terms += [(coeff, mono), (-coeff, mono)]
        if not terms:
            one = PMonomial.one(d) if flavor == "P" else AMonomial((0,) * d, (0,) * d)
            terms = [(Fraction(1), one)]
            expected = {terms[0][1]: Fraction(1)}
        rng.shuffle(terms)
        text = rng.choice(_SPACES) + " ".join(
            _render_term(rng, c, m, t == 0, d) for t, (c, m) in enumerate(terms)
        ) + rng.choice(_SPACES)
        yield text, flavor, d, expected


def test_parse_round_trip_of_rendered_polynomials():
    for text, flavor, d, expected in _rendered_polynomials():
        ring = ring_a(d) if flavor == "A" else ring_p(d)
        assert parse_poly(text, flavor, d) == Polynomial(ring, expected), text


def _reading(parse, text, flavor, d):
    """What `parse` returns, terms in order with their key types, or the error it raises."""
    try:
        terms, den = parse(text, flavor, d)
    except (ParseError, BudgetExceededError) as exc:
        return type(exc), str(exc)
    return [(type(m), m, c) for m, c in terms.items()], den


def _mutations(rng, text, count):
    """`count` seeded copies of text, each with one character deleted, inserted or replaced."""
    for _ in range(count):
        at = rng.randrange(len(text) + 1)
        char = rng.choice("+-*/^_ xyu0129\t")
        edit = rng.choice(("delete", "insert", "replace") if at < len(text) else ("insert",))
        if edit == "delete":
            yield text[:at] + text[at + 1 :]
        else:
            yield text[:at] + char + text[at + (edit == "replace") :]


def test_tokenizer_reads_as_the_step_scanner():
    rng = random.Random(97)
    rows = [(text, flavor, d) for text, flavor, d, _ in PARSE_ERRORS]
    rendered = [(text, flavor, d) for text, flavor, d, _ in _rendered_polynomials()]
    rows += rendered
    rows += [  # Unicode digits and whitespace, which \d, \s and int() all take
        ("x1^\u0663 + \u0662/\u0663*y2", "A", 2),
        ("x\u0661*y1", "A", 2),
        ("\u00a0x1\u2003*\u3000y2\u2028-\u205f3", "A", 2),
        ("\u2003- u1_2", "P", 3),
        ("\u00a0", "A", 2),
    ]
    rows += [
        (mutant, flavor, d)
        for text, flavor, d in rows
        for mutant in _mutations(rng, text, 3 if len(text) < 1000 else 1)
    ]
    read = 0
    for text, flavor, d in rows:
        expected = _reading(_scan_poly_int, text, flavor, d)
        assert _reading(parse_poly_int, text, flavor, d) == expected, text[:60]
        read += _split_poly_int(text, flavor, d) is not None
    # every rendered text takes the tokenizer, and so do many mutants
    assert all(_split_poly_int(*row) is not None for row in rendered)
    assert read > len(rendered) + 300


@pytest.mark.parametrize(
    "text, flavor, d, message",
    [
        ("*".join([f"y1^{MAX_EXPONENT}"] * 2049), "A", 2, "exponent 4297062399 of y1"),
        ("*".join([f"x1^{MAX_EXPONENT}"] * 2049), "A", 2, "exponent 4297062399 of x1"),
        ("*".join([f"x1^{MAX_EXPONENT}"] * 2048), "A", 2, "exponent 4294965248 of x1"),
        ("*".join([f"u1_2^{MAX_EXPONENT}"] * 2049), "P", 2, "exponent 4297062399 of u1_2"),
    ],
    ids=["y-2049", "x-2049", "x-2048", "p-2049"],
)
def test_factors_summed_past_a_field_raise_the_cap(text, flavor, d, message):
    # Summed per token without a guard on the factor count, 2,049 such
    # factors would carry into the next field, or above the top one.
    with pytest.raises(BudgetExceededError) as excinfo:
        parse_poly_int(text, flavor, d)
    assert str(excinfo.value) == f"{message} exceeds the cap of {MAX_EXPONENT}"


def test_many_factors_of_one_variable():
    terms, den = parse_poly_int("*".join(["x1"] * 2048), "A", 2)
    assert (terms, den) == ({AMonomial((2048, 0), (0, 0)): 1}, 1)


@pytest.mark.parametrize(
    "text, count",
    [
        ("x1 + x2 - y1 + 2", 4),
        ("  - x1 - x2 - y1 - 2/3", 4),
        ("x1*x2*y1*y2", 1),
        ("x1 + 2x2 - y1", 3),  # counted before any term is read
    ],
    ids=["unsigned-lead", "signed-lead", "one-term", "parse-error"],
)
def test_term_cap(monkeypatch, text, count):
    monkeypatch.setattr("constalg.poly.MAX_TERMS", count)
    assert _reading(parse_poly_int, text, "A", 2) == _reading(_scan_poly_int, text, "A", 2)
    monkeypatch.setattr("constalg.poly.MAX_TERMS", count - 1)
    with pytest.raises(BudgetExceededError) as excinfo:
        parse_poly_int(text, "A", 2)
    assert str(excinfo.value) == f"{count} terms exceed the cap of {count - 1}"


def test_integer_parse_over_its_denominator_is_parse_poly():
    rng = random.Random(89)
    for _ in range(300):
        flavor, d = rng.choice("AP"), rng.randint(1, 4)
        make = random_apoly if flavor == "A" else random_ppoly
        p = make(rng, d, terms=rng.randint(1, 5))
        if p.is_zero():
            continue
        terms = list(p.terms.items())
        text = " ".join(_render_term(rng, c, m, t == 0, d) for t, (m, c) in enumerate(terms))
        int_form, den = parse_poly_int(text, flavor, d)
        assert den >= 1 and all(type(c) is int and c for c in int_form.values())
        if flavor == "A":
            assert all(type(m) is int for m in int_form)
        divided = {m: Fraction(c, den) for m, c in int_form.items()}
        assert divided == parse_poly(text, flavor, d).terms == p.terms, text
    # den is the lcm of the denominators as written, reduced or not
    assert parse_poly_int("3/6*y1 + 1/4*x1 - 0/9", "A", 2)[1] == 36
    terms, den = int_terms(parse_poly("3/6*y1 + 1/4*x1", "A", 2))
    assert (sorted(terms.values()), den) == ([1, 2], 4)


def test_parse_accepts_whitespace_and_multidigit_indices():
    p = parse_poly("  2 * x10 ^ 2 - 1/3 ", "A", 12)
    assert p == univariate(ring_a(12), 10, ((2, 2), (0, Fraction(-1, 3))))


def test_format_parse_round_trip_randomized():
    rng = random.Random(11)
    for _ in range(250):
        p = random_apoly(rng, rng.randint(1, 4), terms=4)
        assert parse_poly(format_poly(p), "A", p.ring.d) == p
    for _ in range(250):
        q = random_ppoly(rng, rng.randint(2, 4), terms=4)
        assert parse_poly(format_poly(q), "P", q.ring.d) == q


def test_format_is_deterministic_and_readable():
    p = parse_poly("- x2^2*y1 + x1*y2", "A", 2)
    assert format_poly(p) == "x1*y2 - x2^2*y1"
    assert format_poly(Polynomial.zero(ring_a(2))) == "0"
    assert format_poly(Polynomial.constant(ring_p(3), Fraction(-3, 2))) == "-3/2"


def test_u_var_validation():
    with pytest.raises(ValueError):
        u_var(ring_p(3), 2, 2)
    with pytest.raises(ValueError):
        u_var(ring_a(3), 1, 2)


def test_pmonomial_divmul():
    a = PMonomial((1, 0, 2), (((1, 3), 2),))
    b = PMonomial((1, 0, 1), (((1, 3), 1),))
    assert b.divides(a)
    assert a.div(b).mul(b) == a
    assert not a.divides(b)
    assert a.lcm(b) == a


def repeated_product(factor, exponent, one):
    result = one
    for _ in range(exponent):
        result = result * factor
    return result


def test_parse_exponent_matches_repeated_multiplication():
    for text, flavor, d in [("x2", "A", 3), ("y3", "A", 3), ("x1", "P", 3), ("u1_3", "P", 3)]:
        base = parse_poly(text, flavor, d)
        one = Polynomial.constant(base.ring, 1)
        for exponent in range(6):
            powered = parse_poly(f"{text}^{exponent}", flavor, d)
            assert powered == repeated_product(base, exponent, one)
    mixed = parse_poly("2*x1^3*y2^0*y1^2", "A", 2)
    assert mixed == parse_poly("2*x1*x1*x1*y1*y1", "A", 2)


def test_pow_matches_repeated_multiplication():
    rng = random.Random(29)
    for _ in range(5):
        p = random_apoly(rng, 2, terms=3, max_exp=2)
        q = random_ppoly(rng, 3, terms=2)
        for base in (p, q):
            one = Polynomial.constant(base.ring, 1)
            for exponent in range(7):
                assert base**exponent == repeated_product(base, exponent, one)
    with pytest.raises(ValueError):
        p ** -1
