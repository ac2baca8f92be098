"""Seeded random generators and reference paths shared by the test modules."""

from fractions import Fraction
from math import comb

from constalg import (
    AMonomial,
    PMonomial,
    Polynomial,
    ProblemInstance,
    ring_a,
    ring_p,
    s_polynomial,
    u_pairs,
)
from constalg.poly import leading_term


def random_instance(rng, d, max_m=4, coeff_bound=5, dense=False):
    """Instance with nonconstant f_i; coefficients in [-coeff_bound, coeff_bound]."""
    coeff_lists = []
    for _ in range(d):
        m = rng.randint(1, max_m)
        coeffs = []
        for _ in range(m):
            c = rng.randint(-coeff_bound, coeff_bound)
            if dense and c == 0:
                c = rng.choice([-1, 1])
            coeffs.append(c)
        lead = rng.choice([c for c in range(-coeff_bound, coeff_bound + 1) if c])
        coeffs.append(lead)
        coeff_lists.append(coeffs)
    return ProblemInstance.from_coeffs(d, coeff_lists)


def instance_with_degrees(rng, degrees, coeff_bound=5, dense=False):
    """Instance whose f_i have exactly the given degrees."""
    nonzero = [c for c in range(-coeff_bound, coeff_bound + 1) if c]
    coeff_lists = []
    for m in degrees:
        coeffs = [
            rng.choice(nonzero) if dense else rng.randint(-coeff_bound, coeff_bound)
            for _ in range(m)
        ]
        coeffs.append(rng.choice(nonzero))
        coeff_lists.append(coeffs)
    return ProblemInstance.from_coeffs(len(degrees), coeff_lists)


def random_amonomial(rng, d, max_exp=3):
    xexp = tuple(rng.randint(0, max_exp) for _ in range(d))
    yexp = tuple(rng.randint(0, max_exp) for _ in range(d))
    return AMonomial(xexp, yexp)


def random_pmonomial(rng, d, max_x=3, max_u=2, max_factors=3):
    xexp = tuple(rng.randint(0, max_x) for _ in range(d))
    pairs = u_pairs(d)
    chosen = rng.sample(pairs, k=min(len(pairs), rng.randint(0, max_factors)))
    udict = {pair: rng.randint(1, max_u) for pair in chosen}
    return PMonomial(xexp, tuple(udict.items()))


def random_coeff(rng):
    num = rng.randint(-6, 6)
    den = rng.choice([1, 1, 1, 2, 3])
    return Fraction(num, den)


def random_apoly(rng, d, terms=3, max_exp=3):
    data = {}
    for _ in range(terms):
        data[random_amonomial(rng, d, max_exp)] = random_coeff(rng)
    return Polynomial(ring_a(d), data)


def random_ppoly(rng, d, terms=3, max_x=3, max_u=2, max_factors=3):
    data = {}
    for _ in range(terms):
        data[random_pmonomial(rng, d, max_x, max_u, max_factors)] = random_coeff(rng)
    return Polynomial(ring_p(d), data)


def random_pmonomial_of_degree(rng, d, max_degree):
    """P-monomial with total internal degree at most max_degree."""
    pairs = u_pairs(d)
    xexp = [0] * d
    udict = {}
    for _ in range(rng.randint(0, max_degree)):
        if pairs and rng.random() < 0.5:
            pair = rng.choice(pairs)
            udict[pair] = udict.get(pair, 0) + 1
        else:
            xexp[rng.randrange(d)] += 1
    return PMonomial(tuple(xexp), tuple(udict.items()))


def random_ppoly_of_degree(rng, d, max_degree, terms):
    data = {}
    for _ in range(terms):
        data[random_pmonomial_of_degree(rng, d, max_degree)] = random_coeff(rng)
    return Polynomial(ring_p(d), data)


# -- reference Groebner path -------------------------------------------------
#
# The plain algorithms that `reduce` and `verify_groebner` speed up: a linear
# scan for the first basis element whose lead divides, and a pair loop that
# reduces every S-polynomial, with no criterion.


def reference_reduce(p, basis, order):
    """Normal form of p: the maximal reducible monomial first, first divisor wins."""
    lead_data = [leading_term(g, order) + (g,) for g in basis]
    work = dict(p.terms)
    remainder = {}
    while work:
        mono = max(work, key=order.key)
        coeff = work.pop(mono)
        for lm, lc, g in lead_data:
            if lm.divides(mono):
                quot = mono.div(lm)
                factor = coeff / lc
                for gm, gc in g.terms.items():
                    if gm == lm:
                        continue
                    target = gm.mul(quot)
                    new = work.get(target, 0) - factor * gc
                    if new:
                        work[target] = new
                    else:
                        work.pop(target, None)
                break
        else:
            remainder[mono] = coeff
    return Polynomial(p.ring, remainder)


def reference_pair_outcomes(relations, order):
    """{(left, right): normal form is zero} with every S-polynomial reduced."""
    labeled = relations.labeled()
    basis = [poly for _, poly in labeled]
    outcomes = {}
    for i, (left, g) in enumerate(labeled):
        for right, h in labeled[i + 1:]:
            spoly = s_polynomial(g, h, order)
            outcomes[left, right] = reference_reduce(spoly, basis, order).is_zero()
    return outcomes


# -- sparse reference monomials ----------------------------------------------
#
# The former monomial representation, kept as the reference for the dense
# exponent tuples: a P-monomial is (xexp, {(j, k): e}) and an A-monomial is
# (xexp, yexp).  Operations and order keys are computed the way they were
# computed on that representation.


def random_sparse_p(rng, d, max_x=3, max_u=2, max_factors=3):
    xexp = tuple(rng.randint(0, max_x) for _ in range(d))
    pairs = u_pairs(d)
    chosen = rng.sample(pairs, k=min(len(pairs), rng.randint(0, max_factors)))
    return xexp, {pair: rng.randint(1, max_u) for pair in chosen}


def sparse_of(mono):
    """(xexp, udict) of a PMonomial, read through its public properties."""
    return mono.xexp, dict(mono.upairs)


def sparse_p_mul(a, b):
    ud = dict(a[1])
    for pair, e in b[1].items():
        ud[pair] = ud.get(pair, 0) + e
    return tuple(x + y for x, y in zip(a[0], b[0])), ud


def sparse_p_div(a, b):
    ud = dict(a[1])
    for pair, e in b[1].items():
        ud[pair] = ud.get(pair, 0) - e
    return tuple(x - y for x, y in zip(a[0], b[0])), {p: e for p, e in ud.items() if e}


def sparse_p_lcm(a, b):
    ud = dict(a[1])
    for pair, e in b[1].items():
        ud[pair] = max(ud.get(pair, 0), e)
    return tuple(max(x, y) for x, y in zip(a[0], b[0])), ud


def sparse_p_divides(a, b):
    if any(x > y for x, y in zip(a[0], b[0])):
        return False
    return all(e <= b[1].get(pair, 0) for pair, e in a[1].items())


def sparse_dill_key(a, variant="corrected"):
    xexp, ud = a
    u_degree = sum(ud.values())
    interval_length = sum(e * (k - j) for (j, k), e in ud.items())
    x_degree = sum(xexp)
    if variant == "corrected":
        tie = tuple(ud.get(pair, 0) for pair in u_pairs(len(xexp))) + xexp
        return (u_degree, interval_length, x_degree, tie)
    xs = [i for i, e in enumerate(xexp, start=1) for _ in range(e)]
    js = [j for (j, k), e in sorted(ud.items()) for _ in range(e)]
    ks = [k for (j, k), e in sorted(ud.items()) for _ in range(e)]
    return (x_degree, u_degree, interval_length, tuple(xs + js + ks))


def sparse_alex_key(xexp, yexp):
    return tuple(e for pair in zip(xexp, yexp) for e in pair)


def sparse_format(xexp, second):
    """Text of a monomial: x's, then y's (a tuple) or u's (a dict)."""
    parts = [f"x{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(xexp, 1) if e]
    if isinstance(second, dict):
        for (j, k), e in sorted(second.items()):
            parts.append(f"u{j}_{k}" + (f"^{e}" if e > 1 else ""))
    else:
        parts += [f"y{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(second, 1) if e]
    return "*".join(parts) or "1"


# -- reference nullspace ------------------------------------------------------
#
# Dense Gauss-Jordan elimination over Fraction, sharing no code with `linalg`.
# The pivot columns of any echelon form built column by column are the
# columns outside the span of the columns before them, so its free columns,
# and the kernel vector with 1 at one free column and 0 at the others, are
# those of `linalg.nullspace`.


def reference_nullspace(rows, ncols):
    """Kernel basis of the matrix, one dense vector per free column, by Gauss-Jordan."""
    remaining = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    reduced: dict[int, list] = {}  # pivot column -> its row, 1 at the pivot
    for col in range(ncols):
        pick = next((i for i, row in enumerate(remaining) if row[col]), None)
        if pick is None:
            continue
        pivot_row = remaining.pop(pick)
        pivot_row = [v / pivot_row[col] for v in pivot_row]
        support = [c for c, v in enumerate(pivot_row) if v]
        for row in remaining + list(reduced.values()):
            factor = row[col]
            if factor:
                for c in support:
                    row[c] -= factor * pivot_row[c]
        reduced[col] = pivot_row
    zero, one = Fraction(0), Fraction(1)
    return [
        [one if c == fc else -reduced[c][fc] if c in reduced else zero for c in range(ncols)]
        for fc in range(ncols)
        if fc not in reduced
    ]


def densify(vectors, ncols):
    """Dense lists of Fractions from the sparse {column: value} vectors of `nullspace`."""
    zero = Fraction(0)
    return [[vec.get(c, zero) for c in range(ncols)] for vec in vectors]


# -- closed-form Hilbert function ---------------------------------------------


def nowicki_hilbert(d, n):
    """Dimension of the constants of degree n when every f_i = x_i.

    Then the derivation is the basic Weitzenboeck derivation and the
    constants are the highest-weight vectors of S(V_1^d), counted by the
    monomials with #x - #y in {0, 1} (Nowicki 1994; Cayley-Sylvester):
    the sum of C(a+d-1, d-1) * C(b+d-1, d-1) over a + b = n, a - b in {0, 1}.
    """
    return sum(
        comb(a + d - 1, d - 1) * comb(n - a + d - 1, d - 1)
        for a in range(n + 1)
        if a - (n - a) in (0, 1)
    )
