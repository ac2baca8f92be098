"""Seeded random generators and reference paths shared by the test modules."""

import heapq
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, gcd

from constalg import (
    AMonomial,
    NotAConstantError,
    PeelingError,
    PMonomial,
    Polynomial,
    ProblemInstance,
    Relation,
    RingMismatchError,
    apply_delta,
    parse_poly,
    ring_a,
    ring_p,
    u_pairs,
)
from constalg.derivation import delta_plan, delta_terms
from constalg.poly import leading_term, pack, univariate, unpack


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


# Rational leading coefficients for `instance_with_degrees`.
RATIONAL_LEADS = (Fraction(3, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(-4, 5), Fraction(7, 3))


def instance_with_degrees(rng, degrees, coeff_bound=5, dense=False, leads=None):
    """Instance whose f_i have exactly the given degrees; leads drawn from `leads` when given."""
    nonzero = [c for c in range(-coeff_bound, coeff_bound + 1) if c]
    coeff_lists = []
    for m in degrees:
        coeffs = [
            rng.choice(nonzero) if dense else rng.randint(-coeff_bound, coeff_bound)
            for _ in range(m)
        ]
        coeffs.append(rng.choice(leads or nonzero))
        coeff_lists.append(coeffs)
    return ProblemInstance.from_coeffs(len(degrees), coeff_lists)


def rational_instance(rng, d, max_m=3):
    """Instance whose f_i have random degrees 1..max_m and coefficients n/q, q in 2..5."""
    coeff_lists = []
    for _ in range(d):
        coeffs = [
            Fraction(rng.randint(-5, 5), rng.randint(2, 5)) for _ in range(rng.randint(1, max_m))
        ]
        coeffs.append(Fraction(rng.choice([-5, -3, -1, 1, 2, 4]), rng.randint(2, 5)))
        coeff_lists.append(coeffs)
    return ProblemInstance.from_coeffs(d, coeff_lists)


def a_exponents(key, d):
    """(xexp, yexp) of a packed monomial of ring A(d)."""
    exps = unpack(key, d)
    return exps[0::2], exps[1::2]


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
# scan for the first basis element whose lead divides, a pair loop that
# reduces every S-polynomial over Fraction, with no criterion, the product
# formula of the S-polynomial, and the all-pairs reducedness scan.


def reference_s_polynomial(g, h, order):
    """lcm/lm(g)*g/lc(g) - lcm/lm(h)*h/lc(h), multiplied out with `Polynomial.__mul__`."""
    lmg, lcg = leading_term(g, order)
    lmh, lch = leading_term(h, order)
    lcm = lmg.lcm(lmh)
    return Polynomial.from_term(g.ring, lcm.div(lmg), 1 / lcg) * g - Polynomial.from_term(
        h.ring, lcm.div(lmh), 1 / lch
    ) * h


def reference_reduced(basis, order):
    """No lead divides a monomial of another element: every lead against every term."""
    leads = [leading_term(g, order)[0] for g in basis]
    for gi, lead in enumerate(leads):
        for hi, h in enumerate(basis):
            if gi != hi and any(lead.divides(mono) for mono in h.terms):
                return False
    return True


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
    """{(left, right): normal form is zero} with every S-polynomial reduced.

    The S-polynomials come from `reference_s_polynomial`, so no code of the
    pair path is shared.
    """
    basis = [rel.poly for rel in relations]
    outcomes = {}
    for i, left in enumerate(relations):
        for right in relations[i + 1:]:
            spoly = reference_s_polynomial(left.poly, right.poly, order)
            outcomes[left.label, right.label] = reference_reduce(spoly, basis, order).is_zero()
    return outcomes


# -- reference relations ---------------------------------------------------------


def reference_relations(inst):
    """All R, then all S, by the product formula over ring P: u's parsed, f_i by `univariate`."""
    d, ring = inst.d, inst.ring_p

    def u(j, k):
        return parse_poly(f"u{j}_{k}", "P", d)

    def f(t):
        return univariate(ring, t, enumerate(inst.f[t - 1]))

    indices = range(1, d + 1)
    return [
        *(
            Relation("R", (i, j, k, l), u(i, j) * u(k, l) - u(i, k) * u(j, l) + u(i, l) * u(j, k))
            for i, j, k, l in combinations(indices, 4)
        ),
        *(
            Relation("S", (i, j, k), f(i) * u(j, k) - f(j) * u(i, k) + f(k) * u(i, j))
            for i, j, k in combinations(indices, 3)
        ),
    ]


# -- reference rewriting -------------------------------------------------------
#
# The peeling loop over Fraction that `rewrite_constant` replaced by its
# integer-scaled version.  It expands each word's image from its own Fraction
# generators f_j(x_j)*y_k - f_k(x_k)*y_j, tests constancy with `apply_delta`
# and recovers each word with the one-factor-per-step peel on exponent lists,
# so it shares neither the generator table, `is_constant` nor
# `recover_word_from_lead`.


def f_poly(inst, i):
    """f_i(x_i) as an element of ring A; i is 1-based."""
    return univariate(inst.ring_a, i, enumerate(inst.f[i - 1]))


def y_poly(ring, k):
    """The variable y_k of ring A."""
    yexp = [0] * ring.d
    yexp[k - 1] = 1
    return Polynomial.from_term(ring, AMonomial((0,) * ring.d, yexp), 1)


def reference_delta(inst, g):
    """delta(g) over Fraction, term by term: x^a y^b -> sum_i b_i * x^a y^(b - e_i) * f_i(x_i)."""
    ring = inst.ring_a
    image = Polynomial.zero(ring)
    for mono, coeff in g.terms.items():
        xexp, yexp = a_exponents(mono, inst.d)
        for i, b in enumerate(yexp, start=1):
            if b:
                lower_y = list(yexp)
                lower_y[i - 1] -= 1
                lowered = Polynomial.from_term(ring, AMonomial(xexp, lower_y), coeff * b)
                image = image + lowered * f_poly(inst, i)
    return image


def reference_image(inst, mono):
    """pi(mono) over Fraction, multiplied out from fresh Fraction generators."""
    ring = inst.ring_a
    pairs = u_pairs(inst.d)
    exps = [0] * (2 * inst.d)
    exps[0::2] = mono[len(pairs):]
    image = Polynomial.from_term(ring, pack(exps), 1)
    for (j, k), e in zip(pairs, mono):
        if e:
            u = f_poly(inst, j) * y_poly(ring, k) - f_poly(inst, k) * y_poly(ring, j)
            image = image * u**e
    return image


def reference_recover_word(inst, exps):
    """The normal word whose image lead has the exponents (a_1, b_1, ..., a_d, b_d).

    One factor per step: while some y-exponent is positive, take the
    smallest index k with y_k present, the largest i < k whose x-exponent
    reaches m_i, emit a factor u_ik and divide by x_i^m_i * y_k.
    """
    d = inst.d
    xexp = list(exps[0::2])
    yexp = list(exps[1::2])
    uexp = dict.fromkeys(u_pairs(d), 0)
    while any(yexp):
        k = next(t + 1 for t, e in enumerate(yexp) if e)
        candidates = [i for i in range(1, k) if xexp[i - 1] >= inst.m[i - 1]]
        if not candidates:
            raise PeelingError(f"no index i < {k} with x-exponent >= m_i")
        i = max(candidates)
        uexp[i, k] += 1
        xexp[i - 1] -= inst.m[i - 1]
        yexp[k - 1] -= 1
    return PMonomial(xexp, uexp.items())


def reference_rewrite(inst, g):
    """Express a constant as a linear combination of normal words, over Fraction."""
    if g.ring != inst.ring_a:
        raise RingMismatchError(f"polynomial over {g.ring} does not match d={inst.d}")
    if not apply_delta(inst, g).is_zero():
        raise NotAConstantError("polynomial is not a constant of the derivation")
    result: dict = {}
    work = dict(g.terms)
    # Lazy max-heap in A-lex order (negated keys); stale entries are skipped on pop.
    heap = [-m for m in work]
    heapq.heapify(heap)
    while work:
        mono = None
        while heap:
            mono = -heapq.heappop(heap)
            if mono in work:
                break
            mono = None
        if mono is None:
            raise AssertionError("heap exhausted before work emptied")
        word = reference_recover_word(inst, unpack(mono, inst.d))
        image = reference_image(inst, word)
        # mono is the A-lex lead of the image
        factor = work[mono] / image.terms[mono]
        result[word] = result.get(word, 0) + factor
        for im, ic in image.terms.items():
            new = work.get(im, 0) - factor * ic
            if new:
                if im not in work:
                    heapq.heappush(heap, -im)
                work[im] = new
            else:
                work.pop(im, None)
    return Polynomial(inst.ring_p, result)


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


def reference_echelon(rows, ncols):
    """`linalg._echelon` with eager content division, and its pivot pick by `min`.

    Each input row, and each row after its update, is divided by its
    content, so every active row stays primitive.  `_echelon` divides a
    row only when it becomes a pivot row; its pivots must equal these.
    """

    def reduce_content(row):
        content = gcd(*row.values())
        if content > 1:
            for col in row:
                row[col] //= content

    active, col_rows = {}, {}
    for rid, row in enumerate(rows):
        cleaned = {c: v for c, v in row.items() if v}
        if not cleaned:
            continue
        reduce_content(cleaned)
        active[rid] = cleaned
        for col in cleaned:
            col_rows.setdefault(col, set()).add(rid)
    pivots = []
    for col in range(ncols):
        holders = col_rows.pop(col, None)
        if not holders:
            continue
        pivot_rid = min(holders, key=lambda rid: (len(active[rid]), rid))
        holders.discard(pivot_rid)
        pivot_row = active.pop(pivot_rid)
        pivot_value = pivot_row[col]
        pivots.append((col, pivot_row))
        rest = [(pcol, pvalue) for pcol, pvalue in pivot_row.items() if pcol != col]
        for pcol, _ in rest:
            col_rows[pcol].discard(pivot_rid)
        for rid in holders:
            row = active[rid]
            entry = row.pop(col)
            common = gcd(pivot_value, entry)
            scale, entry = pivot_value // common, entry // common
            if scale != 1:
                for rcol in row:
                    row[rcol] *= scale
            for pcol, pvalue in rest:
                old = row.get(pcol)
                if old is None:
                    row[pcol] = -pvalue * entry
                    col_rows[pcol].add(rid)
                else:
                    new = old - pvalue * entry
                    if new:
                        row[pcol] = new
                    else:
                        del row[pcol]
                        col_rows[pcol].discard(rid)
            if row:
                reduce_content(row)
            else:
                del active[rid]
    return pivots


def reference_slice_columns(d, max_degree):
    """Every packed ring-A(d) monomial of degree <= max_degree, in descending A-lex order.

    A monomial is a multiset of max_degree slots, slot 2d standing for no
    variable; the keys are packed and sorted.
    """
    slots = range(2 * d)
    return sorted(
        (
            pack([choice.count(slot) for slot in slots])
            for choice in combinations_with_replacement(range(2 * d + 1), max_degree)
        ),
        reverse=True,
    )


def reference_delta_matrix(inst, max_degree):
    """(columns, rows) of L*delta on a degree slice, one `delta_terms` call per column.

    The columns are `reference_slice_columns`; the rows follow their
    targets' first appearance as the columns are walked in order.
    """
    cols = reference_slice_columns(inst.d, max_degree)
    plan = delta_plan(inst.integer_f[1])
    rows = {}
    for cidx, mono in enumerate(cols):
        for target, value in delta_terms(plan, ((mono, 1),)).items():
            rows.setdefault(target, {})[cidx] = value
    return cols, list(rows.values())


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
