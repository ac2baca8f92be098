"""Normal words, the vector-space basis they induce, and constant rewriting.

A monomial of ring P is a normal word when (i) the open intervals of its
u-factors are pairwise nested or disjoint and (ii) every x-exponent at an
index strictly inside such an interval stays below m_i.  Their images
under pi form a vector-space basis of the algebra of constants; the image
leads are pairwise distinct, which makes the rewriting of an arbitrary
constant into the generators a deterministic peeling loop.  The loop,
`rewrite_constant_int`, takes the constant as ints over one denominator
(as `poly.parse_poly_int` reads it), peels with the integer images L^e *
pi(w) of `presentation.scaled_image` by fraction-free pseudo-division
(Geddes, Czapor and Labahn, Algorithms for Computer Algebra, 1992), builds
only its result over Fraction and stops after MAX_PEEL_STEPS words.  It
works on packed ring-A monomials (see `poly`), whose int order is the
A-lex order: its heap holds the negated keys, and `recover_word_from_lead`
reads the fields of each lead by shift.  `rewrite_constant` runs it on a
Fraction polynomial.

A normal word is its P-monomial: `enumerate_normal_words` and
`recover_word_from_lead` return PMonomials, and `lead_of_image` checks
normality itself.  `enumerate_normal_words` lists the words up to an
image-degree bound and serves listings and `independence_check`.
`count_normal_words` counts them per image degree with a recursion over
intervals and builds no word.

`kernel_dim_oracle` is the independent brute-force side: it computes the
nullspace of the derivation on a degree slice over the integers
(`linalg.nullspace`) without touching any of the normal-word machinery.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from fractions import Fraction
from math import comb, gcd
from operator import add

from . import linalg
from .derivation import (
    ProblemInstance,
    _check_ring,
    check_field_room,
    delta_plan,
    delta_terms,
    is_constant_int,
)
from .errors import (
    BudgetExceededError,
    NotAConstantError,
    PeelingError,
    RingMismatchError,
)
from .orders import CORRECTED, dill_key
from .poly import (
    FIELD_BITS,
    FIELD_MAX,
    PMonomial,
    Polynomial,
    _new,
    check_monomial,
    field_shifts,
    format_monomial,
    int_terms,
    leading_term,  # unused here; perfbench's tracer test expects this module to bind it
    pack,
    u_pairs,
    u_position,
)
from .presentation import _check_image_room, build_generators, scaled_image

# Most normal words one enumeration may emit; more raise BudgetExceededError.
MAX_NORMAL_WORDS = 250_000

# Most coefficient operations one count may spend (as `_count_work` estimates
# them before it starts); the largest accepted counts take a few seconds.
MAX_COUNT_WORK = 20_000_000

# Most words one rewrite may peel; more raise BudgetExceededError.
MAX_PEEL_STEPS = 1_000_000

# Most monomials (matrix columns) one kernel or independence check may take;
# more raise BudgetExceededError.
MAX_SLICE_MONOMIALS = 5000


def is_normal_word(inst: ProblemInstance, mono: PMonomial) -> bool:
    """Both normality conditions: nested-or-disjoint intervals, capped interior exponents."""
    if mono.d != inst.d:
        raise RingMismatchError(f"monomial has d={mono.d}, instance d={inst.d}")
    pairs = u_pairs(inst.d)
    x_offset = len(pairs) - 1
    intervals = [pair for pair, e in zip(pairs, mono) if e]
    if not all(_compatible(pair, intervals[:b]) for b, pair in enumerate(intervals)):
        return False
    for j, k in intervals:
        for i in range(j + 1, k):
            if mono[x_offset + i] >= inst.m[i - 1]:
                return False
    return True


def _u_degrees(inst: ProblemInstance) -> list[int]:
    """deg pi(u_jk) = max(m_j, m_k) + 1 for each pair, in u_pairs order.

    The two terms of u_jk carry different y's, so they cannot cancel.
    """
    m = inst.m
    return [max(m[j - 1], m[k - 1]) + 1 for j, k in u_pairs(inst.d)]


def image_degree(inst: ProblemInstance, mono: PMonomial) -> int:
    """Total degree of pi(mono), without expanding the image.

    Ring A is a domain, so degrees add: deg pi(mono) = |x| + sum_jk
    e_jk * deg pi(u_jk).
    """
    if mono.d != inst.d:
        raise RingMismatchError(f"monomial has d={mono.d}, instance d={inst.d}")
    gen_deg = _u_degrees(inst)
    return sum(mono[len(gen_deg):]) + sum(e * w for e, w in zip(mono, gen_deg))


def _compatible(pair, chosen) -> bool:
    """The interval of `pair` crosses none of the chosen intervals.

    Chosen pairs come before `pair` in u_pairs order (jc <= j), so only a
    chosen interval that opens first and closes inside can cross it.
    """
    j, k = pair
    return not any(jc < j < kc < k for jc, kc in chosen)


def enumerate_normal_words(
    inst: ProblemInstance,
    max_image_degree: int,
    variant: str = CORRECTED,
) -> list[PMonomial]:
    """All normal words whose image degree is at most the bound, DILL-sorted.

    The recursion only builds normal words (each u-factor is nested in or
    disjoint from the chosen ones, interior x-exponents stay below m_i) and
    spends the degree budget exactly as `image_degree` counts it, so every
    word it reaches is emitted without a further check.  More than
    MAX_NORMAL_WORDS words raise BudgetExceededError.
    """
    if max_image_degree < 0:
        raise ValueError("degree bound must be nonnegative")
    pairs = u_pairs(inst.d)
    d, m = inst.d, inst.m
    gen_deg = _u_degrees(inst)
    uexp = [0] * len(pairs)
    chosen: list[tuple[int, int]] = []
    words: list[PMonomial] = []

    def x_parts(budget: int):
        prefix = tuple(uexp)
        caps = [budget] * d
        for j, k in chosen:
            for i in range(j, k - 1):  # x_(j+1) .. x_(k-1), zero-based
                caps[i] = min(caps[i], m[i] - 1)

        def fill(idx: int, remaining: int, acc: list):
            if idx == d:
                words.append(_new(PMonomial, prefix + tuple(acc)))
                if len(words) > MAX_NORMAL_WORDS:
                    raise BudgetExceededError(
                        f"more than {MAX_NORMAL_WORDS} normal words up to image degree "
                        f"{max_image_degree}"
                    )
                return
            for e in range(min(remaining, caps[idx]) + 1):
                acc.append(e)
                fill(idx + 1, remaining - e, acc)
                acc.pop()

        fill(0, budget, [])

    def pick(idx: int, used: int):
        if idx == len(pairs):
            x_parts(max_image_degree - used)
            return
        pick(idx + 1, used)
        pair = pairs[idx]
        if not _compatible(pair, chosen):
            return
        chosen.append(pair)
        weight = gen_deg[idx]
        e = 1
        while used + e * weight <= max_image_degree:
            uexp[idx] = e
            pick(idx + 1, used + e * weight)
            e += 1
        uexp[idx] = 0
        chosen.pop()

    pick(0, 0)
    words.sort(key=lambda word: dill_key(word, variant))
    return words


# -- counting -------------------------------------------------------------------
#
# Degree series are lists c[0..D] of coefficients, truncated at degree D.


def _times_x(series: list, cap) -> list:
    """series * (1 + t + ... + t^cap); cap None multiplies by 1/(1 - t)."""
    out, run = [], 0
    for i, c in enumerate(series):
        run += c
        if cap is not None and i > cap:
            run -= series[i - cap - 1]
        out.append(run)
    return out


def _times_u(series: list, weight: int) -> list:
    """series * (t^w + t^2w + ...): a u-factor of degree w, exponent at least 1."""
    out = [0] * len(series)
    for i in range(weight, len(series)):
        out[i] = series[i - weight] + out[i - weight]
    return out


def _add_product(acc: list, a: list, b: list) -> None:
    """acc += a * b, truncated to len(acc)."""
    for i, ai in enumerate(a):
        if ai:
            acc[i:] = map(add, acc[i:], map(ai.__mul__, b))


def _count_work(d: int, max_image_degree: int) -> int:
    """Bound on the coefficient operations of `count_normal_words`.

    C(d+2, 3) = C(d+1, 3) + C(d+1, 2): the first term counts the truncated
    series products of C(D+2, 2) operations each; once D >= 8 the second
    covers the about 5*C(d+1, 2) linear passes of D+1 operations each.
    """
    return comb(d + 2, 3) * comb(max_image_degree + 2, 2)


def count_normal_words(inst: ProblemInstance, max_image_degree: int) -> list[int]:
    """Number of normal words of each image degree 0..D, without listing them.

    A normal word's intervals are nested or disjoint, so the maximal ones
    split the points 1..d into runs: left to right, a point is either
    uncovered or opens the one maximal interval (p, k) that starts there.
    That interval contributes u_pk^e (e >= 1, degree e*(max(m_p, m_k) + 1))
    times every configuration strictly inside it, where each interior
    x-exponent is capped at m_i - 1; an uncovered point's x-exponent is free.
    closed[p, k] holds the series of u_pk^e times its interior; tail[p] holds
    the configurations from point p to the end of the enclosing interval,
    x_p included, and is shared by every interval that ends there.
    A bound above MAX_COUNT_WORK coefficient operations raises
    BudgetExceededError before any work starts.
    """
    if max_image_degree < 0:
        raise ValueError("degree bound must be nonnegative")
    d, m = inst.d, inst.m
    work = _count_work(d, max_image_degree)
    if work > MAX_COUNT_WORK:
        raise BudgetExceededError(
            f"counting normal words up to image degree {max_image_degree} at d={d} "
            f"needs {work} coefficient operations, more than {MAX_COUNT_WORK}"
        )
    one = [1] + [0] * max_image_degree
    closed: dict[tuple[int, int], list[int]] = {}
    for b in range(2, d + 1):
        tail = {b: one}
        for p in range(b - 1, 0, -1):
            inner = list(tail[p + 1])
            for k in range(p + 1, b):
                _add_product(inner, closed[p, k], tail[k])
            closed[p, b] = _times_u(inner, max(m[p - 1], m[b - 1]) + 1)
            tail[p] = _times_x(list(map(add, inner, closed[p, b])), m[p - 1] - 1)
    tail = {d + 1: one}
    for p in range(d, 0, -1):
        free = list(tail[p + 1])
        for k in range(p + 1, d + 1):
            _add_product(free, closed[p, k], tail[k])
        tail[p] = _times_x(free, None)
    return tail[1]


def lead_of_image(inst: ProblemInstance, mono: PMonomial) -> tuple[int, Fraction]:
    """Lead of pi(mono) under the A-lex order, without expanding the image.

    The lead is the packed key of x^a * prod_b x_jb^m_jb * y_kb, with
    coefficient prod_b lc_jb.
    A monomial of another d raises RingMismatchError, one that is not a
    normal word ValueError, and a word whose image could overflow a packed
    field BudgetExceededError, as in `pi_substitute`.
    """
    if not is_normal_word(inst, mono):
        raise ValueError(f"{mono!r} is not a normal word")
    _check_image_room(inst, mono)
    pairs = u_pairs(inst.d)
    exps = [0] * (2 * inst.d)
    exps[0::2] = mono[len(pairs):]
    coeff = Fraction(1)
    for (j, k), e in zip(pairs, mono):
        if e:
            exps[2 * j - 2] += e * inst.m[j - 1]
            exps[2 * k - 1] += e
            coeff *= inst.lc[j - 1] ** e
    return pack(exps), coeff


def recover_word_from_lead(inst: ProblemInstance, lead: int) -> PMonomial:
    """The unique normal word whose image lead is the packed monomial `lead`.

    Peeling loop, over k = 1..d: while y_k has exponent b > 0, take the
    largest i < k whose x-exponent a_i reaches m_i, emit
    t = min(b, a_i // m_i) factors u_ik and divide by (x_i^m_i * y_k)^t.
    Peeling y_k changes no x_i with i >= k, so x_k is read only once y_k's
    turn ends.  Failure to find such an i means the monomial is not the
    lead of any normal image.  A key with a field outside ring A(d) raises
    RingMismatchError.
    """
    d, m = inst.d, inst.m
    check_monomial(lead, inst.ring_a)
    xexp: list[int] = []
    uexp = [0] * (d * (d - 1) // 2)
    for k, (x_shift, y_shift) in enumerate(field_shifts(d)):  # k zero-based
        b = lead >> y_shift & FIELD_MAX
        i = k - 1
        while b:
            while i >= 0 and xexp[i] < m[i]:
                i -= 1
            if i < 0:
                raise PeelingError(
                    f"no index i < {k + 1} with x-exponent >= m_i while peeling "
                    f"{format_monomial(lead, d)}; it is not the lead of a normal image"
                )
            t = min(b, xexp[i] // m[i])
            uexp[u_position(d, i + 1, k + 1)] = t
            xexp[i] -= t * m[i]
            b -= t
        xexp.append(lead >> x_shift & FIELD_MAX)
    return _new(PMonomial, uexp + xexp)


def rewrite_constant_int(inst: ProblemInstance, terms: dict, den: int) -> Polynomial:
    """Express the constant g = terms/den as a linear combination of normal words.

    `terms` maps packed A-monomials to ints, as `parse_poly_int` returns
    them.  Returns h over ring P with pi(h) = g and every monomial of h normal.
    Each step peels the A-lex lead with the word w whose image it leads, by
    fraction-free pseudo-division.  With c the lead coefficient of the
    work, a that of the integer image L^e*pi(w) (`scaled_image`) and
    k = gcd(c, a) signed like a, the work becomes (a/k)*work -
    (c/k)*L^e*pi(w), den becomes (a/k)*den and w's coefficient in h is
    (c/k)*L^e/den, so g = work/den + pi(h) throughout; when a/k = 1 the
    work is not rescaled.  Leads strictly decrease, so each word is peeled
    at most once, and only h is built over Fraction.  Peeling must succeed
    on every step; a failure on a genuine constant would be an internal
    inconsistency and is fatal.  More than MAX_PEEL_STEPS steps raise
    BudgetExceededError.
    """
    if not is_constant_int(inst, terms):
        raise NotAConstantError("polynomial is not a constant of the derivation")
    table = build_generators(inst)
    coeffs: dict = {}  # word -> (numerator, denominator) of its coefficient in h
    work = dict(terms)
    # Lazy max-heap in A-lex order (negated packed keys); stale entries are skipped on pop.
    heap = [-m for m in work]
    heapq.heapify(heap)
    pop, push, get = heapq.heappop, heapq.heappush, work.get
    steps = 0
    while work:
        steps += 1
        if steps > MAX_PEEL_STEPS:
            raise BudgetExceededError(f"rewriting needs more than {MAX_PEEL_STEPS} peel steps")
        mono = -pop(heap)
        while mono not in work:  # stale; each key of work was pushed, so the heap never runs dry
            mono = -pop(heap)
        word = recover_word_from_lead(inst, mono)
        image, scale = scaled_image(table, word)
        # mono is the A-lex lead of the image
        lead = image[mono]
        common = gcd(work[mono], lead)
        if lead < 0:
            common = -common
        quotient, multiplier = work[mono] // common, lead // common
        if multiplier != 1:
            den *= multiplier
            for m in work:
                work[m] *= multiplier
        coeffs[word] = quotient * scale, den
        for im, ic in image.items():
            sub = quotient * ic
            old = get(im)
            if old is None:
                push(heap, -im)
                work[im] = -sub
            elif old == sub:
                del work[im]
            else:
                work[im] = old - sub
    return Polynomial._make(inst.ring_p, {w: Fraction(*c) for w, c in coeffs.items()})


def rewrite_constant(inst: ProblemInstance, g: Polynomial) -> Polynomial:
    """Express the constant g, a polynomial of ring A, as a linear combination of normal words.

    Returns h over ring P with pi(h) = g and every monomial of h normal,
    computed by `rewrite_constant_int` on g's int terms over their least
    common denominator.  A g over another ring raises RingMismatchError, a
    non-constant NotAConstantError.
    """
    _check_ring(inst, g)
    return rewrite_constant_int(inst, *int_terms(g))


# -- brute-force oracle ---------------------------------------------------------


def _monomials_up_to_degree(d: int, bound: int) -> list[int]:
    """All packed ring-A monomials of total degree <= bound, in descending A-lex order."""
    # tails[r]: the keys of degree <= r over the slots added so far, descending;
    # the slots are added from yd (shift 0) back to x1, the most significant.
    tails = [[0]] * (bound + 1)
    for shift in range(0, 2 * d * FIELD_BITS, FIELD_BITS):
        tails = [
            [e << shift | t for e in range(r, -1, -1) for t in tails[r - e]]
            for r in range(bound + 1)
        ]
    return tails[bound]


def _delta_matrix(inst: ProblemInstance, max_degree: int) -> tuple[list[int], list[dict]]:
    """(columns, rows) of L*delta on the slice of degree <= max_degree.

    The columns are the slice's packed monomials in descending A-lex
    order; each row is {column index: int} for one target monomial, the
    rows in the order their targets first appear.  delta vanishes on
    K[x_1, ..., x_d], so delta(x^a*y^b) = x^a*delta(y^b): `delta_terms`
    runs once per y-monomial y^b, and column x^a*y^b takes those targets
    shifted by x^a's packed key (fields do not carry, `check_field_room`).
    """
    cols = _monomials_up_to_degree(inst.d, max_degree)
    y_fields = sum(FIELD_MAX << y_shift for _, y_shift in field_shifts(inst.d))
    plan = delta_plan(inst.integer_f[1])  # L*delta has the kernel of delta
    images: dict[int, list] = {}  # y^b -> the (target, value) terms of L*delta(y^b)
    rows: dict[int, dict[int, int]] = {}  # target monomial -> row
    setdefault = rows.setdefault
    for cidx, mono in enumerate(cols):
        y_part = mono & y_fields
        terms = images.get(y_part)
        if terms is None:
            terms = images[y_part] = list(delta_terms(plan, ((y_part, 1),)).items())
        x_part = mono - y_part
        for target, value in terms:
            setdefault(target + x_part, {})[cidx] = value
    return cols, list(rows.values())


def kernel_dim_oracle(inst: ProblemInstance, max_degree: int) -> list[Polynomial]:
    """Exact basis of the constants of degree <= max_degree; its length is the dimension.

    Brute force: the derivation is a linear map from the degree slice into
    a higher slice; its nullspace is computed by fraction-free elimination.
    Completely independent of the relation/normal-word machinery.  The
    matrix comes from `_delta_matrix`, which applies delta once per
    y-monomial, as delta(x^a*y^b) = x^a*delta(y^b).  The columns are the
    slice's packed monomials in descending A-lex order; that order fixes
    the pivot columns and so the basis.  Each element has coprime integer
    coefficients and a positive A-lex-leading coefficient; the elements
    are sorted by lead, largest first (leads may repeat).
    """
    if max_degree < 0:
        raise ValueError("degree bound must be nonnegative")
    ncols = comb(max_degree + 2 * inst.d, 2 * inst.d)  # ring-A monomials of degree <= bound
    if ncols > MAX_SLICE_MONOMIALS:
        raise BudgetExceededError(f"{ncols} monomials exceed the guard bound {MAX_SLICE_MONOMIALS}")
    check_field_room(inst, max_degree)  # a monomial of degree D weighs at most D
    cols, rows = _delta_matrix(inst, max_degree)
    basis = []
    # A vector's A-lex lead is its smallest column; make its coefficient positive.
    # Unchecked: the keys are slice monomials, which the guard and check_field_room bound.
    for vector in sorted(linalg.nullspace(rows, len(cols)), key=min):
        sign = 1 if vector[min(vector)] > 0 else -1
        terms = {cols[c]: Fraction(sign * v) for c, v in vector.items()}
        basis.append(Polynomial._make(inst.ring_a, terms))
    return basis


class IndependenceResult(
    namedtuple("IndependenceResult", "word_count rank leads_pairwise_distinct")
):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.rank == self.word_count and self.leads_pairwise_distinct


def independence_check(inst: ProblemInstance, max_degree: int) -> IndependenceResult:
    """Exact rank of the normal-word images on a degree slice.

    The images are independent iff the rank equals the word count; the
    image leads must also be pairwise distinct.
    """
    check_field_room(inst, max_degree)  # an image of degree D weighs at most D
    table = build_generators(inst)
    words = enumerate_normal_words(inst, max_degree)
    # Neither the rank nor the leads see the positive factor L^e of each integer image.
    images = [scaled_image(table, w)[0] for w in words]
    col_index: dict[int, int] = {}
    for image in images:
        for mono in image:
            if mono not in col_index:
                col_index[mono] = len(col_index)
    if len(col_index) > MAX_SLICE_MONOMIALS:
        raise BudgetExceededError(
            f"{len(col_index)} monomials exceed the guard bound {MAX_SLICE_MONOMIALS}"
        )
    rows = [
        {col_index[m]: c for m, c in image.items()} for image in images
    ]
    matrix_rank = linalg.rank(rows, len(col_index))
    leads = {max(image) for image in images}  # A-lex order is int order
    return IndependenceResult(len(words), matrix_rank, len(leads) == len(words))
