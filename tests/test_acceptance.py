"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every check is exact (rational arithmetic, no tolerances); the stated
runtime bounds are asserted as well.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import random
import time
from math import comb

from constalg import (
    CORRECTED,
    DillOrder,
    build_generators,
    build_relations,
    buchberger_complete,
    dill_key,
    f_adic_expand,
    independence_check,
    is_normal_word,
    kernel_dim_oracle,
    leading_term,
    parse_poly,
    pi_substitute,
    rewrite_constant,
    verify_groebner,
    verify_lead_conformance,
)
from constalg.cli import run
from constalg.poly import PMonomial, Polynomial
from helpers import (
    f_poly,
    instance_with_degrees,
    random_instance,
    random_pmonomial,
    random_ppoly_of_degree,
)

SWEEP_SEED = 20260809


def _report(number, name, ok, started):
    elapsed = time.monotonic() - started
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} [{elapsed:.2f}s]")
    assert ok


def sweep_instances():
    """d in {4,5,6}, five instances each, coefficients in [-5,5], m_i <= 4."""
    rng = random.Random(SWEEP_SEED)
    return [random_instance(rng, d, max_m=4, coeff_bound=5) for d in (4, 5, 6) for _ in range(5)]


def test_criterion_1_relation_vanishing():
    started = time.monotonic()
    ok = True
    for inst in sweep_instances():
        table = build_generators(inst)
        relations = build_relations(inst)
        assert len(relations) == comb(inst.d, 4) + comb(inst.d, 3)
        for rel in relations:
            if not pi_substitute(table, rel.poly).is_zero():
                ok = False
    assert time.monotonic() - started < 10.0
    _report(1, "relation vanishing", ok, started)


def test_criterion_2_lead_conformance():
    started = time.monotonic()
    violations = 0
    for inst in sweep_instances():
        entries = verify_lead_conformance(inst, build_relations(inst), CORRECTED)
        violations += sum(not e.ok for e in entries)
    _report(2, "lead conformance", violations == 0, started)


def test_criterion_3_groebner_verification():
    started = time.monotonic()
    from constalg import ProblemInstance

    classical_inst = ProblemInstance.from_coeffs(4, [[0, 1]] * 4)  # f_i = x_i
    assert classical_inst.m == (1, 1, 1, 1)
    cert4 = verify_groebner(classical_inst, CORRECTED)
    rng = random.Random(SWEEP_SEED + 3)
    inst5 = instance_with_degrees(rng, (2, 3, 1, 2, 4), dense=True)
    assert all(c != 0 for fi in inst5.f for c in fi)
    cert5 = verify_groebner(inst5, CORRECTED)
    ok = (
        cert4.verdict
        and cert5.verdict
        and all(p.normal_form_zero for p in cert4.pairs + cert5.pairs)
        and cert4.reduced
        and cert5.reduced
    )
    assert time.monotonic() - started < 120.0
    _report(3, "Groebner verification", ok, started)


def test_criterion_4_independent_completion():
    started = time.monotonic()
    rng = random.Random(SWEEP_SEED + 4)
    inst = random_instance(rng, 4, max_m=2)
    order = DillOrder(CORRECTED)
    basis = [rel.poly for rel in build_relations(inst)]
    completed = buchberger_complete(basis, order)
    before = {leading_term(g, order)[0] for g in basis}
    after = {leading_term(g, order)[0] for g in completed}
    ok = len(completed) == len(basis) and before == after
    assert time.monotonic() - started < 120.0
    _report(4, "independent completion", ok, started)


def test_criterion_5_basis_independence():
    started = time.monotonic()
    rng = random.Random(SWEEP_SEED + 5)
    inst = instance_with_degrees(rng, (1, 2, 2))
    result = independence_check(inst, 5)
    ok = result.ok and result.rank == result.word_count
    _report(5, "basis independence", ok, started)


def test_criterion_6_constructive_generation():
    started = time.monotonic()
    rng = random.Random(SWEEP_SEED + 6)
    inst = instance_with_degrees(rng, (1, 2, 2))
    table = build_generators(inst)
    kernel = kernel_dim_oracle(inst, 5)
    ok = len(kernel) > 0
    for g in kernel:
        h = rewrite_constant(inst, g)
        if pi_substitute(table, h) != g:
            ok = False
        if not all(is_normal_word(inst, mono) for mono in h.terms):
            ok = False
    assert time.monotonic() - started < 120.0
    _report(6, "constructive generation", ok, started)


def test_criterion_7_round_trip_random_constants():
    started = time.monotonic()
    rng = random.Random(SWEEP_SEED + 7)
    ok = True
    for trial in range(100):
        d = rng.choice((2, 3, 4, 5))
        inst = random_instance(rng, d, max_m=2, coeff_bound=3)
        table = build_generators(inst)
        p = random_ppoly_of_degree(rng, d, 3, terms=rng.randint(1, 4))
        g = pi_substitute(table, p)
        if g.is_zero():
            continue
        h = rewrite_constant(inst, g)
        if pi_substitute(table, h) != g:
            ok = False
    _report(7, "round trip on random constants", ok, started)


def test_criterion_8_order_admissibility():
    started = time.monotonic()
    rng = random.Random(SWEEP_SEED + 8)
    failures = 0
    one = PMonomial.one(4)
    for _ in range(10_000):
        a = random_pmonomial(rng, 4, max_x=2, max_u=2, max_factors=2)
        b = random_pmonomial(rng, 4, max_x=2, max_u=2, max_factors=2)
        c = random_pmonomial(rng, 4, max_x=2, max_u=2, max_factors=2)
        # the order compares keys; tuple order makes it antisymmetric
        ka, kb, kc = dill_key(a), dill_key(b), dill_key(c)
        # totality: keys tie only for identical monomials
        if (ka == kb) != (a == b):
            failures += 1
        # transitivity via the key embedding
        if ka >= kb and kb >= kc and not ka >= kc:
            failures += 1
        # multiplicativity
        kac, kbc = dill_key(a.mul(c)), dill_key(b.mul(c))
        if (kac > kbc, kac == kbc) != (ka > kb, ka == kb):
            failures += 1
        # unit minimality
        if a != one and not ka > dill_key(one):
            failures += 1
    _report(8, "order admissibility", failures == 0, started)


def test_criterion_9_f_adic_expansion():
    started = time.monotonic()
    rng = random.Random(SWEEP_SEED + 9)
    ok = True
    for _ in range(200):
        d = rng.randint(1, 3)
        i = rng.randint(1, d)
        inst = instance_with_degrees(
            rng, tuple(rng.randint(1, 5) for _ in range(d))
        )
        g = Polynomial.zero(inst.ring_a)
        for power in range(rng.randint(0, 12) + 1):
            coeff = rng.randint(-9, 9)
            if coeff:
                g = g + parse_poly(f"x{i}^{power}", "A", d) * coeff
        layers = f_adic_expand(inst, i, g)
        fpoly = f_poly(inst, i)
        total = Polynomial.zero(inst.ring_a)
        for n, q in enumerate(layers):
            if not q.degree() < inst.m[i - 1]:
                ok = False
            total = total + q * fpoly**n
        if total != g:
            ok = False
    _report(9, "f-adic expansion", ok, started)


def test_criterion_10_degenerate_input_handling(tmp_path, capsys):
    started = time.monotonic()
    ok = True
    for name, bad in (
        ("constant.json", {"d": 2, "f": [[3], [0, 1]]}),
        ("zero.json", {"d": 2, "f": [[0, 0], [0, 1]]}),
        ("empty.json", {"d": 3, "f": [[], [0, 1], [0, 1]]}),
    ):
        path = tmp_path / name
        path.write_text(json.dumps(bad))
        for command in (
            ["verify-gb", "--instance", str(path)],
            ["relations", "--instance", str(path)],
        ):
            if run(command) != 2:
                ok = False
            err = capsys.readouterr().err
            if not err.startswith("error:"):
                ok = False
    with capsys.disabled():
        print()
        _report(10, "degenerate input handling", ok, started)
