"""Seeded inputs, operation lists and expected outputs of the three workloads.

A workload is built by `build(name, seed, workdir)`: it writes the instance
files into `workdir` and returns a `Workload` holding the CLI operations of
one pass, what each operation must print, and a replay record.  The seed
chooses coefficients, request polynomials and their order; the degree
profiles of the f_i are fixed, so the amount of work, the S-pair counts and
the Hilbert-function values do not depend on the seed.  Coefficients are
written as exact strings ("3/2", "-4"), never as floats.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import NormalDist

WORKLOADS = ("gb-ladder", "hilbert-slices", "rewrite-stream")

_LOWER = ("-5", "-4", "-3", "-2", "-1", "1", "2", "3", "4", "5")
_LEADING = ("3/2", "2/3", "5/4", "4/5")

# gb-ladder: dense instances, f_i of degree 1..3 (profiles fixed, coefficients
# seeded).  The d = 6 instance also runs with --jobs 2.  d = 7 is left out:
# one verification takes 13-20 s on a 2-CPU machine, too long to repeat in a
# run, and a single sample is at the mercy of a few seconds of contention.
GB_PROFILES = {5: (3, 1, 2, 1, 2), 6: (2, 1, 3, 1, 2, 1)}
GB_JOBS_D = 6

# hilbert-slices: Nowicki instances (f_i = x_i) and one mixed-degree instance.
# Values recorded from the seed code; they depend only on the degree profile.
MIXED_PROFILE = (1, 3, 2, 2)
HILBERT_COUNTS = {
    ("nowicki", 3, 7): 377,
    ("nowicki", 4, 5): 361,
    ("mixed", 4, 5): 185,
    ("nowicki", 5, 7): 4531,
    ("nowicki", 9, 6): 37171,
}
KERNEL_POINTS = (("nowicki", 4, 5), ("mixed", 4, 5), ("nowicki", 3, 7))

# rewrite-stream: requests over two mixed-degree instances.  Term counts of
# g = pi(h) follow fixed log-normal quantiles (median 50 terms, the top 3%
# above ten times the median), so every seed gives the same size mix.
REWRITE_PROFILES = ((1, 2, 1, 2, 1), (1, 2, 1, 1, 2, 1))
REQUESTS = 120
NONCONSTANT_SHARE = 0.1
MEDIAN_TERMS = 50
TAIL_Z = NormalDist().inv_cdf(0.97)

# Self-check of the traced run: d = 4, f_i = x_i has 5 relations, 10 S-pairs.
SELFCHECK_PAIRS = 10
SELFCHECK_KERNEL = (3, 61)  # (max degree, dimension)
SELFCHECK_WORD = "u1_2*u3_4 + 5*x1*u2_3"


@dataclass
class Op:
    """One CLI call and what its output must satisfy."""

    argv: list
    kind: str  # verify-gb | count | dim | check | rewrite
    expect: dict
    serial: bool = True
    selfcheck: bool = False

    def to_plan(self) -> dict:
        return {"argv": self.argv, "selfcheck": self.selfcheck}


@dataclass
class Workload:
    name: str
    seed: int
    instance_files: list
    ops: list
    replay: dict = field(default_factory=dict)

    def plan(self, src: str, serial_only: bool, selfcheck: bool) -> tuple:
        """The child's plan and the operations it lists, in order."""
        ops = [op for op in self.ops if op.serial or not serial_only]
        if selfcheck:
            ops += selfcheck_ops(os.path.dirname(self.instance_files[0]))
        return {
            "src": src,
            "instances": self.instance_files,
            "ops": [op.to_plan() for op in ops],
        }, ops


def dense_instance(rng: random.Random, profile) -> dict:
    """f_i of the given degrees: nonzero integer lower coefficients, rational leads.

    The magnitudes form a fixed multiset; the seed only permutes them and
    picks signs, so the arithmetic cost hardly depends on the seed.
    """
    lower = [str(k % 5 + 1) for k in range(sum(profile))]
    leads = [_LEADING[i % len(_LEADING)] for i in range(len(profile))]
    rng.shuffle(lower)
    rng.shuffle(leads)
    signed = [rng.choice(("", "-")) + c for c in lower + leads]
    f, at = [], 0
    for i, m in enumerate(profile):
        f.append(signed[at:at + m] + [signed[len(lower) + i]])
        at += m
    return {"d": len(profile), "f": f}


def nowicki(d: int) -> dict:
    return {"d": d, "f": [["0", "1"]] * d}


def _write(workdir: str, name: str, data: dict) -> str:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return path


def _pair_count(d: int) -> int:
    """S-pairs of R and S: C(d,4) + C(d,3) relations, all pairs of them."""
    return math.comb(math.comb(d, 4) + math.comb(d, 3), 2)


def _gb_ladder(rng, workdir):
    ops, instances, files = [], {}, []
    for d, profile in GB_PROFILES.items():
        data = dense_instance(rng, profile)
        path = _write(workdir, f"dense{d}", data)
        instances[f"dense{d}"], files = data, files + [path]
        cert = os.path.join(workdir, f"cert{d}.json")
        ops.append(Op(["verify-gb", "--instance", path, "--certificate", cert],
                      "verify-gb", {"pairs": _pair_count(d), "certificate": cert}))
    path = files[list(GB_PROFILES).index(GB_JOBS_D)]
    cert = os.path.join(workdir, f"cert{GB_JOBS_D}_jobs2.json")
    ops.append(Op(["verify-gb", "--instance", path, "--certificate", cert, "--jobs", "2"],
                  "verify-gb", {"pairs": _pair_count(GB_JOBS_D), "certificate": cert},
                  serial=False))
    return files, ops, {"instances": instances}


def _hilbert_slices(rng, workdir):
    data = {"mixed": dense_instance(rng, MIXED_PROFILE)}
    for family, d, _ in HILBERT_COUNTS:
        if family == "nowicki":
            data[f"nowicki{d}"] = nowicki(d)
    paths = {name: _write(workdir, name, inst) for name, inst in data.items()}

    def path_of(family, d):
        return paths["mixed" if family == "mixed" else f"nowicki{d}"]

    ops = [
        Op(["normal-words", "--instance", path_of(f, d), "--max-deg", str(deg), "--count-only"],
           "count", {"value": count, "point": [f, d, deg]})
        for (f, d, deg), count in HILBERT_COUNTS.items()
    ]
    ops += [
        Op(["kernel-dim", "--instance", path_of(*point[:2]), "--max-deg", str(point[2])],
           "dim", {"value": HILBERT_COUNTS[point], "point": list(point)})
        for point in KERNEL_POINTS
    ]
    return list(paths.values()), ops, {"instances": data}


def request_sizes(count: int = REQUESTS) -> list:
    """Target term counts: log-normal quantiles, 3% of them over 10x the median."""
    dist = NormalDist(0.0, math.log(10) / TAIL_Z)
    return [
        max(1, round(MEDIAN_TERMS * math.exp(dist.inv_cdf((i + 0.5) / count))))
        for i in range(count)
    ]


def _random_h(rng, table, target: int):
    """A ring-P polynomial whose image has about `target` terms."""
    import constalg
    from constalg.presentation import pi_image_of_monomial

    inst = table.instance
    pairs = constalg.u_pairs(inst.d)
    terms, estimate = {}, 0
    while estimate < target:
        upairs = {}
        for _ in range(rng.randint(1, 2)):
            pair = rng.choice(pairs)
            upairs[pair] = upairs.get(pair, 0) + 1
        mono = constalg.PMonomial(
            tuple(rng.randint(0, 1) for _ in range(inst.d)), tuple(sorted(upairs.items()))
        )
        if mono in terms:
            continue
        terms[mono] = Fraction(int(rng.choice(_LOWER)), rng.randint(1, 3))
        estimate += len(pi_image_of_monomial(table, mono).terms)
    return constalg.Polynomial(inst.ring_p, terms)


def _rewrite_stream(rng, workdir):
    import constalg

    data, tables, paths = {}, [], []
    for profile in REWRITE_PROFILES:
        name = f"mixed{len(profile)}"
        data[name] = dense_instance(rng, profile)
        paths.append(_write(workdir, name, data[name]))
        tables.append(constalg.build_generators(constalg.ProblemInstance.from_json_dict(data[name])))
    sizes = request_sizes()
    rng.shuffle(sizes)
    which = [i % len(tables) for i in range(len(sizes))]
    rng.shuffle(which)
    nonconstant = set(rng.sample(range(len(sizes)), round(NONCONSTANT_SHARE * len(sizes))))
    ops, record = [], []
    for i, (size, t) in enumerate(zip(sizes, which)):
        table = tables[t]
        inst = table.instance
        g = constalg.pi_substitute(table, _random_h(rng, table, size))
        constant = i not in nonconstant
        if not constant:
            k = rng.randrange(inst.d)
            xexp = tuple(rng.randint(0, 2) for _ in range(inst.d))
            yexp = tuple(int(j == k) for j in range(inst.d))
            g = g + constalg.Polynomial.from_term(
                inst.ring_a, constalg.AMonomial(xexp, yexp), int(rng.choice(_LOWER))
            )
        text = constalg.format_poly(g)
        expect = {"constant": constant, "instance": paths[t], "d": inst.d, "poly": text}
        ops.append(Op(["check", "--instance", paths[t], "--poly", text], "check", expect))
        ops.append(Op(["rewrite", "--instance", paths[t], "--poly", text], "rewrite", expect))
        record.append({"instance": list(data)[t], "terms": len(g.terms), "constant": constant})
    return paths, ops, {"instances": data, "requests": record}


_GENERATORS = {
    "gb-ladder": _gb_ladder,
    "hilbert-slices": _hilbert_slices,
    "rewrite-stream": _rewrite_stream,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    """Generate the workload's inputs under `workdir`; same seed, same inputs."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    files, ops, replay = _GENERATORS[name](rng, workdir)
    return Workload(name, seed, files, ops, {"workload": name, "seed": seed, **replay})


def selfcheck_ops(workdir: str) -> list:
    """Operations on d = 4, f_i = x_i whose traced counts are known exactly."""
    import constalg

    path = _write(workdir, "selfcheck4", nowicki(4))
    cert = os.path.join(workdir, "selfcheck4_cert.json")
    deg, dim = SELFCHECK_KERNEL
    inst = constalg.ProblemInstance.from_json_dict(nowicki(4))
    g = constalg.pi_substitute(
        constalg.build_generators(inst), constalg.parse_poly(SELFCHECK_WORD, "P", 4)
    )
    expect = {"constant": True, "instance": path, "d": 4, "poly": constalg.format_poly(g)}
    return [
        Op(["verify-gb", "--instance", path, "--certificate", cert], "verify-gb",
           {"pairs": SELFCHECK_PAIRS, "certificate": cert}, selfcheck=True),
        Op(["kernel-dim", "--instance", path, "--max-deg", str(deg)], "dim",
           {"value": dim, "point": ["nowicki", 4, deg]}, selfcheck=True),
        Op(["normal-words", "--instance", path, "--max-deg", str(deg), "--count-only"],
           "count", {"value": dim, "point": ["nowicki", 4, deg]}, selfcheck=True),
        Op(["check", "--instance", path, "--poly", expect["poly"]], "check", expect,
           selfcheck=True),
        Op(["rewrite", "--instance", path, "--poly", expect["poly"]], "rewrite", expect,
           selfcheck=True),
    ]
