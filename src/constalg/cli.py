"""Command-line surface: relations, verify-gb, normal-words, check, rewrite, kernel-dim.

Every subcommand takes one path through `run`: parse argv with the parser
built on the first call, load `--instance`, reject a negative `--max-deg`,
call the handler the subparser set as default.  `--poly TEXT` reaches
argparse as `--poly=TEXT`, so the text may start with '-'.

A `_cmd_*` handler takes (instance, args), returns (exit code, stdout
lines) and prints nothing; only `verify-gb` writes a file, its
`--certificate`.  `run` joins the lines, writes them to `--out` if the
subcommand has one, and only then to stdout, so an unwritable output file
exits 2 with nothing printed.

Exit codes: 0 success, 1 semantic false verdict (not a constant, failed
Groebner verification), 2 usage/parse/instance errors and unwritable
output files.  Output on stdout and certificate files are byte-identical
across runs on identical inputs.  The `--jobs` option of verify-gb is
accepted and ignored: the pair check is serial.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .derivation import is_constant, load_instance
from .errors import ConstalgError, NotAConstantError
from .groebner import verify_groebner
from .normal_words import (
    count_normal_words,
    enumerate_normal_words,
    kernel_dim_oracle,
    rewrite_constant,
)
from .orders import CORRECTED, LITERAL
from .poly import RING_A, format_monomial, format_poly, parse_poly
from .presentation import build_relations

_VARIANT_BY_FLAG = {"corrected": CORRECTED, "paper": LITERAL}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConstalgError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree; each subparser's `handler` default is its command."""
    parser = _Parser(prog="constalg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--instance", required=True, help="instance JSON file")
        p.set_defaults(handler=handler)
        return p

    p = add("relations", _cmd_relations, "print the relation families R and S")
    p.add_argument("--out", help="also write the listing to this file")

    p = add("verify-gb", _cmd_verify_gb, "verify that R united with S is a reduced Groebner basis")
    p.add_argument("--variant", choices=sorted(_VARIANT_BY_FLAG), default="corrected")
    p.add_argument("--certificate", help="write the per-pair certificate JSON here")
    p.add_argument(
        "--jobs", type=int, default=1, help="ignored; kept for compatibility (the check is serial)"
    )

    p = add("normal-words", _cmd_normal_words, "list normal words up to an image-degree bound")
    p.add_argument("--max-deg", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--variant", choices=sorted(_VARIANT_BY_FLAG), default="corrected")

    p = add("check", _cmd_check, "exit 0/1 as the polynomial is/is not a constant")
    p.add_argument("--poly", required=True)

    p = add("rewrite", _cmd_rewrite, "rewrite a constant in terms of the generators")
    p.add_argument("--poly", required=True)
    p.add_argument("--out", help="also write the expression to this file")

    p = add("kernel-dim", _cmd_kernel_dim, "dimension of the constants up to a degree bound")
    p.add_argument("--max-deg", type=int, required=True)
    p.add_argument("--basis", action="store_true", help="also print a basis")

    return parser


def _write_output(path, text: str) -> None:
    """Write text to path; a path that cannot be written is an exit-2 error."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConstalgError(f"cannot write output file: {exc}") from exc


def _cmd_relations(inst, args):
    return 0, (f"{label}: {format_poly(p)}" for label, p in build_relations(inst).labeled())


def _cmd_verify_gb(inst, args):
    cert = verify_groebner(inst, variant=_VARIANT_BY_FLAG[args.variant])
    if args.certificate:
        _write_output(args.certificate, json.dumps(cert.to_json_dict(), indent=2) + "\n")
    conf = cert.conformance
    zero = sum(1 for p in cert.pairs if p.normal_form_zero)
    lines = [
        f"lead conformance: {'ok' if conf.ok else 'FAILED'} ({len(conf.entries)} relations)",
        f"s-polynomial pairs: {zero}/{len(cert.pairs)} reduce to zero",
        f"reducedness: {'ok' if cert.reduced else 'FAILED'}",
    ]
    if cert.verdict:
        return 0, [*lines, "verdict: verified reduced Groebner basis"]
    return 1, [*lines, f"verdict: FAILED ({cert.first_failure()})"]


def _cmd_normal_words(inst, args):
    if args.count_only:
        return 0, [str(sum(count_normal_words(inst, args.max_deg)))]
    words = enumerate_normal_words(inst, args.max_deg, _VARIANT_BY_FLAG[args.variant])
    return 0, map(format_monomial, words)


def _cmd_check(inst, args):
    if is_constant(inst, parse_poly(args.poly, RING_A, inst.d)):
        return 0, ["constant"]
    return 1, ["not a constant"]


def _cmd_rewrite(inst, args):
    poly = parse_poly(args.poly, RING_A, inst.d)
    return 0, [format_poly(rewrite_constant(inst, poly))]


def _cmd_kernel_dim(inst, args):
    result = kernel_dim_oracle(inst, args.max_deg)
    basis = map(format_poly, result.basis) if args.basis else []
    return 0, [f"dimension: {result.dimension}", *basis]


def _join_poly(argv) -> list:
    """argv with each `--poly TEXT` pair joined into `--poly=TEXT`."""
    joined: list = []
    for token in argv:
        if joined and joined[-1] == "--poly":
            joined[-1] = f"--poly={token}"
        else:
            joined.append(token)
    return joined


def run(argv=None) -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        args = build_parser().parse_args(_join_poly(sys.argv[1:] if argv is None else argv))
        inst = load_instance(args.instance)
        if getattr(args, "max_deg", 0) < 0:
            raise ConstalgError("--max-deg must be nonnegative")
        code, lines = args.handler(inst, args)
        text = "".join(f"{line}\n" for line in lines)
        if getattr(args, "out", None):
            _write_output(args.out, text)
        sys.stdout.write(text)
        return code
    except ConstalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, NotAConstantError) else 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
