"""Command-line front end.

Eight subcommands drive the library:

    prepare    unit * distinguished-polynomial factorization
    divide     division with remainder in a chosen variable
    implicit   solve f(x', x_k) = 0 for x_k
    split      even/odd decomposition in a chosen variable
    lemma      descent to the squared variable: f0(x', x_k^2) + x_k*f1(x', x_k^2)
    holo       real/imaginary extension of a univariate series
    cr-check   Cauchy-Riemann residuals of a (u, v) pair
    semigroup  support membership of a prepared polynomial

Exit codes: 0 success, 2 parse or usage error (or a coefficient of more
than 4300 digits), 3 mathematical precondition violation (flat order,
non-unit inverse), 4 internal invariant breach.  Results go to stdout,
diagnostics to stderr.

Variable renumbering: outputs that live in one variable fewer than the
input (implicit solutions, distinguished coefficients a_i) drop the
chosen variable and shift higher indices down by one.  The ``lemma``
outputs keep the remaining variables in order and append the squared
slot as the LAST variable.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import ExpressionError, InternalInvariantError, PreconditionError
from .localring import even_odd_split, solve_implicit
from .parser import parse_series
from .pipelines import (ComplexExtension, cauchy_riemann_check,
                        direct_complexification, holomorphic_extension,
                        normalize_cubic, split_square, semigroup_check)
from .series import Series
from .weierstrass import weierstrass_divide, weierstrass_prepare


class _UsageError(Exception):
    pass


def _natural(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive(text: str) -> int:
    value = _natural(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_space_flags(sub, with_var=True):
    sub.add_argument("--vars", type=_positive, required=True,
                     help="number of variables")
    sub.add_argument("--trunc", type=_natural, required=True,
                     help="truncation degree")
    if with_var:
        sub.add_argument("--var", type=_positive, required=True,
                         help="distinguished variable index k")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="wseries",
        description="Exact truncated power series: Weierstrass division "
                    "and preparation, implicit solving, square descent, "
                    "and holomorphic extension.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="factor f as unit * distinguished polynomial")
    _add_space_flags(p)
    p.add_argument("-e", required=True, metavar="EXPR", help="the series f")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_run_prepare)

    p = sub.add_parser("divide", help="divide g by f with remainder in x_k")
    _add_space_flags(p)
    p.add_argument("-g", required=True, metavar="EXPR", help="the dividend g")
    p.add_argument("-f", required=True, metavar="EXPR", help="the divisor f")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_run_divide)

    p = sub.add_parser("implicit", help="solve f = 0 for x_k")
    _add_space_flags(p)
    p.add_argument("-e", required=True, metavar="EXPR", help="the series f")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_run_implicit)

    p = sub.add_parser("split", help="even/odd decomposition in x_k")
    _add_space_flags(p)
    p.add_argument("-e", required=True, metavar="EXPR", help="the series f")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_run_split)

    p = sub.add_parser(
        "lemma", help="descend to the squared variable: f0 + x_k*f1")
    _add_space_flags(p)
    p.add_argument("-e", required=True, metavar="EXPR", help="the series f")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_run_lemma)

    p = sub.add_parser(
        "holo", help="extend a univariate series off the axis (u, v)")
    p.add_argument("--trunc", type=_natural, required=True)
    p.add_argument("-e", metavar="EXPR", help="univariate series h")
    p.add_argument("--coeffs", metavar="LIST",
                   help="comma-separated coefficients h0,h1,h2,...")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_run_holo)

    p = sub.add_parser(
        "cr-check", help="Cauchy-Riemann residuals of a (u, v) pair")
    p.add_argument("--trunc", type=_natural, required=True)
    p.add_argument("-g", metavar="EXPR", help="the real part u(x1, x2)")
    p.add_argument("-f", metavar="EXPR", help="the imaginary part v(x1, x2)")
    p.add_argument("-e", metavar="EXPR",
                   help="univariate h; checks its binomial complexification")
    p.add_argument("--coeffs", metavar="LIST",
                   help="comma-separated coefficients h0,h1,h2,...")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_run_cr_check)

    p = sub.add_parser(
        "semigroup",
        help="support membership of the prepared polynomial of f")
    _add_space_flags(p)
    p.add_argument("-e", required=True, metavar="EXPR", help="the series f")
    p.add_argument("--order-shift", action="store_true",
                   help="also close the reachable set under subtracting "
                        "the distinguished monomial exponent")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_run_semigroup)
    return top


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------

def _check_k(args):
    if not 1 <= args.var <= args.vars:
        raise _UsageError(f"--var must be between 1 and {args.vars}")


def _parse(args, text: str, nvars=None, trunc=None) -> Series:
    return parse_series(text,
                        args.vars if nvars is None else nvars,
                        args.trunc if trunc is None else trunc)


def _coeff_series(text: str, trunc: int) -> Series:
    terms = {}
    for j, piece in enumerate(text.split(",")):
        try:
            value = Fraction(piece.strip())
        except (ValueError, ZeroDivisionError):
            raise _UsageError(f"bad coefficient {piece.strip()!r}")
        if value:
            terms[(j,)] = value
    return Series(1, trunc, terms)


def _emit(doc: dict, lines: list, as_json: bool) -> int:
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
            print(line)
    return 0


def _run_prepare(args) -> int:
    _check_k(args)
    f = _parse(args, args.e)
    prep = weierstrass_prepare(f, args.var)
    poly = prep.poly
    lines = [f"d = {poly.d}",
             f"k = {poly.k}",
             f"guaranteed_degree = {prep.guaranteed_degree}",
             f"U = {prep.unit.canonical()}"]
    for i, a in enumerate(poly.coeffs, start=1):
        lines.append(f"a{i} = {a.canonical()}")
    lines.append(f"P = {poly.expand().canonical()}")
    doc = {"command": "prepare", "nvars": args.vars, "trunc": args.trunc,
           "var": args.var, "result": prep.to_dict()}
    return _emit(doc, lines, args.json)


def _run_divide(args) -> int:
    _check_k(args)
    g = _parse(args, args.g)
    f = _parse(args, args.f)
    division = weierstrass_divide(g, f, args.var)
    lines = [f"d = {division.d}",
             f"k = {division.k}",
             f"guaranteed_degree = {division.guaranteed_degree}",
             f"q = {division.quotient.canonical()}",
             f"r = {division.remainder.canonical()}"]
    doc = {"command": "divide", "nvars": args.vars, "trunc": args.trunc,
           "var": args.var, "result": division.to_dict()}
    return _emit(doc, lines, args.json)


def _run_implicit(args) -> int:
    _check_k(args)
    f = _parse(args, args.e)
    phi = solve_implicit(f, args.var)
    lines = [f"guaranteed_degree = {phi.guaranteed_degree}",
             f"solution = {phi.canonical()}"]
    doc = {"command": "implicit", "nvars": args.vars, "trunc": args.trunc,
           "var": args.var, "result": {"solution": phi.to_dict()}}
    return _emit(doc, lines, args.json)


def _run_split(args) -> int:
    _check_k(args)
    f = _parse(args, args.e)
    g0, g1 = even_odd_split(f, args.var)
    lines = [f"g0 = {g0.canonical()}", f"g1 = {g1.canonical()}"]
    doc = {"command": "split", "nvars": args.vars, "trunc": args.trunc,
           "var": args.var,
           "result": {"g0": g0.to_dict(), "g1": g1.to_dict()}}
    return _emit(doc, lines, args.json)


def _run_lemma(args) -> int:
    _check_k(args)
    if args.trunc < 4:
        raise _UsageError("--trunc must be at least 4 for this command")
    f = _parse(args, args.e)
    split = split_square(f, args.var)
    lines = [f"guaranteed_degree = {split.guaranteed_degree}",
             f"f0 = {split.f0.canonical()}",
             f"f1 = {split.f1.canonical()}"]
    doc = {"command": "lemma", "nvars": args.vars, "trunc": args.trunc,
           "var": args.var, "result": split.to_dict()}
    return _emit(doc, lines, args.json)


def _holo_input(args) -> Series:
    if (args.e is None) == (args.coeffs is None):
        raise _UsageError("give exactly one of -e or --coeffs")
    if args.coeffs is not None:
        return _coeff_series(args.coeffs, args.trunc)
    return parse_series(args.e, 1, args.trunc)


def _run_holo(args) -> int:
    if args.trunc < 4:
        raise _UsageError("--trunc must be at least 4 for this command")
    h = _holo_input(args)
    normalized, correction = normalize_cubic(h)
    ext = holomorphic_extension(normalized)
    report = cauchy_riemann_check(ext)
    lines = [f"correction = {correction.canonical()}",
             f"normalized = {normalized.canonical()}",
             f"guaranteed_degree = {ext.guaranteed_degree}",
             f"u = {ext.u.canonical()}",
             f"v = {ext.v.canonical()}",
             f"CR: {'PASS' if report.passed else 'FAIL'}"]
    doc = {"command": "holo", "trunc": args.trunc,
           "correction": correction.to_dict(),
           "normalized": normalized.to_dict(),
           "result": ext.to_dict(),
           "cauchy_riemann": report.to_dict()}
    return _emit(doc, lines, args.json)


def _run_cr_check(args) -> int:
    pair_mode = args.g is not None or args.f is not None
    h_mode = args.e is not None or args.coeffs is not None
    if pair_mode == h_mode:
        raise _UsageError("give either -g with -f, or one of -e / --coeffs")
    if pair_mode:
        if args.g is None or args.f is None:
            raise _UsageError("-g and -f must be given together")
        u = parse_series(args.g, 2, args.trunc)
        v = parse_series(args.f, 2, args.trunc)
        ext = ComplexExtension(u, v, min(u.guaranteed_degree,
                                         v.guaranteed_degree))
    else:
        ext = direct_complexification(_holo_input(args))
    report = cauchy_riemann_check(ext)
    lines = [f"checked_degree = {report.checked_degree}",
             f"residual1 = {report.residual1.canonical()}",
             f"residual2 = {report.residual2.canonical()}",
             f"CR: {'PASS' if report.passed else 'FAIL'}"]
    doc = {"command": "cr-check", "trunc": args.trunc,
           "result": report.to_dict()}
    return _emit(doc, lines, args.json)


def _expo_text(expo) -> str:
    return "(" + ",".join(str(e) for e in expo) + ")"


def _run_semigroup(args) -> int:
    _check_k(args)
    f = _parse(args, args.e)
    prep = weierstrass_prepare(f, args.var)
    report = semigroup_check(prep.poly, f, order_shift=args.order_shift)
    lines = [f"d = {prep.poly.d}",
             f"k = {prep.poly.k}",
             "generators = " + ", ".join(_expo_text(g)
                                         for g in report.generators)]
    for check in report.checks:
        line = f"{_expo_text(check.exponent)}: member = "
        line += "yes" if check.member else "no"
        if check.member:
            line += ", witness = " + " + ".join(_expo_text(w)
                                                for w in check.witness)
            if check.shifts:
                line += f", shifts = {check.shifts}"
        lines.append(line)
    lines.append(f"all_member = {'yes' if report.all_member else 'no'}")
    doc = {"command": "semigroup", "nvars": args.vars, "trunc": args.trunc,
           "var": args.var, "preparation": prep.to_dict(),
           "result": report.to_dict()}
    return _emit(doc, lines, args.json)


_KNOWN_FLAGS = {"-e", "-f", "-g", "-h", "--help", "--vars", "--trunc",
                "--var", "--coeffs", "--json", "--order-shift"}


def _preprocess(argv: list) -> list:
    """Let expression values start with a minus sign (e.g. -f "-1*x2"):
    attach such a value to its short flag so argparse does not read it as
    an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (tok in ("-e", "-f", "-g", "--coeffs") and nxt is not None
                and nxt.startswith("-") and nxt not in _KNOWN_FLAGS):
            out.append(tok + nxt if tok != "--coeffs" else tok + "=" + nxt)
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_preprocess(list(argv)))
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        return args.handler(args)
    except (_UsageError, ExpressionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Python's limit on integer <-> decimal string conversion
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: coefficient too large: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
