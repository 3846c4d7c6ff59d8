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

Each handler returns ``(doc, lines)``: its part of the ``--json``
document, and its text output as ordered ``(label, value)`` pairs, a value
being a :class:`Series`, an int or a string (the Cauchy-Riemann verdict is
``("CR", passed)``).  :func:`main` does the rest once: the ``--var`` range
check, the JSON header ``{"command", ["nvars"], "trunc", ["var"]}`` ahead
of the handler's keys, and the text lines ``label = value`` (a series by
:meth:`Series.canonical`, the verdict as ``CR: PASS`` or ``CR: FAIL``).

Exit codes: 0 success, 2 parse or usage error (or a coefficient of more
than 4300 digits, or an input too large to build in memory, such as
``--vars 1000000000``), 3 mathematical precondition violation (flat order,
non-unit inverse), 4 internal invariant breach, 1 when stdout was closed
before the output could be written (as by ``wseries ... | head -1``; the
output is dropped, with no traceback).  Results go to stdout, diagnostics
to stderr.

Variable renumbering: outputs that live in one variable fewer than the
input (implicit solutions, distinguished coefficients a_i) drop the
chosen variable and shift higher indices down by one.  The ``lemma``
outputs keep the remaining variables in order and append the squared
slot as the LAST variable.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

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


def _at_least(low: int):
    """The argparse type of an integer option that must be ``>= low``."""
    def check(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value
    return check


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="wseries",
        description="Exact truncated power series: Weierstrass division "
                    "and preparation, implicit solving, square descent, "
                    "and holomorphic extension.")
    sub = top.add_subparsers(dest="command", required=True)
    f = dict(required=True, metavar="EXPR", help="the series f")
    coeffs = dict(metavar="LIST",
                  help="comma-separated coefficients h0,h1,h2,...")
    for name, handler, text, inputs in (
        ("prepare", _run_prepare,
         "factor f as unit * distinguished polynomial", {"-e": f}),
        ("divide", _run_divide, "divide g by f with remainder in x_k", {
            "-g": dict(required=True, metavar="EXPR", help="the dividend g"),
            "-f": dict(required=True, metavar="EXPR", help="the divisor f")}),
        ("implicit", _run_implicit, "solve f = 0 for x_k", {"-e": f}),
        ("split", _run_split, "even/odd decomposition in x_k", {"-e": f}),
        ("lemma", _run_lemma,
         "descend to the squared variable: f0 + x_k*f1", {"-e": f}),
        ("holo", _run_holo, "extend a univariate series off the axis (u, v)",
         {"-e": dict(metavar="EXPR", help="univariate series h"),
          "--coeffs": coeffs}),
        ("cr-check", _run_cr_check,
         "Cauchy-Riemann residuals of a (u, v) pair", {
             "-g": dict(metavar="EXPR", help="the real part u(x1, x2)"),
             "-f": dict(metavar="EXPR", help="the imaginary part v(x1, x2)"),
             "-e": dict(metavar="EXPR", help="univariate h; checks its "
                                             "binomial complexification"),
             "--coeffs": coeffs}),
        ("semigroup", _run_semigroup,
         "support membership of the prepared polynomial of f", {
             "-e": f,
             "--order-shift": dict(
                 action="store_true",
                 help="also close the reachable set under subtracting "
                      "the distinguished monomial exponent")}),
    ):
        # the shared flags keep one order, which usage lines show:
        # --vars, --trunc, --var (the "space" commands), inputs, --json
        p = sub.add_parser(name, help=text)
        space = name not in ("holo", "cr-check")
        if space:
            p.add_argument("--vars", type=_at_least(1), required=True,
                           help="number of variables")
        p.add_argument("--trunc", type=_at_least(0), required=True,
                       help="truncation degree")
        if space:
            p.add_argument("--var", type=_at_least(1), required=True,
                           help="distinguished variable index k")
        for flag, spec in inputs.items():
            p.add_argument(flag, **spec)
        p.add_argument("--json", action="store_true")
        p.set_defaults(handler=handler)
    return top


# ----------------------------------------------------------------------
# handlers: each returns (its part of the JSON document, its text lines)
# ----------------------------------------------------------------------

def _parse(args, text: str) -> Series:
    return parse_series(text, args.vars, args.trunc)


def _coeff_series(text: str, trunc: int) -> Series:
    """``--coeffs h0,h1,...``: each entry is a constant of the expression
    grammar, read with its guards."""
    terms = {}
    for j, piece in enumerate(text.split(",")):
        try:
            terms[(j,)] = parse_series(piece, 0, 0).constant_term()
        except ExpressionError:
            raise _UsageError(f"bad coefficient {piece.strip()!r}") from None
    return Series(1, trunc, terms)


def _run_prepare(args):
    prep = weierstrass_prepare(_parse(args, args.e), args.var)
    poly = prep.poly
    return {"result": prep.to_dict()}, [
        ("d", poly.d), ("k", poly.k),
        ("guaranteed_degree", prep.guaranteed_degree), ("U", prep.unit),
        *((f"a{i}", a) for i, a in enumerate(poly.coeffs, start=1)),
        ("P", poly.expand())]


def _run_divide(args):
    division = weierstrass_divide(_parse(args, args.g), _parse(args, args.f),
                                  args.var)
    return {"result": division.to_dict()}, [
        ("d", division.d), ("k", division.k),
        ("guaranteed_degree", division.guaranteed_degree),
        ("q", division.quotient), ("r", division.remainder)]


def _run_implicit(args):
    phi = solve_implicit(_parse(args, args.e), args.var)
    return {"result": {"solution": phi.to_dict()}}, [
        ("guaranteed_degree", phi.guaranteed_degree), ("solution", phi)]


def _run_split(args):
    g0, g1 = even_odd_split(_parse(args, args.e), args.var)
    return ({"result": {"g0": g0.to_dict(), "g1": g1.to_dict()}},
            [("g0", g0), ("g1", g1)])


def _run_lemma(args):
    split = split_square(_parse(args, args.e), args.var)
    return {"result": split.to_dict()}, [
        ("guaranteed_degree", split.guaranteed_degree),
        ("f0", split.f0), ("f1", split.f1)]


def _holo_input(args) -> Series:
    if (args.e is None) == (args.coeffs is None):
        raise _UsageError("give exactly one of -e or --coeffs")
    if args.coeffs is not None:
        return _coeff_series(args.coeffs, args.trunc)
    return parse_series(args.e, 1, args.trunc)


def _run_holo(args):
    normalized, correction = normalize_cubic(_holo_input(args))
    ext = holomorphic_extension(normalized)
    report = cauchy_riemann_check(ext)
    doc = {"correction": correction.to_dict(),
           "normalized": normalized.to_dict(),
           "result": ext.to_dict(),
           "cauchy_riemann": report.to_dict()}
    return doc, [("correction", correction), ("normalized", normalized),
                 ("guaranteed_degree", ext.guaranteed_degree),
                 ("u", ext.u), ("v", ext.v), ("CR", report.passed)]


def _run_cr_check(args):
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
    return {"result": report.to_dict()}, [
        ("checked_degree", report.checked_degree),
        ("residual1", report.residual1), ("residual2", report.residual2),
        ("CR", report.passed)]


def _expo_text(expo) -> str:
    return "(" + ",".join(str(e) for e in expo) + ")"


def _run_semigroup(args):
    f = _parse(args, args.e)
    prep = weierstrass_prepare(f, args.var)
    report = semigroup_check(prep.poly, f, order_shift=args.order_shift)
    lines = [("d", prep.poly.d), ("k", prep.poly.k),
             ("generators", ", ".join(map(_expo_text, report.generators)))]
    for check in report.checks:
        row = "no"
        if check.member:
            row = "yes, witness = " + " + ".join(map(_expo_text,
                                                     check.witness))
            if check.shifts:
                row += f", shifts = {check.shifts}"
        lines.append((f"{_expo_text(check.exponent)}: member", row))
    lines.append(("all_member", "yes" if report.all_member else "no"))
    return {"preparation": prep.to_dict(), "result": report.to_dict()}, lines


def _preprocess(argv: list) -> list:
    """Let expression values start with a minus sign (e.g. -f "-1*x2"):
    attach such a value to the expression flag just before it, so argparse
    does not read it as an option.  A token of an option's shape, ``-x``
    or ``--name`` (a letter after the dashes), stays an option: no
    expression starts that way, as a leading minus takes a number."""
    out = []
    for tok in argv:
        if (out and out[-1] in ("-e", "-f", "-g", "--coeffs")
                and tok.startswith("-") and not re.match("--?[A-Za-z]", tok)):
            out[-1] += "=" + tok if out[-1] == "--coeffs" else tok
        else:
            out.append(tok)
    return out


def _render(label: str, value) -> str:
    if isinstance(value, Series):
        value = value.canonical()
    if label == "CR":
        return f"CR: {'PASS' if value else 'FAIL'}"
    return f"{label} = {value}"


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_preprocess(list(argv)))
    except SystemExit as exc:
        return 0 if not exc.code else 2
    head = {"command": args.command, "nvars": getattr(args, "vars", None),
            "trunc": args.trunc, "var": getattr(args, "var", None)}
    head = {key: value for key, value in head.items() if value is not None}
    try:
        if "var" in head and not 1 <= args.var <= args.vars:
            raise _UsageError(f"--var must be between 1 and {args.vars}")
        if args.command in ("lemma", "holo") and args.trunc < 4:
            raise _UsageError("--trunc must be at least 4 for this command")
        doc, lines = args.handler(args)
        # all of the output is built before any of it is printed
        if args.json:
            out = json.dumps({**head, **doc}, indent=2)
        else:
            out = "\n".join(_render(label, v) for label, v in lines)
        try:
            print(out)
            sys.stdout.flush()
        except BrokenPipeError:
            # Python's "Note on SIGPIPE" (signal docs): point stdout at
            # devnull, so that the flush at exit raises no second error
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        return 0
    except (_UsageError, ExpressionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Python's limit on integer <-> decimal string conversion
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: coefficient too large: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the input is too large", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
