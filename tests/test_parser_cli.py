"""Expression language and the command-line front end."""

import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from support import S, identical, nonzero_rational, random_series
from wseries import (ExpressionError, InternalInvariantError,
                     PreconditionError, Series, parse_expression,
                     parse_series)
from wseries.cli import main


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

def test_ast_of_sum_with_signed_rational():
    ast = parse_expression("x1^2 + -3/2*x1*x2", 2)
    assert ast == ("+", [(False, ("^", ("x", 1), 2)),
                         (False, ("*", [("lit", Fraction(-3, 2)),
                                        ("x", 1), ("x", 2)]))])


def test_ast_of_unit_inverse():
    assert parse_expression("inv(1 - x1)", 1) == (
        "inv", ("+", [(False, ("lit", Fraction(1))), (True, ("x", 1))]))


def test_variable_range_is_checked():
    with pytest.raises(ExpressionError):
        parse_expression("x3", 2)
    with pytest.raises(ExpressionError):
        parse_expression("x0", 2)


@pytest.mark.parametrize("text, message", [
    ("x3 +", "unexpected end of input (at position 4)"),
    ("x3 x1", "trailing input 'x1' (at position 3)"),
    ("(x3", "expected ')' (at position 3)"),
    ("x1 + x4*x3", "variable x4 exceeds the declared 2 variables"),
    ("inv(x5) + x3", "variable x5 exceeds the declared 2 variables"),
    ("x3 + ?", "unexpected character '?' (at position 5)"),
    ("x1 + + ?", "unexpected character '?' (at position 7)"),
    ("1/0 + ?", "unexpected character '?' (at position 6)"),
    ("x0 + x5", "variable indices start at x1 (at position 0)"),
])
def test_syntax_errors_win_over_the_first_variable_out_of_range(text,
                                                                message):
    with pytest.raises(ExpressionError) as err:
        parse_expression(text, 2)
    assert str(err.value) == message


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no integer string limit")
@pytest.mark.parametrize("text, position", [
    ("x{run}", 1), ("x1^{run}", 3), ("x1 + 2*{run}", 7), ("1/{run}", 2),
    ("x1 + {run} + ?", 5)])
def test_an_over_long_digit_run_is_an_expression_error(capsys, text,
                                                       position):
    # the run is rejected where it stands, not by int() later on
    limit = sys.get_int_max_str_digits()
    text = text.format(run="9" * (limit + 1))
    message = f"number has more than {limit} digits (at position {position})"
    with pytest.raises(ExpressionError) as err:
        parse_series(text, 2, 4)
    assert str(err.value) == message and err.value.position == position
    code, out, err = run_cli(capsys, "prepare", "--vars", "2", "--trunc",
                             "4", "--var", "2", "-e", text)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert parse_series("9" * limit, 2, 4).constant_term() == 10 ** limit - 1


def test_eval_examples():
    assert parse_series("(1+x1)*(1-x1)", 2, 3) == S("1 - x1^2", 2, 3)
    assert parse_series("inv(1-x1)", 1, 3) == S("1 + x1 + x1^2 + x1^3", 1, 3)
    with pytest.raises(PreconditionError):
        parse_series("inv(x1)", 1, 3)


def test_whitespace_is_insignificant():
    assert parse_series(" 1+ x1 *x2 ", 2, 4).same_data(S("1 + x1*x2", 2, 4))


def test_syntax_errors_carry_positions():
    with pytest.raises(ExpressionError) as err:
        parse_expression("x1 + ?", 2)
    assert err.value.position == 5
    with pytest.raises(ExpressionError, match="end of input"):
        parse_expression("x1 +", 2)
    with pytest.raises(ExpressionError, match="trailing"):
        parse_expression("x1 x2", 2)
    with pytest.raises(ExpressionError, match="denominator"):
        parse_expression("1/0", 1)
    with pytest.raises(ExpressionError):
        parse_expression("-x1", 1)  # minus binds to rationals only
    with pytest.raises(ExpressionError):
        parse_expression("x1 ^ x2", 2)


def test_grammar_odds_and_ends():
    assert parse_series("x1^0", 1, 4).same_data(S("1", 1, 4))
    assert parse_series("((x1))", 1, 4).same_data(S("x1", 1, 4))
    assert parse_series("inv(inv(1 + x1))", 1, 4) == S("1 + x1", 1, 4)
    assert parse_series("2 - -3", 1, 4).same_data(S("5", 1, 4))
    assert parse_series("(1 + x1)^2", 1, 4).same_data(S("1 + 2*x1 + x1^2", 1, 4))


def test_deep_nesting_is_an_expression_error():
    with pytest.raises(ExpressionError, match="nested too deeply"):
        parse_series("(" * 5000 + "x1" + ")" * 5000, 1, 4)
    with pytest.raises(ExpressionError, match="nested too deeply"):
        parse_series("inv(" * 5000 + "1 + x1" + ")" * 5000, 1, 4)
    assert parse_series(" + ".join(["x1"] * 5000), 1, 4).same_data(
        S("5000*x1", 1, 4))
    assert parse_series("(" * 100 + "x1" + ")" * 100, 1, 4).same_data(
        S("x1", 1, 4))


def _by_series_products(node, nvars, trunc):
    """A product or power of rationals and variables, formed the way the
    parser once did: one ``Series`` product per factor, ``**`` for a
    power."""
    match node:
        case ("lit", value):
            return Series.constant(value, nvars, trunc)
        case ("x", index):
            return Series.variable(index, nvars, trunc)
        case ("^", base, exponent):
            return _by_series_products(base, nvars, trunc) ** exponent
    _, factors = node
    result = _by_series_products(factors[0], nvars, trunc)
    for f in factors[1:]:
        result = result * _by_series_products(f, nvars, trunc)
    return result


@pytest.mark.parametrize("text", [
    "x2^3", "x2^4", "x2^5", "x1^0", "x3^0*x1", "x2^2000000000",
    "3/2*x1^2*x3*x1", "x1*0*x2", "-1/3*x2^2*2*x2^0", "x1*x2*x3*x1*x2"])
def test_monomial_factors_build_their_term_directly(text):
    # the rationals and variable powers of a product make one term; its
    # table and certificate are those of the series products they replace
    node = parse_expression(text, 3)
    for trunc in range(6):
        got = parse_series(text, 3, trunc)
        assert identical(got, _by_series_products(node, 3, trunc)), trunc
        assert all(type(c) is Fraction for c in got.terms.values())


def test_products_of_monomials_and_other_factors():
    assert parse_series("x1*(1 + x2)^2*2*x3", 3, 5).same_data(
        S("2*x1*x3 + 4*x1*x2*x3 + 2*x1*x2^2*x3", 3, 5))
    assert parse_series("1/2*inv(1 + x1)*x2^2", 3, 4).same_data(
        S("1/2*x2^2 + -1/2*x1*x2^2 + 1/2*x1^2*x2^2", 3, 4))
    assert parse_series("(x1 + x2)*(x1 - x2)", 2, 4).same_data(
        S("x1^2 + -1*x2^2", 2, 4))
    for text in ("3", "x1", "x1^2", "2*x1"):
        with pytest.raises(ValueError, match="trunc must be nonnegative"):
            parse_series(text, 1, -1)


def _nested(rng, nvars, trunc, depth):
    """A random expression at most ``depth`` levels deep: its text, its
    value built with the ``Series`` operators, and whether it is a sum."""
    kind = rng.choice(("sum", "product", "power", "inv")) if depth else None
    if kind is None:
        if rng.random() < 0.4:
            c = nonzero_rational(rng)
            return str(c), Series.constant(c, nvars, trunc), False
        i, n = rng.randint(1, nvars), rng.randint(0, 3)
        x = Series.variable(i, nvars, trunc)
        return ((f"x{i}", x, False) if rng.random() < 0.5
                else (f"x{i}^{n}", x ** n, False))
    if kind == "power":
        text, value, _ = _nested(rng, nvars, trunc, depth - 1)
        n = rng.randint(0, 3)
        return f"({text})^{n}", value ** n, False
    if kind == "inv":
        text, value, _ = _nested(rng, nvars, trunc, depth - 1)
        c = 2 if value.constant_term() == -1 else 1
        return f"inv({c} + {text})", (c + value).inverse(), False
    texts, value = [], None
    for j in range(rng.randint(2, 4)):
        # a product's factors are monomials or other nodes; a sum's terms
        # are any nodes, a sum among them always in parentheses
        leaf = kind == "product" and rng.random() < 0.5
        text, part, is_sum = _nested(rng, nvars, trunc, 0 if leaf else
                                     rng.randint(0, depth - 1))
        if is_sum or kind == "sum" and rng.random() < 0.2:
            text = f"({text})"
        if kind == "product":
            texts.append(text)
            value = part if j == 0 else value * part
        elif j == 0:
            texts.append(text)
            value = part
        elif rng.random() < 0.5:
            texts.append(f" + {text}")
            value = value + part
        else:
            texts.append(f" - {text}")
            value = value - part
    return ("*" if kind == "product" else "").join(texts), value, kind == "sum"


def test_nested_expressions_match_series_operators():
    rng = random.Random(109)
    for case in range(300):
        nvars, trunc = rng.randint(1, 3), rng.randint(0, 6)
        text, value, _ = _nested(rng, nvars, trunc, rng.randint(1, 3))
        assert identical(parse_series(text, nvars, trunc), value), (case,
                                                                   text)


def test_parse_inverts_canonical_printing():
    rng = random.Random(103)
    for _ in range(20):
        nvars = rng.choice((1, 2, 3))
        s = random_series(rng, nvars, 7, nterms=8)
        assert parse_series(s.canonical(), nvars, 7).same_data(s)


def test_parse_inverts_canonical_printing_of_a_large_series():
    s = random_series(random.Random(107), 4, 16, nterms=2500)
    assert len(s.terms) >= 1000
    assert parse_series(s.canonical(), 4, 16).same_data(s)


#: 40000 distinct squarefree monomials in 32 variables, rational
#: coefficients; squarefree so that each printed term costs few products
_REPARSE_40000_TERMS = """
import itertools
from fractions import Fraction
from wseries import Series, parse_series
subsets = itertools.chain.from_iterable(
    itertools.combinations(range(32), r) for r in range(5))
terms = {tuple(int(i in sub) for i in range(32)):
         Fraction(n % 19 - 9 or 1, n % 4 + 1)
         for n, sub in enumerate(itertools.islice(subsets, 40000))}
s = Series(32, 4, terms)
assert len(s.terms) == 40000
assert parse_series(s.canonical(), 32, 4).same_data(s)
"""


def test_reparsing_a_40000_term_printout_is_linear():
    # a sum is added up in one table: adding it term by term copied the
    # whole table each time, and 4989 terms already took about 2 s
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", _REPARSE_40000_TERMS],
                          capture_output=True, text=True, env=env, timeout=20)
    assert done.returncode == 0, done.stderr


def _two_gigabytes_of_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_an_input_too_large_for_memory_exits_2_with_one_line():
    # a 10^9-entry exponent does not fit in the child's 2 GB of address
    # space; the MemoryError must end as one error line, not a traceback
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "wseries.cli", "prepare", "--vars",
         "1000000000", "--trunc", "4", "--var", "1", "-e", "x1"],
        capture_output=True, text=True, env=env, timeout=20,
        preexec_fn=_two_gigabytes_of_address_space)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_a_closed_stdout_exits_1_without_a_traceback():
    # the reader of the pipe is gone before the child writes, as with
    # ``wseries holo ... | head -1``; this used to end in a
    # BrokenPipeError traceback
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for extra in ((), ("--json",)):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "wseries.cli", "holo", "--trunc",
                 "12", "-e", "x1^2 + x1^3 + x1^7", *extra],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env,
                timeout=20)
        finally:
            os.close(write)
        assert done.returncode == 1 and done.stderr == "", done.stderr


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def series_lines(out, labels):
    found = {}
    for line in out.splitlines():
        if " = " not in line:
            continue
        label, _, value = line.partition(" = ")
        if label in labels:
            found[label] = value
    return found


def test_cli_prepare_contract_example(capsys):
    code, out, err = run_cli(capsys, "prepare", "--vars", "2", "--trunc", "8",
                             "--var", "2", "-e", "x2^2 + x1")
    assert code == 0 and err == ""
    got = series_lines(out, {"U", "P", "a1", "a2"})
    assert S(got["U"], 2, 8).same_data(S("1", 2, 8))
    assert not S(got["a1"], 1, 8).terms
    assert S(got["a2"], 1, 8).same_data(S("x1", 1, 8))
    assert S(got["P"], 2, 8).same_data(S("x2^2 + x1", 2, 8))


def test_cli_holo_contract_example(capsys):
    code, out, err = run_cli(capsys, "holo", "--trunc", "12",
                             "-e", "x1^2 + x1^3")
    assert code == 0
    assert "CR: PASS" in out
    got = series_lines(out, {"u", "v", "correction"})
    assert S(got["u"], 2, 12).same_data(
        S("x1^2 - x2^2 + x1^3 - 3*x1*x2^2", 2, 12))
    assert S(got["v"], 2, 12).same_data(
        S("2*x1*x2 + 3*x1^2*x2 - x2^3", 2, 12))
    assert not S(got["correction"], 1, 12).terms


def test_cli_flat_divisor_is_a_math_error(capsys):
    code, out, err = run_cli(capsys, "divide", "--vars", "2", "--trunc", "8",
                             "--var", "2", "-g", "1", "-f", "x1")
    assert code == 3
    assert out == "" and "flat" in err


def test_cli_divide_and_implicit(capsys):
    code, out, _ = run_cli(capsys, "divide", "--vars", "2", "--trunc", "8",
                           "--var", "2", "-g", "x2^3", "-f", "x2^2 + x1")
    assert code == 0
    got = series_lines(out, {"q", "r"})
    assert S(got["q"], 2, 8).same_data(S("x2", 2, 8))
    assert S(got["r"], 2, 8).same_data(S("-1*x1*x2", 2, 8))

    code, out, _ = run_cli(capsys, "implicit", "--vars", "2", "--trunc", "6",
                           "--var", "2", "-e", "x2 - x1 - x1*x2")
    assert code == 0
    got = series_lines(out, {"solution"})
    assert S(got["solution"], 1, 6).same_data(
        Series(1, 6, {(j,): 1 for j in range(1, 7)}))


def test_cli_split_and_lemma(capsys):
    code, out, _ = run_cli(capsys, "split", "--vars", "2", "--trunc", "6",
                           "--var", "2", "-e", "(x1+x2)^2")
    assert code == 0
    got = series_lines(out, {"g0", "g1"})
    assert S(got["g0"], 2, 6).same_data(S("x1^2 + x2^2", 2, 6))
    assert S(got["g1"], 2, 6).same_data(S("2*x1*x2", 2, 6))

    code, out, _ = run_cli(capsys, "lemma", "--vars", "2", "--trunc", "12",
                           "--var", "2", "-e", "(x1+x2)^2 + (x1+x2)^3")
    assert code == 0
    got = series_lines(out, {"f0", "f1"})
    assert S(got["f0"], 2, 12).same_data(S("x2 + x1^2 + 3*x1*x2 + x1^3", 2, 12))
    assert S(got["f1"], 2, 12).same_data(S("2*x1 + x2 + 3*x1^2", 2, 12))


def test_cli_cr_check_pair_and_coeffs(capsys):
    code, out, _ = run_cli(capsys, "cr-check", "--trunc", "6",
                           "-g", "x1", "-f", "-1*x2")
    assert code == 0
    assert "CR: FAIL" in out
    got = series_lines(out, {"residual1"})
    assert S(got["residual1"], 2, 6).same_data(S("2", 2, 6))

    code, out, _ = run_cli(capsys, "cr-check", "--trunc", "6",
                           "--coeffs", "0,0,1,1,-1/2")
    assert code == 0
    assert "CR: PASS" in out


def test_cli_semigroup_reports_membership(capsys):
    code, out, _ = run_cli(capsys, "semigroup", "--vars", "2", "--trunc", "8",
                           "--var", "2", "-e", "x2^2 + x1*x2 + x1^3 + x1*x2^2")
    assert code == 0
    assert "all_member = no" in out
    assert "(2,1): member = no" in out

    code, out, _ = run_cli(capsys, "semigroup", "--vars", "2", "--trunc", "8",
                           "--var", "2", "-e", "x2^2 + x1*x2 + x1^3 + x1*x2^2",
                           "--order-shift")
    assert code == 0
    assert "all_member = yes" in out
    assert "shifts = 1" in out


def test_cli_usage_errors(capsys):
    assert run_cli(capsys, "prepare", "--vars", "2", "--trunc", "8",
                   "--var", "3", "-e", "x1")[0] == 2
    assert run_cli(capsys, "prepare", "--vars", "2", "--trunc", "8",
                   "--var", "2", "-e", "x3 + 1")[0] == 2
    assert run_cli(capsys, "prepare", "--vars", "2", "--trunc", "8",
                   "--var", "2", "-e", "x1 + ")[0] == 2
    assert run_cli(capsys, "lemma", "--vars", "2", "--trunc", "3",
                   "--var", "2", "-e", "x2^2 + x2^3")[0] == 2
    assert run_cli(capsys, "holo", "--trunc", "8")[0] == 2
    assert run_cli(capsys, "holo", "--trunc", "8", "-e", "x1^2",
                   "--coeffs", "0,0,1")[0] == 2
    assert run_cli(capsys, "holo", "--trunc", "8", "--coeffs", "0,0,one")[0] == 2
    assert run_cli(capsys, "cr-check", "--trunc", "8", "-g", "x1")[0] == 2
    assert run_cli(capsys, "divide", "--vars", "2", "--trunc", "-3",
                   "--var", "2", "-g", "1", "-f", "x2")[0] == 2
    code, _, err = run_cli(capsys, "prepare", "--vars", "2", "--trunc", "x",
                           "--var", "2", "-e", "x2")
    assert code == 2 and "not an integer: 'x'" in err
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "no-such-command")[0] == 2


@pytest.mark.parametrize("argv, flag, value", [
    (["prepare", "--vars", "2", "--trunc", "6", "--var", "2"], "-e",
     "-1*x1 + x2^2"),
    (["split", "--vars", "2", "--trunc", "4", "--var", "1"], "-e",
     "- 2 + x1"),
    (["divide", "--vars", "2", "--trunc", "6", "--var", "2", "-f",
      "x2^2 + x1"], "-g", "-3/4*x2^3"),
    (["divide", "--vars", "2", "--trunc", "6", "--var", "2", "-g", "x2^3"],
     "-f", "-1*x2^2 + x1"),
    (["cr-check", "--trunc", "6", "-g", "x1"], "-f", "-1*x2"),
    (["holo", "--trunc", "8"], "--coeffs", "-5,2,3")])
def test_cli_expression_flags_take_a_dash_led_value(capsys, argv, flag,
                                                    value):
    """A value after an expression flag may start with a signed rational:
    it reads as the same value behind ``0 + ``, which does not start with
    a minus.  ``--coeffs`` takes it in its ``=`` form."""
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(capsys, *argv, flag, "0 + " + value)


def test_cli_integer_options_report_their_bound(capsys):
    prepare = {"--vars": "2", "--trunc": "4", "--var": "1"}
    for flag, low in (("--vars", 1), ("--var", 1), ("--trunc", 0)):
        for text in ("-1", str(low - 1)):
            args = [a for key, v in {**prepare, flag: text}.items()
                    for a in (key, v)]
            code, out, err = run_cli(capsys, "prepare", *args, "-e", "x1")
            assert code == 2 and out == ""
            assert f"argument {flag}: must be >= {low}" in err


def test_cli_math_precondition_errors(capsys):
    assert run_cli(capsys, "prepare", "--vars", "2", "--trunc", "8",
                   "--var", "2", "-e", "inv(x1)")[0] == 3
    assert run_cli(capsys, "implicit", "--vars", "2", "--trunc", "8",
                   "--var", "2", "-e", "1 + x2")[0] == 3
    assert run_cli(capsys, "lemma", "--vars", "2", "--trunc", "8",
                   "--var", "2", "-e", "x2^2")[0] == 3


def test_cli_deep_nesting_exits_2(capsys):
    code, out, err = run_cli(capsys, "split", "--vars", "2", "--trunc", "4",
                             "--var", "1", "-e",
                             "(" * 5000 + "x1 + x2" + ")" * 5000)
    assert code == 2 and out == ""
    assert "nested too deeply" in err and "Traceback" not in err


def test_cli_huge_exponent_finishes_quickly():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "wseries.cli", "prepare", "--vars", "2",
         "--trunc", "8", "--var", "2", "-e", "x2 + x1^2000000000"],
        capture_output=True, text=True, env=env, timeout=20)
    assert done.returncode == 0, done.stderr
    assert "P = x2" in done.stdout


def test_cli_prepare_at_a_huge_truncation_finishes_quickly():
    # inverse and division visit only the degrees that hold terms: a
    # recurrence over every degree pair took about 1.8 s at trunc 4000, and
    # a walk over every degree up to the truncation hangs at trunc 10^9
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for trunc in ("1000000", "1000000000"):
        done = subprocess.run(
            [sys.executable, "-m", "wseries.cli", "prepare", "--vars", "2",
             "--var", "2", "--trunc", trunc, "-e", "x2 + x1"],
            capture_output=True, text=True, env=env, timeout=10)
        assert done.returncode == 0, done.stderr
        assert "P = x1 + x2" in done.stdout


@pytest.mark.parametrize("power, code", [
    ("2^2000000000", 2), ("(2 + x1)^2000000000", 2),
    ("x1^2000000000", 0), ("(1 + x1)^2000000000", 0)])
def test_cli_huge_constant_power_is_rejected_before_it_is_built(power, code):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "wseries.cli", "prepare", "--vars", "2",
         "--trunc", "8", "--var", "2", "-e", f"x2 + {power}"],
        capture_output=True, text=True, env=env, timeout=20)
    assert done.returncode == code, done.stderr
    if code == 2:
        assert done.stdout == ""
        assert done.stderr == "error: coefficient too large\n"


def test_cli_huge_power_of_a_unit_finishes_quickly():
    # (1 + x1)^n is the sum of its binomial terms up to the truncation;
    # about 14000 squarings of ever larger coefficients took 8-11 s of CPU
    # at trunc 4 and over a minute at trunc 8 (2-core x86-64 host).  Its
    # C(n, j) are too long to print.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "wseries.cli", "prepare", "--vars", "2",
         "--trunc", "8", "--var", "2", "-e", "x2 + (1+x1)^" + "9" * 4300],
        capture_output=True, text=True, env=env, timeout=20)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: coefficient too large: ")
    assert done.stderr.count("\n") == 1


def test_cli_prepare_in_32000_variables_finishes_quickly():
    # packing and decoding go digit by digit; a list of the place values
    # of all variables, built for every operation and read for every key,
    # took about 80 s of CPU (2-core x86-64 host)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "wseries.cli", "prepare", "--vars", "32000",
         "--trunc", "4", "--var", "1", "-e", "x1 + x2*x1"],
        capture_output=True, text=True, env=env, timeout=20)
    assert done.returncode == 0, done.stderr
    assert "U = 1 + x2\n" in done.stdout and "P = x1\n" in done.stdout


@pytest.mark.parametrize("command", ["holo", "cr-check"])
def test_cli_coeffs_in_exponent_notation_are_rejected_quickly(command):
    # --coeffs entries are constants of the expression grammar; reading
    # them as Fraction expanded 1e1000000 to a million-digit integer
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "wseries.cli", command, "--trunc", "4",
         "--coeffs", "0,0,1,1,1e1000000"],
        capture_output=True, text=True, env=env, timeout=20)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == "error: bad coefficient '1e1000000'\n"


def test_huge_constant_power_is_an_expression_error():
    with pytest.raises(ExpressionError, match="coefficient too large"):
        parse_series("(1/3 + x1)^20000", 1, 2)
    # a power just inside the integer string limit still evaluates
    assert parse_series("2^14000", 1, 2).constant_term() == 2 ** 14000


def test_cli_huge_printed_coefficient_exits_2(capsys):
    # each factor is printable, their product is not: the output path
    code, out, err = run_cli(capsys, "prepare", "--vars", "2", "--trunc", "4",
                             "--var", "2", "-e", "x2 + 2^10000*2^10000*x1")
    assert code == 2 and out == ""
    assert err.startswith("error: coefficient too large: ")
    assert err.count("\n") == 1


def test_cli_huge_coefficient_exits_2(capsys, monkeypatch):
    argv = ("prepare", "--vars", "2", "--trunc", "4", "--var", "2",
            "-e", "x2 + 2^20000*x1")
    for extra in ((), ("--json",)):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 2 and out == ""
        assert err.startswith("error: coefficient too large")
        assert err.count("\n") == 1
    import wseries.cli as cmod

    def other(f, k):
        raise ValueError("some other fault")

    monkeypatch.setattr(cmod, "weierstrass_prepare", other)
    with pytest.raises(ValueError, match="some other fault"):
        main(["prepare", "--vars", "2", "--trunc", "4", "--var", "2",
              "-e", "x2"])


def test_cli_help_exits_cleanly(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "prepare", "--help")[0] == 0


def test_cli_internal_invariant_maps_to_exit_4(capsys, monkeypatch):
    import wseries.cli as cmod

    def boom(f, k):
        raise InternalInvariantError("synthetic breach")

    monkeypatch.setattr(cmod, "weierstrass_prepare", boom)
    code, out, err = run_cli(capsys, "prepare", "--vars", "2", "--trunc", "8",
                             "--var", "2", "-e", "x2^2")
    assert code == 4
    assert "synthetic breach" in err


def test_cli_json_documents_are_loadable(capsys):
    code, out, _ = run_cli(capsys, "prepare", "--vars", "2", "--trunc", "8",
                           "--var", "2", "-e", "(1 + x1)*(x2^2 + x1)",
                           "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "prepare"
    unit = Series.from_dict(doc["result"]["unit"])
    assert unit == S("1 + x1", 2, 8).with_guarantee(6)

    code, out, _ = run_cli(capsys, "holo", "--trunc", "8", "-e",
                           "x1^2 + x1^3", "--json")
    doc = json.loads(out)
    assert doc["cauchy_riemann"]["passed"] is True
    assert Series.from_dict(doc["result"]["u"]).nvars == 2

    code, out, _ = run_cli(capsys, "semigroup", "--vars", "2", "--trunc", "8",
                           "--var", "2", "-e", "x2^2 + x1", "--json")
    doc = json.loads(out)
    assert doc["result"]["all_member"] is True


def test_cli_holo_echoes_normalization(capsys):
    code, out, _ = run_cli(capsys, "holo", "--trunc", "8",
                           "--coeffs", "5,2,3")
    assert code == 0
    got = series_lines(out, {"correction", "normalized"})
    assert S(got["correction"], 1, 8).same_data(
        S("-5 - 2*x1 - 2*x1^2 + x1^3", 1, 8))
    assert S(got["normalized"], 1, 8).same_data(S("x1^2 + x1^3", 1, 8))


def test_cli_holo_agrees_with_direct_route_verdict(capsys):
    # the front end's PASS must match checking the binomial expansion
    code_pipeline, out_pipeline, _ = run_cli(
        capsys, "holo", "--trunc", "8", "--coeffs", "0,0,1,1,2/3")
    code_direct, out_direct, _ = run_cli(
        capsys, "cr-check", "--trunc", "8", "--coeffs", "0,0,1,1,2/3")
    assert code_pipeline == code_direct == 0
    assert ("CR: PASS" in out_pipeline) == ("CR: PASS" in out_direct)
