"""Expression language and the command-line front end."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from support import S, random_series
from wseries import (ExpressionError, InternalInvariantError,
                     PreconditionError, Series, parse_expression,
                     parse_series)
from wseries.cli import main
from wseries.parser import Diff, Inv, Lit, Pow, Prod, Sum, Var


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

def test_ast_of_sum_with_signed_rational():
    ast = parse_expression("x1^2 + -3/2*x1*x2", 2)
    assert ast == Sum(Pow(Var(1), 2),
                      Prod((Lit(Fraction(-3, 2)), Var(1), Var(2))))


def test_ast_of_unit_inverse():
    assert parse_expression("inv(1 - x1)", 1) == Inv(Diff(Lit(Fraction(1)), Var(1)))


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
])
def test_syntax_errors_win_over_the_first_variable_out_of_range(text,
                                                                message):
    with pytest.raises(ExpressionError) as err:
        parse_expression(text, 2)
    assert str(err.value) == message


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
    assert S(got["a1"], 1, 8).is_zero()
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
    assert S(got["correction"], 1, 12).is_zero()


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
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "no-such-command")[0] == 2


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
    # recurrence over every degree pair took about 1.8 s at trunc 4000
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "wseries.cli", "prepare", "--vars", "2",
         "--var", "2", "--trunc", "1000000", "-e", "x2 + x1"],
        capture_output=True, text=True, env=env, timeout=20)
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
