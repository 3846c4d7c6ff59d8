"""End-to-end acceptance gates for the library and CLI.

Eight criteria, one test each, at fixed tolerances; run ``pytest -v`` to
get a pass/fail line per criterion.  Randomised suites are seeded, so
every run checks the same cases.  Case generators are cached because the
support-membership gate (criterion 6) re-examines every preparation
performed by the earlier gates.

Criterion 6 asserts the strict containment claim: every support exponent
of a prepared polynomial lies in the semigroup of nonempty generator
sums.  That claim is FALSE for this algorithm (see the companion test:
closing the semigroup under the distinguished-monomial shift is what the
division recursion actually guarantees), so the strict gate fails on a
reproducible counterexample and is expected to stay red.
"""

import random
import time
from functools import lru_cache

from support import (S, agree_through, descent_polynomials,
                     random_even_order2, random_implicit_input,
                     random_lemma_input, random_normalized_h, random_order_d,
                     random_series, square_window, witness_is_valid)
from wseries import (Series, cauchy_riemann_check, direct_complexification,
                     divide_by_variable, even_odd_split, halve_exponents,
                     holomorphic_extension, parse_series, reconstruct_split,
                     semigroup_check, solve_implicit, split_square,
                     weierstrass_divide, weierstrass_prepare)
from wseries.cli import main

N = 12
SEED = 20260814


# ----------------------------------------------------------------------
# shared case generators (cached: criterion 6 audits these preparations)
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def prepared_cases():
    rng = random.Random(SEED + 2)
    cases = []
    for i in range(100):
        nvars = 3 if i % 5 == 0 else 2
        even = i % 10 < 3
        if even:
            f = random_even_order2(rng, nvars, N, nvars, nterms=8)
        else:
            f = random_order_d(rng, nvars, N, nvars, 2, nterms=8)
        cases.append((f, nvars, even, weierstrass_prepare(f, nvars)))
    return tuple(cases)


@lru_cache(maxsize=None)
def lemma_cases():
    rng = random.Random(SEED + 3)
    cases = []
    for i in range(50):
        nvars = 3 if i % 5 == 0 else 2
        f = random_lemma_input(rng, nvars, N, nvars, nterms=7)
        sp, pairs = descent_polynomials(split_square, f, nvars)
        cases.append((f, nvars, sp, pairs))
    return tuple(cases)


@lru_cache(maxsize=None)
def extension_cases():
    rng = random.Random(SEED + 4)
    cases = []
    for _ in range(50):
        h = random_normalized_h(rng, N, density=0.55)
        ext, pairs = descent_polynomials(holomorphic_extension, h)
        cases.append((h, ext, pairs))
    return tuple(cases)


#: 100 direct preparations, then 2 square descents per lemma case and per
#: extension case (50 of each)
PIPELINE_PREPARATIONS = 100 + 2 * 50 + 2 * 50


def all_pipeline_preparations():
    """``(F, P)``: every series prepared by the earlier gates, with its
    distinguished polynomial."""
    preps = [(f, prep.poly) for f, _, _, prep in prepared_cases()]
    for _, _, _, pairs in lemma_cases():
        preps.extend(pairs)
    for _, _, pairs in extension_cases():
        preps.extend(pairs)
    return preps


# ----------------------------------------------------------------------
# criterion 1: division identity suite
# ----------------------------------------------------------------------

def test_criterion_1_division_identity_suite():
    start = time.monotonic()
    rng = random.Random(SEED + 1)
    for i in range(100):
        nvars = 3 if i % 4 == 0 else 2
        d = 1 + i % 3
        g = random_series(rng, nvars, N, nterms=10)
        f = random_order_d(rng, nvars, N, nvars, d, nterms=7)
        result = weierstrass_divide(g, f, nvars)
        residual = g - (result.quotient * f + result.remainder)
        assert residual.vanishes_through(N - d)
        assert all(e[nvars - 1] < d for e in result.remainder.support())
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 1: 100 divisions, identity to N-d, "
          f"remainder degree bounded, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# criterion 2: preparation suite
# ----------------------------------------------------------------------

def test_criterion_2_preparation_suite():
    even_seen = 0
    for f, nvars, even, prep in prepared_cases():
        assert prep.unit.constant_term() != 0
        assert all(a.constant_term() == 0 for a in prep.poly.coeffs)
        back = prep.unit * prep.poly.expand() - f
        assert back.vanishes_through(10)
        if even:
            even_seen += 1
            assert prep.poly.coeffs[0].vanishes_through(10)
    assert even_seen == 30
    print(f"criterion 2: 100 preparations multiply back to degree 10; "
          f"odd coefficient vanishes on all {even_seen} even inputs")


# ----------------------------------------------------------------------
# criterion 3: square-descent suite
# ----------------------------------------------------------------------

def test_criterion_3_square_descent_suite():
    for f, nvars, sp, _ in lemma_cases():
        diff = reconstruct_split(sp, nvars) - f
        assert diff.vanishes_through(8)
        g0, g1 = even_odd_split(f, nvars)
        oracle0 = halve_exponents(g0, nvars)
        oracle1 = halve_exponents(divide_by_variable(g1, nvars), nvars)
        assert square_window(sp.f0, 8) == square_window(oracle0, 8)
        assert square_window(sp.f1, 8) == square_window(oracle1, 8)
    print("criterion 3: 50 descents reconstruct to degree 8 and agree "
          "with the exponent-halving oracle on the degree-8 window")


# ----------------------------------------------------------------------
# criterion 4: Cauchy-Riemann suite
# ----------------------------------------------------------------------

def test_criterion_4_cauchy_riemann_suite():
    for h, ext, _ in extension_cases():
        report = cauchy_riemann_check(ext)
        assert report.residual1.vanishes_through(7)
        assert report.residual2.vanishes_through(7)
        assert report.passed
        direct = direct_complexification(h)
        assert agree_through(ext.u, direct.u, 8)
        assert agree_through(ext.v, direct.v, 8)
    print("criterion 4: 50 extensions satisfy Cauchy-Riemann to degree 7 "
          "and match the binomial route to degree 8")


# ----------------------------------------------------------------------
# criterion 5: closed-form witness
# ----------------------------------------------------------------------

def test_criterion_5_closed_form_witness():
    h = S("x1^2 + x1^3", 1, N)
    ext = holomorphic_extension(h)
    assert ext.u.same_data(S("x1^2 - x2^2 + x1^3 - 3*x1*x2^2", 2, N))
    assert ext.v.same_data(S("2*x1*x2 + 3*x1^2*x2 - x2^3", 2, N))
    assert ext.u.coefficient_series(2, 0).same_data(h)
    print("criterion 5: u, v of x^2 + x^3 match the closed forms exactly "
          "and u restricts to h on the axis")


# ----------------------------------------------------------------------
# criterion 6: support-semigroup containment (strict; expected red)
# ----------------------------------------------------------------------

def test_criterion_6_semigroup_containment():
    preps = all_pipeline_preparations()
    assert len(preps) == PIPELINE_PREPARATIONS
    falsified = []
    total = 0
    for F, poly in preps:
        total += 1
        report = semigroup_check(poly, F)
        for check in report.checks:
            assert witness_is_valid(check)
        if not report.all_member:
            falsified.append((report.failures()[0].exponent,
                              tuple(report.generators)))
    print(f"criterion 6: strict containment checked on {total} "
          f"preparations, falsified on {len(falsified)}")
    assert not falsified, (
        f"strict semigroup containment is falsified on {len(falsified)} of "
        f"{total} preparations; first counterexample: exponent "
        f"{falsified[0][0]} is not a nonempty sum of the generators "
        f"{list(falsified[0][1])} (see the shifted companion test for the "
        f"containment the division recursion does guarantee)")


def test_criterion_6_companion_shift_closed_containment():
    preps = all_pipeline_preparations()
    assert len(preps) == PIPELINE_PREPARATIONS
    for F, poly in preps:
        report = semigroup_check(poly, F, order_shift=True)
        assert report.all_member
        shift = tuple(poly.d if i == poly.k - 1 else 0
                      for i in range(F.nvars))
        for check in report.checks:
            assert witness_is_valid(check, shift)
    print("criterion 6 companion: containment holds for every preparation "
          "once the semigroup is closed under the distinguished shift")


# ----------------------------------------------------------------------
# criterion 7: implicit-function suite
# ----------------------------------------------------------------------

def test_criterion_7_implicit_function_suite():
    rng = random.Random(SEED + 5)
    for i in range(50):
        nvars = 3 if i % 5 == 0 else 2
        k = rng.randint(1, nvars)
        f = random_implicit_input(rng, nvars, N, k, nterms=8)
        phi = solve_implicit(f, k)
        assert f.substitute(k, phi).vanishes_through(N)
    phi = solve_implicit(S("x2 - x1 - x1*x2", 2, N), 2)
    assert phi.same_data(Series(1, N, {(j,): 1 for j in range(1, N + 1)}))
    print("criterion 7: 50 implicit solutions substitute back to degree 12; "
          "the geometric worked case is exact")


# ----------------------------------------------------------------------
# criterion 8: CLI round-trip and exit codes
# ----------------------------------------------------------------------

BINOMIAL = "(x1+x2)^2 + (x1+x2)^3"

CLI_CORPUS = [
    (["prepare", "--vars", "2", "--trunc", "8", "--var", "2",
      "-e", "x2^2 + x1"], 0),
    (["prepare", "--vars", "2", "--trunc", "8", "--var", "2",
      "-e", "(1 + x1)*(x2^2 + x1)"], 0),
    (["prepare", "--vars", "3", "--trunc", "10", "--var", "3",
      "-e", "x3^3 + x1*x3 + x2^2"], 0),
    (["prepare", "--vars", "2", "--trunc", "8", "--var", "2",
      "-e", "2 + x1 + x2"], 0),
    (["divide", "--vars", "2", "--trunc", "8", "--var", "2",
      "-g", "x2^3", "-f", "x2^2 + x1"], 0),
    (["divide", "--vars", "2", "--trunc", "12", "--var", "2",
      "-g", "x1^2 + 5*x2^4 - x1*x2", "-f", "x2^2 + x1*x2 - 3*x1^3"], 0),
    (["implicit", "--vars", "2", "--trunc", "12", "--var", "2",
      "-e", "x2 - x1 - x1*x2"], 0),
    (["implicit", "--vars", "3", "--trunc", "8", "--var", "1",
      "-e", "3*x1 - x2*x3 + x1^2*x2"], 0),
    (["split", "--vars", "2", "--trunc", "6", "--var", "2",
      "-e", BINOMIAL], 0),
    (["lemma", "--vars", "2", "--trunc", "12", "--var", "2",
      "-e", BINOMIAL], 0),
    (["lemma", "--vars", "2", "--trunc", "12", "--var", "2",
      "-e", "x2^2 + x2^3 + x1^5 - 2*x1^2*x2^4"], 0),
    (["holo", "--trunc", "12", "-e", "x1^2 + x1^3"], 0),
    (["holo", "--trunc", "10", "--coeffs", "5,2,3,0,1/2"], 0),
    (["cr-check", "--trunc", "8", "-g", "x1^2 - x2^2", "-f", "2*x1*x2"], 0),
    (["cr-check", "--trunc", "8", "-g", "x1", "-f", "-1*x2"], 0),
    (["cr-check", "--trunc", "8", "--coeffs", "1,2,3/4,0,5"], 0),
    (["semigroup", "--vars", "2", "--trunc", "8", "--var", "2",
      "-e", "x2^2 + x1"], 0),
    (["semigroup", "--vars", "2", "--trunc", "10", "--var", "2",
      "-e", "x2^2 + x1*x2 + x1^3 + x1*x2^2", "--order-shift"], 0),
    # usage and parse errors
    (["divide", "--vars", "2", "--trunc", "8", "--var", "2",
      "-g", "1", "-f", "x1 +"], 2),
    (["prepare", "--vars", "2", "--trunc", "8", "--var", "2",
      "-e", "x3"], 2),
    (["prepare", "--vars", "2", "--trunc", "8", "--var", "5",
      "-e", "x1"], 2),
    (["lemma", "--vars", "2", "--trunc", "3", "--var", "2",
      "-e", "x2^2 + x2^3"], 2),
    (["holo", "--trunc", "8"], 2),
    ([], 2),
    # mathematical precondition violations
    (["divide", "--vars", "2", "--trunc", "8", "--var", "2",
      "-g", "1", "-f", "x1"], 3),
    (["prepare", "--vars", "2", "--trunc", "8", "--var", "2",
      "-e", "inv(x2)"], 3),
    (["implicit", "--vars", "2", "--trunc", "8", "--var", "2",
      "-e", "x2^2 - x1"], 3),
    (["lemma", "--vars", "2", "--trunc", "8", "--var", "2",
      "-e", "x2^2"], 3),
]

SERIES_LABELS = {"U", "P", "q", "r", "g0", "g1", "f0", "f1"}
REDUCED_LABELS = {"solution"}
PLANE_LABELS = {"u", "v", "residual1", "residual2"}
LINE_LABELS = {"correction", "normalized"}


def _label_space(command, label, nvars):
    if label in SERIES_LABELS or (label.startswith("a") and label[1:].isdigit()
                                  and command == "prepare"):
        if label.startswith("a") and command == "prepare":
            return nvars - 1
        return nvars
    if label in REDUCED_LABELS:
        return nvars - 1
    if label in PLANE_LABELS:
        return 2
    if label in LINE_LABELS:
        return 1
    return None


def test_criterion_8_cli_round_trip_and_exit_codes(capsys):
    reparsed = 0
    for argv, expected in CLI_CORPUS:
        code = main(list(argv))
        out = capsys.readouterr().out
        assert code == expected, f"{argv} exited {code}, expected {expected}"
        if expected != 0:
            assert out == ""  # diagnostics go to stderr only
            continue
        command = argv[0]
        nvars = int(argv[argv.index("--vars") + 1]) if "--vars" in argv else 2
        trunc = int(argv[argv.index("--trunc") + 1])
        for line in out.splitlines():
            if " = " not in line:
                continue
            label, _, value = line.partition(" = ")
            space = _label_space(command, label, nvars)
            if space is None:
                continue
            series = parse_series(value, space, trunc)
            assert series.canonical() == value
            reparsed += 1
    assert reparsed >= 40
    print(f"criterion 8: {len(CLI_CORPUS)} invocations matched the exit-code "
          f"contract; {reparsed} printed series re-parse canonically")
