"""The certificate property: an output certified through degree ``G`` must
not change through ``G`` when the inputs change only above their own
certified degrees.  Where the inputs leave the order ``d`` of the
distinguished variable uncertified (``d`` above the certified degree), the
operation must raise instead of answering."""

import random
from fractions import Fraction
from itertools import product

import pytest

from support import (S, agree_through, halves, nonzero_rational,
                     random_exponent, random_implicit_input,
                     random_lemma_input, random_normalized_h, random_order_d,
                     random_series, random_unit)
from wseries import (PreconditionError, Series, cauchy_riemann_check,
                     even_odd_split, holomorphic_extension,
                     reconstruct_split, solve_implicit, split_square,
                     weierstrass_divide, weierstrass_prepare)

#: perturbed copies compared against each input
TRIALS = 4


def perturbed(rng, s):
    """``s`` with coefficients set, added or cleared at random degrees in
    ``(guaranteed_degree, trunc]``; the certificate is kept."""
    terms = dict(s.terms)
    for _ in range(6):
        e = random_exponent(rng, s.nvars, s.guaranteed_degree + 1, s.trunc)
        terms[e] = nonzero_rational(rng) if rng.random() < 0.8 else 0
    return Series(s.nvars, s.trunc, terms, s.guaranteed_degree)


def dense_perturbed(rng, s, allowed=lambda e: True):
    """``s`` with the coefficient of every exponent of degree in
    ``(guaranteed_degree, trunc]`` that ``allowed`` admits set to a wide
    random rational ``n/m``, ``|n| < 2^40`` and ``1 <= m <= 2^20``; the
    certificate is kept.  An output coefficient that reads any of those
    terms then moves unless the new values are a root of a nonzero
    polynomial, which a random point is only with small probability
    (Schwartz, J. ACM 1980; Zippel, EUROSAM 1979), so one perturbed copy
    per input is a strong test."""
    terms = dict(s.terms)
    for e in product(range(s.trunc + 1), repeat=s.nvars):
        if s.guaranteed_degree < sum(e) <= s.trunc and allowed(e):
            terms[e] = Fraction(rng.randrange(1 - 2 ** 40, 2 ** 40),
                                rng.randint(1, 2 ** 20))
    return Series(s.nvars, s.trunc, terms, s.guaranteed_degree)


def outcome(outputs, inputs, k):
    """``outputs(*inputs, k)``, or ``None`` when it raises
    ``PreconditionError``."""
    try:
        return outputs(*inputs, k)
    except PreconditionError:
        return None


def assert_certified(rng, outputs, inputs, k, order):
    """Compare ``outputs(*inputs, k)`` with the outputs on perturbed inputs
    through each output's certified degree.  An outcome may be
    ``PreconditionError`` only when ``order`` (the order in x_k that the
    operation reads) lies above the certified degree of an input."""
    may_raise = order > min(s.guaranteed_degree for s in inputs)
    base = outcome(outputs, inputs, k)
    for _ in range(TRIALS):
        bent = outcome(outputs, [perturbed(rng, s) for s in inputs], k)
        if base is None or bent is None:
            assert may_raise, (inputs, base, bent)
            continue
        for a, b in zip(base, bent):
            assert a.guaranteed_degree == b.guaranteed_degree
            assert agree_through(a, b, a.guaranteed_degree), (inputs, a, b)


def by_read_map(gd, trunc, read):
    """The certificate of an output whose term of degree ``D`` reads input
    terms of degree at most ``a*D + b``, for ``read = (a, b)``, from inputs
    certified through ``gd``: ``(gd - b) // a``, capped at ``trunc``; ``-1``
    certifies nothing, and no certificate lies below it."""
    a, b = read
    return max(-1, min((gd - b) // a, trunc))


def certified_below_trunc(rng, s):
    return s.with_guarantee(rng.randint(0, s.trunc - 1))


def implicit(f, k):
    return [solve_implicit(f, k)]


def division(g, f, k):
    result = weierstrass_divide(g, f, k)
    return [result.quotient, result.remainder]


def preparation(f, k):
    result = weierstrass_prepare(f, k)
    return [result.unit, result.poly.expand(), *result.poly.coeffs]


def square_split(f, k):
    result = split_square(f, k)
    return [result.f0, result.f1]


#: a known defect, kept visible: strict, so a fix must remove the marker
UNSOUND_ABOVE_ORDER_1 = pytest.mark.xfail(strict=True, reason=(
    "for d >= 2 the certificate min(G_g, G_f) - d of division and "
    "preparation is too large: an output term of total degree D can read "
    "input terms of degree up to d*(D + 1)"))


def test_implicit_solution_is_certified_through_the_input():
    """One degree more than division at order 1 certifies."""
    rng = random.Random(4101)
    for nvars in (2, 3):
        for trunc in range(1, 9):
            k = rng.randint(1, nvars)
            f = certified_below_trunc(
                rng, random_implicit_input(rng, nvars, trunc, k))
            assert_certified(rng, implicit, [f], k, 1)


@pytest.mark.parametrize("d", [
    0, 1, pytest.param(2, marks=UNSOUND_ABOVE_ORDER_1),
    pytest.param(3, marks=UNSOUND_ABOVE_ORDER_1)])
def test_division_and_preparation_are_certified(d):
    rng = random.Random(4102 + d)
    for nvars in (2, 3):
        for trunc in range(2, 9):
            for _ in range(3):
                k = rng.randint(1, nvars)
                g = certified_below_trunc(
                    rng, random_series(rng, nvars, trunc))
                f = certified_below_trunc(
                    rng, random_order_d(rng, nvars, trunc, k, d))
                assert_certified(rng, division, [g, f], k, d)
                assert_certified(rng, preparation, [f], k, d)


@UNSOUND_ABOVE_ORDER_1
def test_order_3_unit_is_certified_through_degree_2():
    """``x2^3 + x1`` and ``x2^3 + x1 + c*x2^6`` agree through degree 5, so
    their units, certified through 5 - 3 = 2, should agree through 2.  The
    unit is ``1 + c*(x2^3 + phi(x1))`` with ``phi = -x1 - c*x1^2 - ...``:
    its x1 coefficient is ``-c``, read from degree 6."""
    units = [weierstrass_prepare(S(text, 2, 6).with_guarantee(5), 2).unit
             for text in ("x2^3 + x1", "x2^3 + x1 + x2^6")]
    assert units[0].guaranteed_degree == 2
    assert agree_through(units[0], units[1], 2)


def test_square_split_is_certified():
    """The descent reads the axis profile through ``x_k^3``: its odd part
    is prepared at order 2 after one degree is spent dividing by x_k."""
    rng = random.Random(4104)
    for nvars in (1, 2, 3):
        for trunc in range(4, 9):
            k = rng.randint(1, nvars)
            f = certified_below_trunc(
                rng, random_lemma_input(rng, nvars, trunc, k))
            assert_certified(rng, square_split, [f], k, 3)


@pytest.mark.xfail(strict=True, reason=(
    "the f0/f1 certificate G - 4 counts the squared variable once, but "
    "f0's t^j coefficient is f's x_k^(2j) coefficient, f1's its x_k^(2j+1): "
    "unsound once G >= 8"))
def test_descended_series_are_certified_in_the_squared_variable():
    """``f0`` of ``x2^2 + x2^3 + c*x2^12`` holds ``c`` at ``t^6``; with
    ``f`` certified through 10, ``f0`` claims degree 10 - 4 = 6."""
    splits = [split_square(S(text, 2, 14).with_guarantee(10), 2)
              for text in ("x2^2 + x2^3", "x2^2 + x2^3 + x2^12")]
    assert splits[0].f0.guaranteed_degree == 6
    assert agree_through(splits[0].f0, splits[1].f0, 6)


def test_square_split_below_certified_degree_3_is_rejected():
    """The odd part, divided by x_k, is prepared at order 2 with one
    degree of certificate spent, so ``f`` must be certified through 3."""
    f = random_lemma_input(random.Random(4112), 2, 6, 2)
    with pytest.raises(PreconditionError, match="certified degree 1"):
        split_square(f.with_guarantee(2), 2)
    assert split_square(f.with_guarantee(3), 2).guaranteed_degree == -1


# ----------------------------------------------------------------------
# the exponent rewrites under dense perturbation
# ----------------------------------------------------------------------

#: name -> (the outputs of an input ``f`` and an index ``k``, the exponents
#: ``f`` may hold (``None``: any), the read map ``(a, b)`` of the first
#: output: its term of degree ``D`` reads ``f`` at degree at most ``a*D + b``)
REWRITES = {
    "derivative": (lambda f, k: [f.derivative(k)], None, (1, 1)),
    "coefficient_series": (
        lambda f, k: [f.coefficient_series(k, j) for j in (2, 1, 0)], None,
        (1, 2)),
    "even_odd_split": (lambda f, k: [*even_odd_split(f, k)], None, (1, 0)),
    "coefficient_series_x_k_free": (
        lambda f, k: [f.coefficient_series(k, 0)],
        lambda e, k: e[k - 1] == 0, (1, 0)),
    "halves_even_weight_2": (
        lambda f, k: halves(f, k, 2, f.trunc - 1), None, (1, 0)),
    "halves_odd_over_x_k": (
        lambda f, k: halves(f, k, 1, f.trunc)[::-1], None, (1, 1)),
}


@pytest.mark.parametrize("name", REWRITES)
def test_exponent_rewrites_are_certified_under_dense_perturbation(name):
    """Each rewrite of an input certified through any ``G`` from 0 up,
    against the same rewrite of a dense perturbation of it: the first
    output is certified by the row's read map (through ``-1``, nothing,
    where the map reads above ``G``), and the outputs keep their
    certificates and agree through them."""
    outputs, allowed, read = REWRITES[name]
    rng = random.Random(f"rewrite:{name}")
    for _ in range(30):
        nvars, trunc = rng.randint(1, 3), rng.randint(2, 8)
        k = rng.randint(1, nvars)
        keep = (lambda e: allowed(e, k)) if allowed else (lambda e: True)
        terms = random_series(rng, nvars, trunc).terms
        terms = {e: c for e, c in terms.items() if keep(e)}
        f = Series(nvars, trunc, terms, rng.randint(0, trunc))
        base, bent = outputs(f, k), outputs(dense_perturbed(rng, f, keep), k)
        assert base[0].guaranteed_degree == by_read_map(
            f.guaranteed_degree, base[0].trunc, read)
        for a, b in zip(base, bent, strict=True):
            assert a.guaranteed_degree == b.guaranteed_degree
            assert agree_through(a, b, a.guaranteed_degree), (f, a, b)


def test_a_rewrite_spending_more_than_its_certificate_claims_nothing():
    """``x1 + x2`` and ``2*x1 + x2`` certified through 0 compare ``==``.
    Their ``derivative(1)``s, 1 and 2, and their ``coefficient_series(1,
    1)``s read degree 1, which neither input certifies, so each claims
    nothing (``-1``) and they compare ``==`` too."""
    a, b = (S(text, 2, 4).with_guarantee(0)
            for text in ("x1 + x2", "2*x1 + x2"))
    assert a == b
    assert a.derivative(1) == b.derivative(1)
    assert a.coefficient_series(1, 1) == b.coefficient_series(1, 1)


# ----------------------------------------------------------------------
# the operations under dense perturbation
# ----------------------------------------------------------------------

def first_difference(a, b):
    """The least total degree at which ``a`` and ``b`` differ, or ``None``
    when their tables are equal."""
    return min((sum(e) for e in a.terms.keys() | b.terms.keys()
                if a.coefficient(e) != b.coefficient(e)), default=None)


def certified(rng, s, lowest=0):
    """``s`` certified through a random degree from ``lowest`` up."""
    return s.with_guarantee(rng.randint(lowest, s.trunc))


def space(rng, nvars=(1, 3), trunc=(2, 8)):
    """``(nvars, trunc, k)`` drawn from the two ranges, ``k`` one of the
    variables."""
    nvars = rng.randint(*nvars)
    return nvars, rng.randint(*trunc), rng.randint(1, nvars)


def pair(rng):
    nvars, trunc, k = space(rng)
    return [certified(rng, random_series(rng, nvars, trunc))
            for _ in range(2)], k


def unit(rng):
    nvars, trunc, k = space(rng)
    return [certified(rng, random_unit(rng, nvars, trunc))], k


def power(rng):
    """A series and, in place of ``k``, an exponent."""
    nvars, trunc, _ = space(rng)
    return [certified(rng, random_series(rng, nvars, trunc))], rng.randint(
        0, 5)


def substituends(rng):
    """``f`` in ``m`` variables, then ``m`` series in ``n`` variables that
    vanish at the origin."""
    (m, trunc, k), n = space(rng), rng.randint(1, 3)
    return [certified(rng, s) for s in [random_series(rng, m, trunc)] + [
        random_series(rng, n, trunc, 4, min_degree=1) for _ in range(m)]], k


def substitution(rng):
    nvars, trunc, k = space(rng, nvars=(2, 3))
    return [certified(rng, random_series(rng, nvars, trunc)), certified(
        rng, random_series(rng, nvars - 1, trunc, 4, min_degree=1))], k


def implicit_input(rng):
    nvars, trunc, k = space(rng)
    return [certified(rng, random_implicit_input(rng, nvars, trunc, k))], k


def order_d(d, dividend):
    """Inputs of order ``d`` in x_k, certified through at least ``d``:
    ``[g, f]`` when ``dividend``, else ``[f]``."""
    def make(rng):
        nvars, trunc, k = space(rng, trunc=(max(2, d), 8))
        f = random_order_d(rng, nvars, trunc, k, d)
        g = random_series(rng, nvars, trunc)
        return [certified(rng, s, d) for s in [g, f][not dividend:]], k
    return make


def lemma_input(nvars_range, trunc_range):
    """Split inputs in the two ranges, certified through at least 3."""
    def make(rng):
        nvars, trunc, k = space(rng, nvars_range, trunc_range)
        f = random_lemma_input(rng, nvars, trunc, k)
        return [certified(rng, f, 3)], k
    return make


def normalized_h(rng):
    return [certified(rng, random_normalized_h(rng, rng.randint(4, 8)), 3)], 1


def extension(h, k):
    ext = holomorphic_extension(h)
    return [ext.u, ext.v]


def extension_residuals(h, k):
    report = cauchy_riemann_check(holomorphic_extension(h))
    return [report.residual1, report.residual2]


#: name -> (a maker of ``(inputs, k)`` from a seeded rng, the outputs of
#: ``(*inputs, k)``, the read map ``(a, b)`` of the first output's
#: certificate from the least input certificate); each input is certified
#: at random, from the least degree the operation admits through its
#: truncation
DENSE = {
    "*": (pair, lambda f, g, k: [f * g], (1, 0)),
    "+": (pair, lambda f, g, k: [f + g], (1, 0)),
    "inverse": (unit, lambda f, k: [f.inverse()], (1, 0)),
    "compose": (substituends, lambda f, *gs_k: [f.compose(gs_k[:-1])],
                (1, 0)),
    "substitute": (substitution, lambda f, s, k: [f.substitute(k, s)],
                   (1, 0)),
    "**": (power, lambda f, n: [f ** n], (1, 0)),
    "solve_implicit": (implicit_input, implicit, (1, 0)),
    "reconstruct_split": (
        lemma_input((1, 3), (4, 8)),
        lambda f, k: [reconstruct_split(split_square(f, k), k)], (1, 4)),
    "holomorphic_extension": (normalized_h, extension, (1, 4)),
    # the residuals differentiate u and v: (1, 4), then (1, 1)
    "cauchy_riemann_check": (normalized_h, extension_residuals, (1, 5)),
}
for d in (1, 2, 3):
    DENSE[f"division, d = {d}"] = (order_d(d, True), division, (1, d))
    DENSE[f"preparation, d = {d}"] = (order_d(d, False), preparation, (1, d))
# f1 is first disturbed at degree ceil(G/2), inside G - 4 from G = 8 on, so
# only a trunc of 9 or more can show it; 3 variables there take 1.5 s
DENSE["split_square f0/f1"] = (lemma_input((1, 2), (9, 10)), square_split,
                               (1, 4))

#: the rows of a known defect, each a strict xfail that names its item
DEFECTS = {
    **dict.fromkeys(
        ("division, d = 2", "division, d = 3", "preparation, d = 2",
         "preparation, d = 3"),
        "ROADMAP item 1: for d >= 2 the read map (1, d) of division and "
        "preparation certifies too much; (d, d), floor(G/d) - 1, is sound"),
    "split_square f0/f1": (
        "ROADMAP item 9: the f0/f1 read map (1, 4) certifies too much once "
        "G >= 8; f1 is first disturbed at degree ceil(G/2)"),
}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=DEFECTS[name]))
    if name in DEFECTS else name for name in DENSE])
def test_operations_are_certified_under_dense_perturbation(
        name, record_property):
    """30 seeded trials of each operation against the same operation on a
    dense perturbation of every input: the first output is certified by
    the row's read map, and the outputs keep their certificates and agree
    through them.  The row's read map and slack, the least over its
    outputs of the lowest disturbed degree, minus one, minus the
    certificate, are recorded (``-v`` lists them), with the number of
    trials disturbed within the certificate."""
    make, outputs, read = DENSE[name]
    rng = random.Random(f"dense:{name}")
    slacks, disturbed = [], 0
    for _ in range(30):
        inputs, k = make(rng)
        base = outputs(*inputs, k)
        bent = outputs(*[dense_perturbed(rng, s) for s in inputs], k)
        assert base[0].guaranteed_degree == by_read_map(
            min(s.guaranteed_degree for s in inputs), base[0].trunc, read)
        assert [a.guaranteed_degree for a in base] == [
            b.guaranteed_degree for b in bent]
        trial = [lowest - 1 - a.guaranteed_degree
                 for a, b in zip(base, bent, strict=True)
                 if (lowest := first_difference(a, b)) is not None]
        slacks += trial
        disturbed += min(trial, default=0) < 0
    record_property("slack", f"read {read}, slack "
                             f"{min(slacks, default='none')}, "
                             f"{disturbed} of 30 disturbed within it")
    assert not disturbed
