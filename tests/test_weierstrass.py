"""Division with remainder and unit-times-distinguished-polynomial
factorization, distinguished in a chosen variable."""

import random
import sys

import pytest

import wseries.weierstrass as wmod
from support import (S, exported, identical, in_key_order, kernel_spaces,
                     kernel_table, random_even_order2, random_implicit_input,
                     random_normalized_h, random_order_d, random_series,
                     reference_division_loop, truncated, wide_coeff)
from wseries import (DistinguishedPoly, InternalInvariantError,
                     PreconditionError, Series, holomorphic_extension, series,
                     solve_implicit, weierstrass_divide, weierstrass_prepare)


def divides_back(g, f, result):
    residual = g - (result.quotient * f + result.remainder)
    return residual.vanishes_through(result.guaranteed_degree)


# ----------------------------------------------------------------------
# division
# ----------------------------------------------------------------------

def test_self_division_is_trivial():
    f = S("x2^2 + x1", 2, 8)
    result = weierstrass_divide(f, f, 2)
    assert result.quotient.same_data(S("1", 2, 8))
    assert result.remainder.is_zero()
    assert result.d == 2


def test_division_of_cube_by_distinguished_quadratic():
    g = S("x2^3", 2, 8)
    f = S("x2^2 + x1", 2, 8)
    result = weierstrass_divide(g, f, 2)
    assert result.quotient == S("x2", 2, 8).with_guarantee(6)
    assert result.remainder == S("-1*x1*x2", 2, 8).with_guarantee(6)
    assert divides_back(g, f, result)


def test_division_of_one_leaves_it_in_the_remainder():
    g = S("1", 2, 8)
    f = S("x2^2 + x1", 2, 8)
    result = weierstrass_divide(g, f, 2)
    assert result.quotient.is_zero()
    assert result.remainder.same_data(g)


def test_division_by_unit_is_multiplication_by_inverse():
    g = S("x1 + x2^2", 2, 8)
    f = S("2 + x1", 2, 8)
    result = weierstrass_divide(g, f, 2)
    assert result.d == 0
    assert result.remainder.is_zero()
    assert divides_back(g, f, result)


def test_division_requires_finite_order():
    with pytest.raises(PreconditionError):
        weierstrass_divide(S("1", 2, 8), S("x1", 2, 8), 2)


def test_division_requires_matching_spaces():
    with pytest.raises(ValueError):
        weierstrass_divide(S("x1", 1, 8), S("x1 + x2^2", 2, 8), 2)


def test_division_identity_and_remainder_bound_random():
    rng = random.Random(41)
    for _ in range(25):
        nvars = rng.choice((2, 3))
        d = rng.randint(1, 3)
        g = random_series(rng, nvars, 10, nterms=9)
        f = random_order_d(rng, nvars, 10, nvars, d, nterms=7)
        result = weierstrass_divide(g, f, nvars)
        assert result.guaranteed_degree == 10 - d
        assert divides_back(g, f, result)
        assert all(e[nvars - 1] < d for e in result.remainder.support())


def _fixpoint_preparation(f, k, d):
    """The outputs of preparation and, at ``d = 1``, of implicit solving,
    from :func:`reference_division_loop` dividing ``x_k^d`` by ``f``:
    ``U`` inverts its quotient, the rest is read off its remainder."""
    if d == 0:
        return [f]
    n, prepared = f.nvars, f.guaranteed_degree - d
    expo = tuple(d if i == k - 1 else 0 for i in range(n))
    quot, rem, unit_inv = reference_division_loop(
        Series.monomial(expo, n, f.trunc), f, k, d)
    outs = [(quot * unit_inv).with_guarantee(prepared).inverse()]
    outs += [-rem.with_guarantee(prepared).coefficient_series(k, d - i)
             for i in range(1, d + 1)]
    if d == 1:
        assert not any(e[k - 1] for e in rem.terms), rem
        outs.append(
            rem.coefficient_series(k, 0).with_guarantee(f.guaranteed_degree))
    return outs


def test_division_across_truncations_divides_at_the_smaller_one():
    """Operands at different truncations divide as their copies truncated
    at the smaller one: the terms past it are not read."""
    rng = random.Random(43)
    for d in range(4):
        for _ in range(10):
            nvars = rng.choice((1, 2, 3))
            k = rng.randint(1, nvars)
            low, high = rng.randint(max(d, 1), 7), rng.randint(8, 10)
            g = random_series(rng, nvars, high, nterms=9)
            f = random_order_d(rng, nvars, high, k, d, nterms=7)
            f = f.with_guarantee(rng.randint(d, high))
            common = weierstrass_divide(truncated(g, low), truncated(f, low),
                                        k)
            for a, b in ((truncated(g, low), f), (g, truncated(f, low))):
                div = weierstrass_divide(a, b, k)
                assert identical(div.quotient, common.quotient), (a, b, k)
                assert identical(div.remainder, common.remainder), (a, b, k)


def test_division_loop_matches_fixpoint_reference():
    """The graded division loop against the whole-series fixpoint it
    replaced: nvars 0-4 at trunc 0-12 with every k, and nvars 32 at trunc
    0-4 with k in {1, 2, 4, 32}; d 0-3; numerators and denominators up to
    2^40; an x_k^d coefficient of ``f`` (the constant term of ``high``)
    that is negative at every odd truncation; ``g`` of 0, 1 and 6 terms;
    certificates below the truncation.  ``quot`` and ``rem`` agree in table
    and truncation, and the loop's ``high`` is the inverse of the
    fixpoint's ``unit_inv``; the loop forms no certificate.  Certificates
    are compared through ``weierstrass_divide`` (its quotient against ``f``
    is ``quot * unit_inv``), ``weierstrass_prepare`` and
    ``solve_implicit`` against the same outputs built from the fixpoint's
    loop.  Every table the loop and those three return is in key order."""
    rng = random.Random(4201)
    for nvars, trunc in kernel_spaces():
        ks = range(1, min(nvars, 4) + 1) if nvars < 32 else (1, 2, 4, 32)
        for k in ks:
            for d in range(min(trunc, 3) + 1):
                axis = tuple(d if i == k - 1 else 0 for i in range(nvars))
                extra = kernel_table(rng, nvars, trunc, 5, lo=1).terms
                f = Series(nvars, trunc, {
                    **{e: c for e, c in extra.items() if e[k - 1] >= d
                       or any(v for i, v in enumerate(e) if i != k - 1)},
                    axis: (-1) ** trunc * abs(wide_coeff(rng))})
                f = f.with_guarantee(rng.randint(d, trunc))
                prep = weierstrass_prepare(f, k)
                outs = [prep.unit, *prep.poly.coeffs,
                        *([solve_implicit(f, k)] if d == 1 else [])]
                expected = _fixpoint_preparation(f, k, d)
                assert len(outs) == len(expected), (f, k)
                assert all(map(identical, outs, expected)), (f, k)
                for size in (0, 1, 6):
                    g = kernel_table(rng, nvars, trunc, size)
                    g = g.with_guarantee(rng.randint(d, trunc))
                    *loop, high, keys = series._division_loop(g, f, k, d)
                    new = [keys.series(t, 0)  # uncertified
                           for t in (*loop, [high])]
                    quot, rem, unit_inv = reference_division_loop(g, f, k, d)
                    for a, b in zip(new, (quot, rem, unit_inv.inverse())):
                        assert a.same_data(b) and a.trunc == b.trunc, (g, f)
                    div = weierstrass_divide(g, f, k)
                    gd = min(g.guaranteed_degree, f.guaranteed_degree) - d
                    assert identical(div.quotient,
                                     (quot * unit_inv).with_guarantee(gd))
                    assert identical(div.remainder, rem.with_guarantee(gd))
                    outs += [*new, div.quotient, div.remainder]
                # a unit ``f`` (d = 0) prepares as itself, as given
                assert all(in_key_order(s) for s in outs if s is not f), f


def _kernel_callers(monkeypatch):
    """For each call of ``series._products`` from here on, the name of its
    caller and the number of term pairs it forms."""
    calls = []
    kernel = series._products

    def spy(acc, xs, ys, limit, scale):
        pairs = sum(kx + ky < limit for kx, _ in xs for ky, _ in ys)
        calls.append((sys._getframe(1).f_code.co_name, pairs))
        return kernel(acc, xs, ys, limit, scale)

    monkeypatch.setattr(series, "_products", spy)
    return calls


def test_division_preparation_and_implicit_solving_form_no_products(
        monkeypatch):
    """Every division by a unit is one graded solve, and implicit solving
    is one Horner recurrence: ``weierstrass_divide`` and
    ``weierstrass_prepare`` reach the product kernel through ``_solve``
    only, ``solve_implicit`` through ``_implicit`` only, and none of them
    through ``Series.__mul__``."""
    calls = _kernel_callers(monkeypatch)
    rng = random.Random(4301)
    for nvars in (2, 3):
        for d in (0, 1, 2, 3):
            f = random_order_d(rng, nvars, 9, nvars, d, nterms=7)
            g = random_series(rng, nvars, 9, nterms=7)
            weierstrass_divide(g, f, nvars)
            weierstrass_prepare(f, nvars)
            if d == 1:
                solve_implicit(f, nvars)
    assert calls and {name for name, _ in calls} == {"_solve", "_implicit"}


def test_only_a_solve_operand_or_a_divisor_is_flattened(monkeypatch):
    """The decoder takes solved grades as they are, so ``_flatten`` joins a
    table only where it is needed whole: the division loop's ``b``, and
    the loop's quotient ``Q``, which ``weierstrass_divide`` divides by
    ``high`` and ``weierstrass_prepare`` divides ``high`` by.
    ``solve_implicit`` runs no division loop and flattens nothing."""
    calls = []
    flatten = series._flatten
    monkeypatch.setattr(series, "_flatten",
                        lambda parts: calls.append(1) or flatten(parts))
    rng = random.Random(4302)
    for nvars in (2, 3):
        for d in (0, 1, 2, 3):
            f = random_order_d(rng, nvars, 9, nvars, d, nterms=7)
            g = random_series(rng, nvars, 9, nterms=7)
            cases = [(weierstrass_divide, (g, f, nvars), 2),
                     (weierstrass_prepare, (f, nvars), 2)]
            if d == 1:
                cases.append((solve_implicit, (f, nvars), 0))
            for op, args, want in cases:
                calls.clear()
                op(*args)
                assert len(calls) == want, (op.__name__, f)


def test_kernel_pairs_of_one_division_and_preparation(monkeypatch):
    """A work gate free of timing noise: the term pairs the product kernel
    forms for one division and preparation at nvars 3, trunc 10, d = 2.
    More pairs is more work; a change that forms fewer lowers the pin."""
    calls = _kernel_callers(monkeypatch)
    f = S("x3^2 + x1*x3 + x2^2 + x1*x2*x3^2 + 3*x3^3 + x1^4 + 1/2*x2*x3^5"
          " - 2/5*x1^3*x3^4 + x2^6", 3, 10)
    g = S("1 + x1 + 2/3*x2*x3 + x3^5 + x1^2*x2^3 + x1*x3^7 - x2^4*x3^4",
          3, 10)
    assert weierstrass_divide(g, f, 3).d == 2
    assert weierstrass_prepare(f, 3).poly.d == 2
    assert sum(pairs for _, pairs in calls) == 6418


def test_kernel_pairs_of_one_implicit_solve_and_one_extension(monkeypatch):
    """Work gates free of timing noise, as for division and preparation:
    the term pairs the product kernel forms for one seeded dense
    ``solve_implicit`` in 3 variables at trunc 10, and for one
    ``holomorphic_extension`` at N = 12, whose square descent solves one
    implicit equation after each preparation, at ``z = -x2^2``.  Solving
    by division formed 6760 and 24524 pairs; solving in the squared
    variable and then putting ``-x2^2`` in formed 13394; solving at ``z =
    -x2^2`` with the odd half at N, every Horner part formed and ``x2 *
    s1`` a product formed 7252."""
    calls = _kernel_callers(monkeypatch)
    f = random_implicit_input(random.Random(2703), 3, 10, 3, nterms=40)
    assert len(solve_implicit(f, 3).terms) == 64
    assert sum(pairs for _, pairs in calls) == 1573
    calls.clear()
    holomorphic_extension(S("x1^2 + x1^3 - 2*x1^4 + 1/3*x1^5 + x1^7"
                            " - 3/4*x1^9 + 5*x1^12", 1, 12))
    assert sum(pairs for _, pairs in calls) == 5536


def test_extension_reaches_the_kernel_through_compose_and_its_solves(
        monkeypatch):
    """``holomorphic_extension`` multiplies only in the packed
    ``compose`` of ``h(x1 + x2)`` and in its descents' solves: ``v`` puts
    ``x2`` on each term of ``s1``, and no ``Series.__mul__`` is called."""
    calls = _kernel_callers(monkeypatch)
    rng = random.Random(3102)
    for trunc in (4, 8, 12):
        holomorphic_extension(random_normalized_h(rng, trunc, density=0.8))
    assert calls and {name for name, _ in calls} <= {"compose", "_solve",
                                                     "_implicit"}


def test_division_is_deterministic():
    g = S("x1^2 + 5*x2^4 - x1*x2", 2, 9)
    f = S("x2^2 + x1*x2 - 3*x1^3", 2, 9)
    r1 = weierstrass_divide(g, f, 2)
    r2 = weierstrass_divide(g, f, 2)
    assert r1.quotient.same_data(r2.quotient)
    assert r1.remainder.same_data(r2.remainder)


def test_quotient_remainder_unique_at_certified_precision():
    # perturbing the remainder below the certified degree must break the
    # degree bound or the identity: deg_k r < d pins (q, r) pointwise
    g = S("x2^3 + x1*x2", 2, 8)
    f = S("x2^2 + x1", 2, 8)
    result = weierstrass_divide(g, f, 2)
    tweaked = result.remainder + S("x1", 2, 8)
    residual = g - (result.quotient * f + tweaked)
    assert not residual.vanishes_through(result.guaranteed_degree)


def test_order_above_the_certificate_is_rejected():
    # x2^3 and x2^3 + x2^2 agree through their certified degree 1, yet
    # dividing x2^3 by them gave quotients with constant terms 1 and 0,
    # each "certified through 0": the order itself was not certified
    f = S("x2^3", 2, 6).with_guarantee(1)
    f2 = S("x2^3 + x2^2", 2, 6).with_guarantee(1)
    assert f == f2
    g = S("x2^3", 2, 6)
    for divisor in (f, f2):
        with pytest.raises(PreconditionError, match="certified degree 1"):
            weierstrass_divide(g, divisor, 2)
        with pytest.raises(PreconditionError, match="certified degree 1"):
            weierstrass_prepare(divisor, 2)
    with pytest.raises(PreconditionError, match="dividend is certified"):
        weierstrass_divide(g.with_guarantee(1), S("x2^2 + x1", 2, 6), 2)
    assert weierstrass_divide(g, f.with_guarantee(3), 2).quotient == \
        S("1", 2, 6).with_guarantee(0)


# ----------------------------------------------------------------------
# preparation
# ----------------------------------------------------------------------

def test_prepare_pure_power_is_itself():
    prep = weierstrass_prepare(S("x2^2", 2, 8), 2)
    assert prep.unit.same_data(S("1", 2, 8))
    assert prep.poly.d == 2
    assert all(a.is_zero() for a in prep.poly.coeffs)


def test_prepare_shifted_quadratic():
    prep = weierstrass_prepare(S("x2^2 + x1", 2, 8), 2)
    assert prep.unit == S("1", 2, 8).with_guarantee(6)
    a1, a2 = prep.poly.coeffs
    assert a1.is_zero()
    assert a2 == S("x1", 1, 8).with_guarantee(6)


def test_prepare_recovers_unit_factor():
    f = S("(1 + x1)*(x2^2 + x1)", 2, 8)
    prep = weierstrass_prepare(f, 2)
    assert prep.unit == S("1 + x1", 2, 8).with_guarantee(6)
    a1, a2 = prep.poly.coeffs
    assert a1.is_zero()
    assert a2 == S("x1", 1, 8).with_guarantee(6)
    back = prep.unit * prep.poly.expand() - f
    assert back.vanishes_through(prep.guaranteed_degree)


def test_prepare_unit_input_gives_constant_poly():
    f = S("2 + x1 + x2", 2, 8)
    prep = weierstrass_prepare(f, 2)
    assert prep.poly.d == 0
    assert prep.poly.expand().same_data(S("1", 2, 8))
    assert prep.unit.same_data(f)
    f = S("-1/3 + x1*x2^2 + x2^5", 2, 8).with_guarantee(5)
    prep = weierstrass_prepare(f, 2)
    assert identical(prep.unit, f) and prep.guaranteed_degree == 5


def test_prepare_requires_finite_order():
    with pytest.raises(PreconditionError):
        weierstrass_prepare(S("x1 + x1*x2", 2, 8), 2)


def test_prepare_multiply_back_random():
    rng = random.Random(43)
    for _ in range(20):
        nvars = rng.choice((2, 3))
        d = rng.randint(1, 3)
        f = random_order_d(rng, nvars, 10, nvars, d, nterms=7)
        prep = weierstrass_prepare(f, nvars)
        assert prep.unit.constant_term() != 0
        assert all(a.constant_term() == 0 for a in prep.poly.coeffs)
        back = prep.unit * prep.poly.expand() - f
        assert back.vanishes_through(prep.guaranteed_degree)


def test_even_input_kills_the_odd_coefficient():
    rng = random.Random(47)
    for _ in range(15):
        nvars = rng.choice((2, 3))
        f = random_even_order2(rng, nvars, 10, nvars)
        prep = weierstrass_prepare(f, nvars)
        a1 = prep.poly.coeffs[0]
        assert a1.is_zero()


# ----------------------------------------------------------------------
# the distinguished polynomial carrier
# ----------------------------------------------------------------------

def test_expand_examples():
    p = DistinguishedPoly(2, 2, 2, 6, (Series.zero(1, 6), S("x1", 1, 6)))
    assert p.expand() == S("x2^2 + x1", 2, 6)
    q = DistinguishedPoly(1, 2, 2, 6, (Series.zero(1, 6),))
    assert q.expand() == S("x2", 2, 6)
    r = DistinguishedPoly(
        3, 2, 2, 6, (S("x1", 1, 6), Series.zero(1, 6), Series.zero(1, 6)))
    assert r.expand() == S("x2^3 + x1*x2^2", 2, 6)


def test_distinguished_poly_validation():
    with pytest.raises(ValueError):
        DistinguishedPoly(2, 2, 2, 6, (Series.zero(1, 6),))
    with pytest.raises(ValueError):
        DistinguishedPoly(1, 2, 2, 6, (S("1 + x1", 1, 6),))
    with pytest.raises(ValueError):
        DistinguishedPoly(1, 2, 2, 6, (S("x1", 2, 6),))
    # a coefficient truncated elsewhere: expand() would drop its x1^6
    with pytest.raises(ValueError, match="truncated at 8, not at 4"):
        DistinguishedPoly(1, 2, 2, 4, (Series(1, 8, {(1,): 1, (6,): 1}),))
    with pytest.raises(ValueError, match="truncated at 3, not at 4"):
        DistinguishedPoly(1, 2, 2, 4, (Series(1, 3, {(1,): 1}),))
    # k must name one of the nvars variables
    for k in (5, 0):
        with pytest.raises(ValueError, match="out of range"):
            DistinguishedPoly(1, k, 2, 4, (Series(1, 4, {(1,): 1}),))


def test_distinguished_poly_rejects_non_integral_sizes():
    """``d``, ``nvars`` and ``trunc`` take the exponent rule.  ``d = 2.0``
    used to expand to ``x1 + x2^2.0``, and ``d = 0`` at ``trunc = -1``
    built a polynomial that could not expand."""
    x1 = Series.variable(1, 1, 4)
    poly = DistinguishedPoly(2.0, 2, 2.0, 4.0, (Series.zero(1, 4), x1))
    sizes = (poly.d, poly.nvars, poly.trunc)
    assert sizes == (2, 2, 4) and all(type(v) is int for v in sizes)
    assert identical(poly.expand(), Series(2, 4, {(0, 2): 1, (1, 0): 1}))
    for args, message in [
            ((2.5, 2, 2, 4, (Series.zero(1, 4), x1)), "d 2.5 is not integral"),
            ((1, 2, "2", 4, (x1,)), "nvars '2' is not integral"),
            ((1, 2, 2, 4.5, (x1,)), "trunc 4.5 is not integral"),
            ((0, 1, 1, -1, ()), "trunc must be nonnegative")]:
        with pytest.raises(ValueError) as err:
            DistinguishedPoly(*args)
        assert str(err.value) == message


def test_expand_certainty_reflects_weakest_coefficient():
    a1 = Series(1, 8, {(1,): 1}, guaranteed_degree=3)
    a2 = Series(1, 8, {(2,): 1}, guaranteed_degree=8)
    p = DistinguishedPoly(2, 2, 2, 8, (a1, a2))
    # a1 sits on x2^(d-1): its certainty 3 plus one axis degree
    assert p.expand().guaranteed_degree == 4


PREPARATION_KEYS = ["guaranteed_degree", "unit", "poly", "poly_expanded"]


def test_serialization_shapes():
    prep = weierstrass_prepare(S("x2^2 + x1", 2, 8), 2)
    doc = exported(prep, PREPARATION_KEYS)
    assert doc["poly"] == exported(prep.poly,
                                   ["d", "k", "nvars", "trunc", "coeffs"])
    assert doc["poly"]["d"] == 2
    assert doc["poly"]["k"] == 2
    assert doc["poly"]["coeffs"] == [a.to_dict() for a in prep.poly.coeffs]
    assert len(doc["poly"]["coeffs"]) == 2
    assert doc["unit"] == prep.unit.to_dict()
    assert doc["poly_expanded"] == prep.poly.expand().to_dict()
    assert doc["poly_expanded"]["nvars"] == 2
    unit = exported(weierstrass_prepare(S("2 + x1 + x2", 2, 6), 1),
                    PREPARATION_KEYS)
    assert unit["poly"] == {"d": 0, "k": 1, "nvars": 2, "trunc": 6,
                            "coeffs": []}
    division = weierstrass_divide(S("x2^3", 2, 8), S("x2^2 + x1", 2, 8), 2)
    ddoc = exported(division, ["d", "k", "guaranteed_degree", "quotient",
                               "remainder"])
    assert (ddoc["d"], ddoc["k"]) == (2, 2)
    assert ddoc["quotient"] == division.quotient.to_dict()
    assert ddoc["remainder"] == division.remainder.to_dict()


def test_internal_error_when_quotient_degenerates(monkeypatch):
    # an impossible division result must be flagged, not silently inverted
    real = wmod._distinguished

    def zero_quotient(f, k):
        # the empty list of solved grades is zero
        poly, (_, rem, high, keys) = real(f, k)
        return poly, ([], rem, high, keys)

    monkeypatch.setattr(wmod, "_distinguished", zero_quotient)
    with pytest.raises(InternalInvariantError):
        weierstrass_prepare(S("x2^2 + x1", 2, 8), 2)
