"""Core series arithmetic: construction, canonical form, ring operations,
exponent surgery, and the certified-degree bookkeeping."""

import random
from fractions import Fraction
from functools import reduce

import pytest

from support import (S, agree_through, decoded_division_loop, identical,
                     nonzero_rational, random_exponent, random_series,
                     random_unit, reference_add, reference_graded_solve,
                     reference_inverse, reference_mul)
from wseries import FLAT, PreconditionError, Series, term_sort_key, weierstrass
from wseries.series import _Keys, _sum


# ----------------------------------------------------------------------
# construction and representation
# ----------------------------------------------------------------------

def test_constructor_drops_zero_coefficients():
    s = Series(2, 5, {(1, 0): 0, (0, 1): 2})
    assert s.support() == {(0, 1)}


def test_constructor_truncates_by_total_degree():
    s = Series(2, 3, {(2, 2): 1, (3, 0): 5})
    assert s.support() == {(3, 0)}


def test_constructor_validates_exponents():
    with pytest.raises(ValueError):
        Series(2, 5, {(1,): 1})
    with pytest.raises(ValueError):
        Series(2, 5, {(-1, 0): 1})
    with pytest.raises(ValueError):
        Series(2, 5, {}, guaranteed_degree=6)


def test_leaf_constructors_match_the_public_constructor():
    for nvars in range(4):
        for trunc in range(3):
            for value in (0, 1, -2, Fraction(-3, 2)):
                leaf = Series.constant(value, nvars, trunc)
                assert identical(
                    leaf, Series(nvars, trunc, {(0,) * nvars: value}))
                assert all(type(c) is Fraction for c in leaf.terms.values())
            for k in range(1, nvars + 1):
                expo = tuple(int(i == k - 1) for i in range(nvars))
                leaf = Series.variable(k, nvars, trunc)
                assert identical(leaf, Series(nvars, trunc, {expo: 1}))
                assert all(type(c) is Fraction for c in leaf.terms.values())
    for make, message in [
            (lambda: Series.constant(1, -1, 3), "nvars must be nonnegative"),
            (lambda: Series.constant(1, 2, -1), "trunc must be nonnegative"),
            (lambda: Series.variable(1, 2, -1), "trunc must be nonnegative"),
            (lambda: Series.variable(0, 2, 3),
             "variable index 0 out of range 1..2"),
            (lambda: Series.variable(3, 2, 3),
             "variable index 3 out of range 1..2"),
            (lambda: Series.variable(1, -1, 3),
             "variable index 1 out of range 1..-1")]:
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message


def test_series_is_immutable():
    s = Series(2, 5, {(1, 0): 1})
    with pytest.raises(AttributeError):
        s.trunc = 9


def test_term_order_degree_then_earlier_variables_first():
    assert term_sort_key((2, 0)) < term_sort_key((1, 1)) < term_sort_key((0, 2))
    assert term_sort_key((0, 1)) < term_sort_key((2, 0))


def test_canonical_text_matches_contract():
    s = Series(2, 5, {(2, 0): 1, (1, 1): Fraction(-3, 2)})
    assert s.canonical() == "x1^2 + -3/2*x1*x2"


def test_canonical_zero_and_exponent_one():
    assert Series.zero(2, 4).canonical() == "0"
    assert S("x1*x2", 2, 4).canonical() == "x1*x2"
    assert S("3*x2", 2, 4).canonical() == "3*x2"
    # no unary minus in the grammar: sign stays inside the coefficient
    assert (-S("x1", 2, 4)).canonical() == "-1*x1"


def test_canonical_round_trips_through_parser():
    rng = random.Random(101)
    for _ in range(25):
        nvars = rng.choice((1, 2, 3))
        s = random_series(rng, nvars, 8, nterms=9)
        again = S(s.canonical(), nvars, 8)
        assert again.same_data(s)


def test_dict_export_round_trip():
    s = Series(2, 6, {(1, 2): Fraction(7, 3), (0, 0): -2}, guaranteed_degree=5)
    data = s.to_dict()
    assert data["guaranteed_degree"] == 5
    assert Series.from_dict(data).same_data(s)
    assert Series.from_dict(data).guaranteed_degree == 5


def test_equality_is_bounded_by_certified_degree():
    a = Series(2, 6, {(1, 0): 1, (5, 0): 9}, guaranteed_degree=3)
    b = Series(2, 6, {(1, 0): 1, (5, 0): -4}, guaranteed_degree=6)
    assert a == b  # they disagree only above min(3, 6)
    c = Series(2, 6, {(1, 0): 2}, guaranteed_degree=3)
    assert a != c
    assert a != Series(3, 6, {(1, 0, 0): 1})


# ----------------------------------------------------------------------
# ring operations
# ----------------------------------------------------------------------

def test_add_examples():
    assert (S("x1", 2, 5) + S("-1*x1", 2, 5)).is_zero()
    assert S("1 + x1", 2, 5) + S("x2", 2, 5) == S("1 + x1 + x2", 2, 5)
    assert S("x1^2 + 1/2*x2", 2, 5) + S("1/2*x2", 2, 5) == S("x1^2 + x2", 2, 5)


def test_add_requires_matching_spaces():
    with pytest.raises(ValueError):
        S("x1", 2, 5) + S("x1", 3, 5)


def test_sum_matches_folding_two_table_addition():
    """One to six parts with unequal truncations and certificates; some
    parts cancel earlier ones, term by term or to zero."""
    rng = random.Random(909)
    cancelled = 0
    for nvars in range(1, 5):
        for _ in range(40):
            parts = []
            for _ in range(rng.randint(1, 5)):
                trunc = rng.randint(0, 6)
                s = random_series(rng, nvars, trunc, nterms=rng.randint(0, 6))
                parts.append(s.with_guarantee(rng.randint(0, trunc)))
            if rng.random() < 0.3:
                parts.append(-rng.choice(parts))
            elif rng.random() < 0.3:
                parts.append(-reduce(reference_add, parts))
            expected = reduce(reference_add, parts)
            got = _sum(parts)
            assert identical(got, expected), parts
            assert all(type(c) is Fraction for c in got.terms.values())
            cancelled += got.is_zero() and len(parts) > 1
    assert cancelled
    a, b = S("x1", 2, 5), S("x1", 3, 5)
    with pytest.raises(ValueError) as err:
        _sum([a, a, b])
    assert str(err.value) == "variable-count mismatch: 2 vs 3"


def test_mul_examples():
    assert S("(1+x1)*(1-x1)", 2, 3) == S("1 - x1^2", 2, 3)
    assert S("(x1+x2)*(x1+x2)", 2, 1).is_zero()
    assert (S("x2^2 + x1", 2, 4) * S("1 + x1", 2, 4)
            == S("x2^2 + x1 + x1*x2^2 + x1^2", 2, 4))


def test_arithmetic_takes_minimum_trunc_and_guarantee():
    a = Series(2, 8, {(1, 0): 1}, guaranteed_degree=5)
    b = Series(2, 6, {(0, 1): 1}, guaranteed_degree=6)
    assert (a + b).trunc == 6
    assert (a + b).guaranteed_degree == 5
    assert (a * b).trunc == 6
    assert (a * b).guaranteed_degree == 5


def test_scalar_mixing():
    s = S("x1", 2, 4)
    assert 1 + s == S("1 + x1", 2, 4)
    assert s - 1 == S("x1 - 1", 2, 4)
    assert 2 * s == S("2*x1", 2, 4)
    assert (s / 2).coefficient((1, 0)) == Fraction(1, 2)
    assert (3 - s) == S("3 - x1", 2, 4)


def test_pow():
    assert S("1 + x1", 1, 4) ** 0 == S("1", 1, 4)
    assert S("1 + x1", 1, 4) ** 3 == S("1 + 3*x1 + 3*x1^2 + x1^3", 1, 4)
    with pytest.raises(ValueError):
        S("x1", 1, 4) ** -1


def test_pow_matches_repeated_products():
    rng = random.Random(409)
    for _ in range(20):
        nvars = rng.choice((1, 2, 3))
        trunc = rng.randint(0, 9)
        s = random_series(rng, nvars, trunc, nterms=4)
        s = s.with_guarantee(rng.randint(0, trunc))
        for exponent in range(7):
            expected = Series.constant(1, nvars, trunc).with_guarantee(
                s.guaranteed_degree)
            for _ in range(exponent):
                expected = expected * s
            assert identical(s ** exponent, expected)


def test_pow_past_the_truncation_is_zero_at_once():
    big = 2_000_000_000
    s = S("x1 + x1*x2", 2, 8).with_guarantee(5)
    assert identical(s ** big, Series(2, 8, None, 5))
    assert identical(Series(2, 8, None, 5) ** 3, Series(2, 8, None, 5))
    assert identical(S("x1^2", 1, 8) ** 4, S("x1^8", 1, 8))
    assert (S("x1^2", 1, 8) ** 5).is_zero()


def test_ring_axioms_on_random_triples():
    rng = random.Random(20260814)
    for _ in range(30):
        nvars = rng.choice((2, 3))
        trunc = rng.randint(4, 10)
        a = random_series(rng, nvars, trunc, nterms=7)
        b = random_series(rng, nvars, trunc, nterms=7)
        c = random_series(rng, nvars, trunc, nterms=7)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_operations_are_deterministic():
    rng1, rng2 = random.Random(5), random.Random(5)
    a1 = random_series(rng1, 3, 8, nterms=9)
    a2 = random_series(rng2, 3, 8, nterms=9)
    assert (a1 * a1).same_data(a2 * a2)
    assert (a1 * a1).canonical() == (a2 * a2).canonical()


# ----------------------------------------------------------------------
# inversion
# ----------------------------------------------------------------------

def test_inverse_examples():
    assert S("inv(1 - x1)", 1, 3) == S("1 + x1 + x1^2 + x1^3", 1, 3)
    assert S("inv(2)", 1, 3) == S("1/2", 1, 3)
    assert (S("inv(1 + x1 + x2)", 2, 2)
            == S("1 - x1 - x2 + x1^2 + 2*x1*x2 + x2^2", 2, 2))


def test_inverse_requires_unit():
    with pytest.raises(PreconditionError):
        S("x1", 2, 4).inverse()


def test_inverse_multiplies_back_to_one():
    rng = random.Random(77)
    one = Series.constant(1, 2, 9)
    for _ in range(20):
        u = random_unit(rng, 2, 9)
        prod = u * u.inverse()
        assert (prod - one).vanishes_through(prod.guaranteed_degree)


def test_inverse_matches_fixpoint_reference():
    """Graded recurrence against the whole-series fixpoint: rational
    constant terms, dense and sparse high-order augmentations, and
    certificates below the truncation."""
    rng = random.Random(3301)
    for nvars in range(1, 5):
        for trunc in range(13):
            if trunc:
                dense = random_unit(rng, nvars, trunc, nterms=10)
                high = random_exponent(rng, nvars, max(trunc // 2, 1), trunc)
                sparse = Series(nvars, trunc,
                                {(0,) * nvars: nonzero_rational(rng),
                                 high: nonzero_rational(rng)})
            else:
                dense = sparse = Series.constant(nonzero_rational(rng),
                                                 nvars, 0)
            for u in (dense, sparse):
                u = u.with_guarantee(rng.randint(0, trunc))
                assert identical(u.inverse(), reference_inverse(u)), u


# ----------------------------------------------------------------------
# the packed integer kernel against the tuple-keyed Fraction kernel
# ----------------------------------------------------------------------

def _tuple_inverse(u):
    c = u.constant_term()
    one = (0,) * u.nvars
    b = {e: -v / c for e, v in u.terms.items() if e != one}
    q, _ = reference_graded_solve({one: 1 / c}, b, u.trunc, sum, lambda e: e)
    return Series._make(u.nvars, u.trunc, q, u.guaranteed_degree)


def _tuple_division_loop(g, f, k, d):
    low, high = f.split_in_variable(k, d)
    unit_inv = _tuple_inverse(high)
    b = -reference_mul(unit_inv, low)
    gd = max(min(g.guaranteed_degree, f.guaranteed_degree) - d, 0)
    quot, rem = (Series._make(g.nvars, g.trunc, t, gd)
                 for t in reference_graded_solve(
                     g.terms, b.terms, g.trunc, lambda e: sum(e) - e[k - 1],
                     lambda e: e[:k - 1] + (e[k - 1] - d,) + e[k:]
                     if e[k - 1] >= d else None))
    return quot, rem, unit_inv


def _wide_coeff(rng):
    """Small rationals and ones with numerators and denominators up to
    2^40, so common denominators run to hundreds of bits."""
    if rng.random() < 0.5:
        return nonzero_rational(rng)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 2 ** 40),
                    rng.randint(1, 2 ** 40))


def _kernel_table(rng, nvars, trunc, size, lo=0):
    """Up to ``size`` terms of degree ``lo`` to ``trunc`` (at most the
    constant term when there are no variables)."""
    if not nvars or lo > trunc:
        const = size and not lo
        return Series(nvars, trunc,
                      {(0,) * nvars: _wide_coeff(rng)} if const else {})
    return Series(nvars, trunc, {random_exponent(rng, nvars, lo, trunc):
                                 _wide_coeff(rng) for _ in range(size)})


def _kernel_spaces():
    for nvars in (0, 1, 2, 3, 4, 32):
        for trunc in range(5 if nvars == 32 else 13):
            yield nvars, trunc


def _same_table(new, old):
    """Same table in the same order, with ``Fraction`` coefficients, the
    same truncation and the same certificate."""
    return (identical(new, old)
            and list(new.terms.items()) == list(old.terms.items())
            and all(type(c) is Fraction for c in new.terms.values()))


def test_packed_tables_decode_to_the_tables_they_pack():
    rng = random.Random(4100)
    for nvars in (0, 1, 4, 32, 2000):
        for trunc in range(7):
            keys = _Keys(nvars, trunc)
            for size in (0, 1, 8):
                t = _kernel_table(rng, nvars, trunc, size)
                t = t.with_guarantee(rng.randint(0, trunc))
                back = keys.series(keys.pack(t.terms), t.guaranteed_degree)
                assert _same_table(back, t), t


def test_packed_products_match_the_tuple_kernel():
    rng = random.Random(4101)
    for nvars, trunc in _kernel_spaces():
        for size_x, size_y in ((0, 3), (1, 1), (1, 6), (5, 8)):
            x = _kernel_table(rng, nvars, trunc, size_x)
            y = _kernel_table(rng, nvars, rng.randint(trunc, trunc + 3),
                              size_y).with_guarantee(rng.randint(0, trunc))
            for a, b in ((x, y), (y, x)):
                assert _same_table(a * b, reference_mul(a, b)), (a, b)
    # sums that cancel to zero leave no term behind
    p, m = S("1 + x1 + x2", 2, 2), S("1 - x1 + x2", 2, 2)
    assert _same_table(p * m, reference_mul(p, m))
    assert (p * m).terms == {(0, 0): 1, (0, 1): 2, (2, 0): -1, (0, 2): 1}
    assert (S("x1 - x2", 2, 1) * S("x1 + x2", 2, 1)).is_zero()
    # a digit sum past the truncation is dropped, never carried into the
    # next digit, also from an operand truncated higher
    x = Series(2, 4, {(3, 0): 2, (0, 2): 1})
    y = Series(2, 9, {(2, 0): 3, (0, 0): 1, (0, 9): 5, (9, 0): 7})
    assert (x * y).terms == {(3, 0): 2, (0, 2): 1, (2, 2): 3}
    assert _same_table(x * y, reference_mul(x, y))


def test_packed_inverse_matches_the_tuple_recurrence():
    rng = random.Random(4102)
    for nvars, trunc in _kernel_spaces():
        for size in (0, 1, 6):
            u = _kernel_table(rng, nvars, trunc, size, lo=1)
            u = (u + _wide_coeff(rng)).with_guarantee(rng.randint(0, trunc))
            assert _same_table(u.inverse(), _tuple_inverse(u)), u


def test_packed_division_loop_matches_the_tuple_recurrence():
    rng = random.Random(4103)
    for nvars, trunc in _kernel_spaces():
        ks = range(1, min(nvars, 4) + 1) if nvars < 32 else (1, 2, 4, 32)
        for k in ks:
            for d in range(min(trunc, 3) + 1):
                # order exactly d on the x_k axis
                axis = tuple(d if i == k - 1 else 0 for i in range(nvars))
                extra = _kernel_table(rng, nvars, trunc, 5, lo=1).terms
                f = Series(nvars, trunc, {
                    **{e: c for e, c in extra.items() if e[k - 1] >= d
                       or any(v for i, v in enumerate(e) if i != k - 1)},
                    axis: _wide_coeff(rng)})
                for size in (0, 1, 6):
                    g = _kernel_table(rng, nvars, trunc, size)
                    new = decoded_division_loop(g, f, k, d)
                    old = _tuple_division_loop(g, f, k, d)
                    assert all(map(_same_table, new, old)), (g, f, k, d)


def _tuple_divide(g, f, k):
    """``weierstrass_divide``'s quotient and remainder by the tuple route."""
    d = f.order_in(k)
    certified = min(g.guaranteed_degree, f.guaranteed_degree) - d
    quot, rem, unit_inv = _tuple_division_loop(g, f, k, d)
    return [reference_mul(quot, unit_inv).with_guarantee(certified),
            rem.with_guarantee(certified)]


def _tuple_prepare(f, k):
    """``weierstrass_prepare``'s unit and ``a_1 .. a_d`` by the tuple
    route: divide ``x_k^d`` by ``f``, invert ``quot * unit_inv`` and read
    the ``a_i`` off the remainder."""
    d, n = f.order_in(k), f.nvars
    if d == 0:
        return [f]
    expo = tuple(d if i == k - 1 else 0 for i in range(n))
    quot, rem, unit_inv = _tuple_division_loop(
        Series.monomial(expo, n, f.trunc), f, k, d)
    certified = f.guaranteed_degree - d
    rem = rem.with_guarantee(certified)
    unit = _tuple_inverse(reference_mul(quot, unit_inv)
                          .with_guarantee(certified))
    return [unit, *(-rem.coefficient_series(k, d - i) for i in range(1, d + 1))]


def test_packed_division_and_preparation_match_the_tuple_route():
    """Division and preparation, which stay packed from input to output,
    against the tuple route.  The x_k^d coefficient of ``f`` (the constant
    term of ``high``) is negative at every other truncation."""
    rng = random.Random(4104)
    for nvars, trunc in _kernel_spaces():
        ks = range(1, min(nvars, 4) + 1) if nvars < 32 else (1, 2, 4, 32)
        for k in ks:
            for d in range(min(trunc, 3) + 1):
                axis = tuple(d if i == k - 1 else 0 for i in range(nvars))
                extra = _kernel_table(rng, nvars, trunc, 5, lo=1).terms
                f = Series(nvars, trunc, {
                    **{e: c for e, c in extra.items() if e[k - 1] >= d
                       or any(v for i, v in enumerate(e) if i != k - 1)},
                    axis: (-1) ** trunc * abs(_wide_coeff(rng))})
                f = f.with_guarantee(rng.randint(d, trunc))
                g = _kernel_table(rng, nvars, trunc, 6)
                g = g.with_guarantee(rng.randint(d, trunc))
                div = weierstrass.weierstrass_divide(g, f, k)
                new = [div.quotient, div.remainder]
                assert all(map(_same_table, new, _tuple_divide(g, f, k)))
                prep = weierstrass.weierstrass_prepare(f, k)
                new, old = [prep.unit, *prep.poly.coeffs], _tuple_prepare(f, k)
                assert len(new) == len(old), (f, k)
                assert all(map(_same_table, new, old)), (f, k)


# ----------------------------------------------------------------------
# composition and differentiation
# ----------------------------------------------------------------------

def test_compose_examples():
    f = S("x1^2", 1, 4)
    assert f.compose([S("x1 + x2", 2, 4)]) == S("x1^2 + 2*x1*x2 + x2^2", 2, 4)
    g = S("x1^2 - x2", 2, 5)
    assert S("x1", 1, 5).compose([g]) == g
    assert (S("1 + x1 + x1^2", 1, 2).compose([S("x1 + x2", 2, 2)])
            == S("1 + x1 + x2 + x1^2 + 2*x1*x2 + x2^2", 2, 2))


def test_compose_preconditions():
    with pytest.raises(ValueError):
        S("x1", 2, 4).compose([S("x1", 1, 4)])
    with pytest.raises(PreconditionError):
        S("x1", 1, 4).compose([S("1 + x1", 1, 4)])


def test_compose_associativity_on_random_inputs():
    rng = random.Random(31)
    for _ in range(10):
        f = random_series(rng, 2, 6, nterms=5)
        gs = [random_series(rng, 2, 6, nterms=4, min_degree=1)
              for _ in range(2)]
        hs = [random_series(rng, 2, 6, nterms=4, min_degree=1)
              for _ in range(2)]
        left = f.compose(gs).compose(hs)
        right = f.compose([g.compose(hs) for g in gs])
        assert left == right


def test_derivative_examples():
    assert S("x1*x2^2", 2, 5).derivative(2) == S("2*x1*x2", 2, 5)
    assert S("7", 2, 5).derivative(1).is_zero()
    assert (S("x1^3 - 3*x1*x2^2", 2, 5).derivative(1)
            == S("3*x1^2 - 3*x2^2", 2, 5))


def test_derivative_spends_one_degree_of_certainty():
    s = Series(2, 6, {(3, 0): 1}, guaranteed_degree=4)
    assert s.derivative(1).guaranteed_degree == 3
    with pytest.raises(ValueError):
        s.derivative(3)


# ----------------------------------------------------------------------
# order and exponent surgery
# ----------------------------------------------------------------------

def test_order_in_examples():
    assert S("x2^2 + x2^3 + x1", 2, 6).order_in(2) == 2
    assert S("x1", 2, 6).order_in(2) is FLAT
    assert S("x2^4", 2, 6).order_in(2) == 4
    assert S("3 + x1", 2, 6).order_in(1) == 0


def test_order_is_additive_under_multiplication():
    rng = random.Random(53)
    for _ in range(20):
        from support import random_order_d
        da, db = rng.randint(0, 3), rng.randint(0, 3)
        a = random_order_d(rng, 2, 10, 2, da, nterms=6)
        b = random_order_d(rng, 2, 10, 2, db, nterms=6)
        if da + db <= 10:
            assert (a * b).order_in(2) == da + db


def test_substitute_square_examples():
    assert S("x1^2 + x2", 2, 6).substitute_square(2) == S("x1^2 + x2^2", 2, 6)
    assert S("1", 2, 6).substitute_square(2) == S("1", 2, 6)
    assert S("x1 + 3*x2^2", 2, 4).substitute_square(2) == S("x1 + 3*x2^4", 2, 4)


def test_coefficient_series_extracts_and_renumbers():
    f = S("x2^2 + x1*x2^2 + x3", 3, 6)
    assert f.coefficient_series(2, 2) == S("1 + x1", 2, 6)
    assert f.coefficient_series(2, 0) == S("x2", 2, 6)  # old x3 is now x2


def test_substitute_single_variable():
    f = S("x2 - x1^2", 2, 8)
    phi = S("x1^2", 1, 8)
    assert f.substitute(2, phi).is_zero()
    with pytest.raises(PreconditionError):
        f.substitute(2, S("1", 1, 8))


def test_split_in_variable_reconstructs():
    rng = random.Random(17)
    for _ in range(10):
        f = random_series(rng, 2, 8, nterms=9)
        d = rng.randint(1, 3)
        low, high = f.split_in_variable(2, d)
        back = low + Series.monomial((0, d), 2, 8) * high
        assert back.same_data(f)
        assert all(e[1] < d for e in low.support())


def test_variable_plumbing():
    f = S("x1 + x2^2", 2, 5)
    g = f.adjoin_variable()
    assert g.nvars == 3 and g.coefficient((0, 2, 0)) == 1
    h = f.embed_variable(1)
    assert h.coefficient((0, 1, 0)) == 1 and h.coefficient((0, 0, 2)) == 1
    assert g.drop_variable(3).same_data(f)
    with pytest.raises(ValueError):
        f.drop_variable(1)
    p = f.permute_variables([2, 1])
    assert p == S("x2 + x1^2", 2, 5)
    with pytest.raises(ValueError):
        f.permute_variables([1, 1])


def assert_clean(s):
    """The stored table holds the invariant the validating constructor
    enforces, so re-validating it changes nothing."""
    assert Series(s.nvars, s.trunc, s.terms, s.guaranteed_degree).same_data(s)
    assert all(type(c) is Fraction and c != 0 for c in s.terms.values())
    assert all(type(x) is int for e in s.terms for x in e)
    assert all(sum(e) <= s.trunc for e in s.terms)


def test_every_operation_keeps_the_table_invariant():
    from wseries.localring import (divide_by_variable, even_odd_split,
                                   halve_exponents)
    from wseries.pipelines import _negate_square

    rng = random.Random(211)
    for nvars in (1, 2, 3, 4):
        for _ in range(6):
            trunc = rng.randint(3, 8)
            f = random_series(rng, nvars, trunc, nterms=8)
            f = f.with_guarantee(rng.randint(0, trunc))
            g = random_series(rng, nvars, rng.randint(2, trunc), nterms=8)
            u = random_unit(rng, nvars, trunc)
            k, j = rng.randint(1, nvars), rng.randint(0, 3)
            zs = [random_series(rng, nvars, trunc, nterms=4, min_degree=1)
                  for _ in range(nvars)]
            perm = rng.sample(range(1, nvars + 1), nvars)
            xk = Series.variable(k, nvars, trunc)
            outputs = [
                f + g, g + f, f - g, -f, f * g, f * Fraction(-2, 3), f * 0,
                f / 3, 2 - f, f ** 3, u.inverse(), f.compose(zs),
                f.with_guarantee(trunc + 5), f.with_guarantee(-1),
                f.derivative(k), f.substitute_square(k),
                f.coefficient_series(k, j), *f.split_in_variable(k, j),
                f.embed_variable(k), f.adjoin_variable(),
                f.embed_variable(k).drop_variable(k),
                f.permute_variables(perm), divide_by_variable(f * xk, k),
                *even_odd_split(f, k),
                halve_exponents(f.substitute_square(k), k), _negate_square(f)]
            if nvars > 1:
                phi = random_series(rng, nvars - 1, trunc, nterms=4,
                                    min_degree=1)
                outputs.append(f.substitute(k, phi))
            for s in outputs:
                assert_clean(s)
    cancelled = S("1 + x1", 1, 4) * S("1 - x1", 1, 4)
    assert_clean(cancelled)
    assert cancelled.terms == {(0,): 1, (2,): -1}


def test_with_guarantee_and_truncate():
    s = Series(2, 6, {(1, 0): 1})
    assert s.with_guarantee(99).guaranteed_degree == 6
    assert s.with_guarantee(-2).guaranteed_degree == 0
    t = s.truncate(3)
    assert t.trunc == 3 and t.guaranteed_degree == 3


def test_agreement_helper_spots_divergence():
    a = S("x1 + x1^3", 1, 5)
    b = S("x1 + 2*x1^3", 1, 5)
    assert agree_through(a, b, 2)
    assert not agree_through(a, b, 3)


def test_nonzero_rational_sampler_never_returns_zero():
    rng = random.Random(1)
    assert all(nonzero_rational(rng) != 0 for _ in range(200))
