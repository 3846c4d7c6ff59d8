"""Core series arithmetic: construction, canonical form, ring operations,
exponent surgery, and the certified-degree bookkeeping."""

import json
import random
from fractions import Fraction

import pytest

from support import (S, agree_through, embedded, identical, in_key_order,
                     kernel_table, nonzero_rational, random_series,
                     random_unit, split_in_variable)
from wseries import (FLAT, InternalInvariantError, PreconditionError, Series,
                     series, term_sort_key, weierstrass_divide,
                     weierstrass_prepare)
from wseries.series import _flatten, _Keys, _over, _solve, _sum


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


def test_constructor_rejects_non_integral_exponents():
    for expo in ((1.5, 0), ("2", 0), (1, Fraction(1, 2))):
        with pytest.raises(ValueError, match="is not integral"):
            Series(2, 4, {expo: 1})
    # an int, a bool or an integral numpy int is stored as an int
    numpy = pytest.importorskip("numpy")
    for expo in ((2, 1), (True, 0), (numpy.int64(2), numpy.uint8(1))):
        (stored,) = Series(2, 4, {expo: 1}).terms
        assert stored == expo and all(type(e) is int for e in stored)


def test_coefficients_are_integers_or_fractions():
    """One coefficient rule: a ``Fraction``, or an integer by the index
    rule, stored as a ``Fraction``.  A float used to be stored as its
    binary value (``Series.constant(0.1, 1, 2)`` held
    ``3602879701896397/36028797018963968``) and a string was parsed."""
    for value in (0.1, 2.0, "1/3", "2", None, 1j):
        for make in (lambda: Series.constant(value, 1, 2),
                     lambda: Series(1, 2, {(1,): value}),
                     lambda: Series.monomial((1,), 1, 2, value)):
            with pytest.raises(TypeError, match="not an integer or a Frac"):
                make()
    numpy = pytest.importorskip("numpy")
    for value, want in ((3, 3), (True, 1), (numpy.int64(-2), -2),
                        (Fraction(1, 3), Fraction(1, 3))):
        (stored,) = Series(1, 2, {(1,): value}).terms.values()
        assert stored == want and type(stored) is Fraction
    with pytest.raises(TypeError):
        Series.constant(numpy.float64(2), 1, 2)


def test_constructor_rejects_non_integral_sizes():
    """``nvars``, ``trunc`` and ``guaranteed_degree`` take the exponent
    rule.  A ``trunc`` of 4.5 used to build, and the inverse of ``1 + x1 +
    2*x2`` at it printed ``x1^2.0`` and kept terms such as ``x1^2.5``."""
    doc = Series(2, 4, {(1, 0): 1}, 3).to_dict()
    for make, message in [
            (lambda: Series(2, 4.5, {(1, 0): 1, (0, 1): 2}),
             "trunc 4.5 is not integral"),
            (lambda: Series("2", 4), "nvars '2' is not integral"),
            (lambda: Series(2, 4, {}, 2.5),
             "guaranteed_degree 2.5 is not integral"),
            (lambda: Series(2, 4, {}, -2),
             "guaranteed_degree must lie in [-1, trunc]"),
            (lambda: Series.from_dict({**doc, "trunc": 3.5}),
             "trunc 3.5 is not integral")]:
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message
    # an integral float or Fraction is stored as an int, so ``*`` works
    s = Series(2.0, Fraction(4), {(1, 0): 1}, 3.0)
    sizes = (s.nvars, s.trunc, s.guaranteed_degree)
    assert sizes == (2, 4, 3) and all(type(v) is int for v in sizes)
    assert identical(s * s, Series(2, 4, {(2, 0): 1}, 3))


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


def test_leaves_take_the_size_rule_before_building_an_exponent():
    """``Series.constant``, ``Series.variable`` and the parser's terms
    size their exponent by the rule of ``Series(...)``: an integral float
    count builds, as it does for ``Series.zero`` and ``Series.monomial``,
    and a fractional one is a ``ValueError``, not a ``TypeError`` from
    ``(0,) * 2.5``."""
    for built, want in [
            (Series.constant(1, 2.0, 4), Series.constant(1, 2, 4)),
            (Series.variable(1, 2.0, 4), Series.variable(1, 2, 4)),
            (S("x1", 2.0, 4), S("x1", 2, 4)),
            (S("3 + x1*x2^2", 2.0, 4), S("3 + x1*x2^2", 2, 4)),
            (Series.zero(2.0, 4), Series.zero(2, 4)),
            (Series.monomial((1, 0), 2.0, 4), Series.variable(1, 2, 4))]:
        assert identical(built, want) and type(built.nvars) is int
        assert all(type(e) is int for expo in built.terms for e in expo)
    for make in (lambda: Series.constant(1, 2.5, 4),
                 lambda: Series.variable(1, 2.5, 4),
                 lambda: S("x1", 2.5, 4)):
        with pytest.raises(ValueError, match=r"^nvars 2\.5 is not integral$"):
            make()


def test_certificates_stay_integers():
    """``with_guarantee`` and ``coefficient_series`` reach the unchecked
    ``_make``, so they apply the size rule themselves: a fractional
    certificate or power is rejected, an integral one is stored as an
    ``int``, and ``with_guarantee`` still clamps integral values, to
    ``[-1, trunc]``."""
    s = S("x1 + 2*x2 + x1*x2^2", 2, 4)
    for degree, want in [(2.0, 2), (Fraction(3), 3), (-3, -1), (-3.0, -1),
                         (99, 4), (True, 1)]:
        gd = s.with_guarantee(degree).guaranteed_degree
        assert gd == want and type(gd) is int
    part = s.coefficient_series(1, 1.0)
    assert identical(part, s.coefficient_series(1, 1))
    assert part.guaranteed_degree == 3
    assert type(part.guaranteed_degree) is int
    for make, message in [
            (lambda: s.with_guarantee(2.5),
             "guaranteed_degree 2.5 is not integral"),
            (lambda: s.with_guarantee(-2.5),
             "guaranteed_degree -2.5 is not integral"),
            (lambda: s.with_guarantee(10.5),
             "guaranteed_degree 10.5 is not integral"),
            (lambda: s.coefficient_series(1, 1.5), "j 1.5 is not integral"),
            (lambda: s.coefficient_series(1, -1), "j must be nonnegative")]:
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message


def test_index_arguments_fail_before_any_rewrite():
    """An index that is not an ``int`` is a ``ValueError`` with the
    method's own message, as ``derivative``'s is, not a ``TypeError``
    from inside the exponent rewrite."""
    s = S("x1 + 2*x2 + x1*x2^2", 2, 4)
    for make, message in [
            (lambda: s.coefficient_series(1.0, 0),
             "variable index 1.0 out of range 1..2"),
            (lambda: s.derivative(1.0),
             "variable index 1.0 out of range 1..2")]:
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message


def test_index_arguments_follow_the_index_rule():
    """An index goes through :func:`operator.index` and the records store
    the ``int``: ``True`` used to be kept and exported as JSON ``true``, and
    an in-range numpy integer was refused as out of range."""
    s, f = S("x1 + 2*x2 + x1*x2^2", 2, 4), S("x2^2 + x1", 2, 6)
    numpy = pytest.importorskip("numpy")
    for k in (True, numpy.int64(1), numpy.uint8(1)):
        assert s.derivative(k).same_data(s.derivative(1))
        assert Series.variable(k, 2, 4).same_data(Series.variable(1, 2, 4))
        division = weierstrass_divide(S("x2^3", 2, 6), f, k)
        poly = weierstrass_prepare(f, k).poly
        for record in (division, poly):
            assert type(record.k) is int
            assert json.dumps(record.to_dict()["k"]) == "1"
        assert division.quotient.same_data(
            weierstrass_divide(S("x2^3", 2, 6), f, 1).quotient)


def test_series_is_immutable():
    s = Series(2, 5, {(1, 0): 1})
    with pytest.raises(AttributeError):
        s.trunc = 9


def test_term_order_degree_then_earlier_variables_first():
    assert term_sort_key((2, 0)) < term_sort_key((1, 1)) < term_sort_key((0, 2))
    assert term_sort_key((0, 1)) < term_sort_key((2, 0))


def test_canonical_text_matches_contract():
    s = Series(2, 5, {(2, 0): 1, (1, 1): Fraction(-3, 2)})
    assert s.canonical() == str(s) == "x1^2 + -3/2*x1*x2"
    assert repr(FLAT) == "FLAT"


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


def test_from_dict_rejects_an_exponent_listed_twice():
    # the second entry used to overwrite the first: 2*x1, with no error
    doc = Series(2, 4, {(1, 0): 1}).to_dict()
    doc["terms"].append({"expo": [1, 0], "numerator": 2, "denominator": 1})
    with pytest.raises(ValueError, match="lists an exponent twice"):
        Series.from_dict(doc)


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
    assert not (S("x1", 2, 5) + S("-1*x1", 2, 5)).terms
    assert S("1 + x1", 2, 5) + S("x2", 2, 5) == S("1 + x1 + x2", 2, 5)
    assert S("x1^2 + 1/2*x2", 2, 5) + S("1/2*x2", 2, 5) == S("x1^2 + x2", 2, 5)


def test_add_requires_matching_spaces():
    with pytest.raises(ValueError):
        S("x1", 2, 5) + S("x1", 3, 5)
    a, b = S("x1", 2, 5), S("x1", 3, 5)
    with pytest.raises(ValueError) as err:
        _sum([a, a, b])
    assert str(err.value) == "variable-count mismatch: 2 vs 3"


def test_mul_examples():
    assert S("(1+x1)*(1-x1)", 2, 3) == S("1 - x1^2", 2, 3)
    assert not S("(x1+x2)*(x1+x2)", 2, 1).terms
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


def test_operators_refuse_what_is_not_a_series_or_scalar():
    s = S("x1", 2, 4)
    assert s != "x1"
    for apply in (lambda: s + "x", lambda: "x" * s, lambda: s / s):
        with pytest.raises(TypeError):
            apply()
    # subtraction refuses what addition refuses, on either side, as ``-``
    for apply in (lambda: s - "x", lambda: "x" - s, lambda: [] - s):
        with pytest.raises(TypeError, match="for -:"):
            apply()


def test_pow():
    assert S("1 + x1", 1, 4) ** 0 == S("1", 1, 4)
    assert S("1 + x1", 1, 4) ** 3 == S("1 + 3*x1 + 3*x1^2 + x1^3", 1, 4)
    with pytest.raises(ValueError):
        S("x1", 1, 4) ** -1


def test_pow_takes_its_power_as_a_size():
    """``n`` in ``s ** n`` goes through the size rule: an integral float or
    a numpy integer is the ``int`` power, which used to be refused, and a
    fraction or a negative power gets the size rule's message."""
    s = S("1 + x1 + 2*x2", 2, 5)
    assert identical(s ** 2.0, s ** 2)
    numpy = pytest.importorskip("numpy")
    assert identical(s ** numpy.int64(2), s ** 2)
    for power, message in [(2.5, "exponent 2.5 is not integral"),
                           (-1, "exponent must be nonnegative")]:
        with pytest.raises(ValueError) as err:
            s ** power
        assert str(err.value) == message


def test_pow_matches_repeated_products():
    # exponents run past every truncation drawn, with and without a
    # constant term: both degree ranges of the composed polynomial
    rng = random.Random(409)
    for _ in range(20):
        nvars = rng.choice((1, 2, 3))
        trunc = rng.randint(0, 9)
        s = random_series(rng, nvars, trunc, nterms=4)
        s = s.with_guarantee(rng.randint(0, trunc))
        m = s - s.constant_term()
        for base in (m, m + nonzero_rational(rng)):
            expected = Series.constant(1, nvars, trunc).with_guarantee(
                base.guaranteed_degree)
            for exponent in range(12):
                power = base ** exponent
                assert identical(power, expected), (base, exponent)
                assert in_key_order(power), (base, exponent)
                expected = expected * base


def test_pow_past_the_truncation_is_zero_at_once(monkeypatch):
    big = 2_000_000_000
    s = S("x1 + x1*x2", 2, 8).with_guarantee(5)
    square = S("x1^2", 1, 8)
    products = []
    kernel = series._products
    monkeypatch.setattr(series, "_products",
                        lambda *args: products.append(args) or kernel(*args))
    assert identical(s ** big, Series(2, 8, None, 5))
    assert identical(Series(2, 8, None, 5) ** 3, Series(2, 8, None, 5))
    assert not (square ** 5).terms
    assert not products
    assert identical(square ** 4, S("x1^8", 1, 8))


def test_the_graded_solve_reads_no_grade_past_the_truncation(monkeypatch):
    # every kernel call's operands start at grades summing to at most the
    # truncation, and every call forms a term
    calls = []
    kernel = series._products
    monkeypatch.setattr(series, "_products",
                        lambda *args: calls.append(args) or kernel(*args))
    unit = Series(2, 6, {(i, j): Fraction(i + 2 * j + 1, j + 1)
                         for i in range(7) for j in range(7 - i)})
    keys = _Keys(2, 6)
    inverse = unit.inverse()
    assert calls
    for _, xs, ys, limit, *_ in calls:
        assert min(xs)[0] // keys.top + ys[0][0] // keys.top <= 6
        assert min(xs)[0] + ys[0][0] < limit
    assert unit * inverse == Series.constant(1, 2, 6)

    f = S("x3^2 + x1*x3 + x2^2 + x1*x2*x3^2 + 3*x3^3 + x1^4 + 1/2*x2*x3^5",
          3, 8)
    g = S("1 + x1 + 2/3*x2*x3 + x3^5 + x1^2*x2^3 + x1*x3^7", 3, 8)
    keys = _Keys(3, 8)

    def grade(key):  # the division loop's: the degree off the x3 digit
        return key // keys.top - key % keys.radix

    calls.clear()
    division = weierstrass_divide(g, f, 3)
    preparation = weierstrass_prepare(f, 3)
    assert calls
    for _, xs, ys, limit, _ in calls:
        assert min(grade(k) for k, _ in xs) + min(
            grade(k) for k, _ in ys) <= 8
        # the grade stays at most 8 while the total degree can pass it: a
        # read whose smallest key sum reaches the limit forms nothing
        assert min(xs)[0] + ys[0][0] < limit
    assert division.d == preparation.poly.d == 2


def test_the_graded_solve_at_its_boundaries():
    # an empty a, a at the last grade only, b past the truncation, trunc 0;
    # along no axis (place keys.limit) the grade is the total degree, and
    # order 0 keeps every term while order 1 sends every term to the rest
    keys = _Keys(2, 4)
    b = keys.pack({(1, 0): Fraction(-1, 3), (0, 2): Fraction(2)})
    assert _solve(([], 1), b, keys, keys.limit, 0) == ([], [])
    # a's one term, 3/2*x1^3*x2, lies at grade trunc: nothing reads it
    assert keys.pack({(3, 1): Fraction(3, 2)}) == ([(116, 3)], 2)
    assert _solve(([(116, 6)], 4), b, keys, keys.limit, 0) == (
        [([(116, 3)], 2)], [])
    # every grade of b lies past the truncation: q is a, one reduced table
    # per grade, 3/7 and x1^2 (pack would drop x1^4 and -2/5*x1^6, so b is
    # built by hand)
    keys = _Keys(1, 3)
    past = ([(20, 5), (30, -2)], 5)
    assert _solve(([(0, 3), (10, 7)], 7), past, keys, keys.limit, 0) == (
        [([(0, 3)], 7), ([(10, 1)], 1)], [])
    # trunc 0: one grade, kept or folded into the rest
    keys = _Keys(2, 0)
    assert _solve(([(0, 3)], 2), ([], 1), keys, keys.limit, 0) == (
        [([(0, 3)], 2)], [])
    assert _solve(([(0, 3)], 2), ([(2, 1)], 1), keys, keys.limit, 1) == (
        [], [([(0, 3)], 2)])


def test_pack_keeps_only_the_terms_below_the_truncation():
    keys = _Keys(2, 3)
    assert keys.pack({(4, 0): Fraction(1, 7), (2, 3): Fraction(5)}) == ([], 1)
    # the denominator is the lcm over the kept terms only
    assert keys.pack({(1, 2): Fraction(2, 3), (3, 1): Fraction(1, 5),
                      (0, 1): Fraction(1, 2)}) == ([(54, 4), (17, 3)], 6)


def test_a_packed_quotient_by_a_non_unit_is_an_internal_error():
    keys = _Keys(2, 4)
    x = keys.pack({(1, 0): Fraction(1), (0, 2): Fraction(-3, 2)})
    with pytest.raises(InternalInvariantError, match="not a unit"):
        _over(keys, ([(0, 1)], 1), x)
    with pytest.raises(InternalInvariantError, match="not a unit"):
        _over(keys, ([(0, 1)], 1), ([], 1))


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


# ----------------------------------------------------------------------
# packed tables
# ----------------------------------------------------------------------

def test_packed_tables_decode_to_the_tables_they_pack():
    """``keys.series([keys.pack(t)], gd)`` is the table ``t`` with
    ``Fraction`` coefficients, listed in key order, with the same
    truncation and certificate."""
    rng = random.Random(4100)
    for nvars in (0, 1, 4, 32, 2000):
        for trunc in range(7):
            keys = _Keys(nvars, trunc)
            for size in (0, 1, 8):
                t = kernel_table(rng, nvars, trunc, size)
                t = t.with_guarantee(rng.randint(0, trunc))
                back = keys.series([keys.pack(t.terms)], t.guaranteed_degree)
                assert identical(back, t) and in_key_order(back), t
                assert all(type(c) is Fraction for c in back.terms.values())


def test_a_list_of_grades_decodes_as_its_flattened_table():
    """``keys.series(grades, gd)`` takes each coefficient over its own
    grade's denominator, and gives the same table, dict order, ``Fraction``
    coefficients, truncation and certificate as decoding the grades joined
    over the lcm of their denominators.  The grades share factors, hold
    negative and unreduced numerators, and some are empty."""
    rng = random.Random(4110)
    for _ in range(300):
        nvars, trunc = rng.randint(1, 4), rng.randint(0, 8)
        keys = _Keys(nvars, trunc)
        expos = list(kernel_table(rng, nvars, trunc, rng.randint(0, 12)).terms)
        rng.shuffle(expos)
        cuts = sorted(rng.randint(0, len(expos)) for _ in range(3))
        grades, common = [], rng.choice((1, 6, 2 ** 40))
        for lo, hi in zip([0, *cuts], [*cuts, len(expos)]):
            den = common * rng.choice((1, 2, 3, 10, 7 ** 5))
            items = keys.pack({e: Fraction(1) for e in expos[lo:hi]})[0]
            grades.append(([(k, rng.choice((-1, 1)) * rng.randint(1, 3 * den))
                            for k, _ in items], den))
        gd = rng.randint(0, trunc)
        got = keys.series(grades, gd)
        want = keys.series([_flatten(grades)], gd)
        assert identical(got, want) and list(got.terms) == list(want.terms)
        assert in_key_order(got) and len(got.terms) == len(expos)
        assert all(type(c) is Fraction for c in got.terms.values())


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
    with pytest.raises(ValueError, match="different spaces"):
        S("x1 + x2", 2, 4).compose([S("x1", 1, 4), S("x1", 2, 4)])
    with pytest.raises(ValueError, match="at least one variable"):
        Series.constant(1, 0, 4).compose([])


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
    assert not S("7", 2, 5).derivative(1).terms
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


def test_coefficient_takes_an_exponent_of_the_series_length():
    # a short exponent used to read as absent: coefficient((1,)) was 0
    s = S("x1 + 2*x2", 2, 4)
    assert s.coefficient((0, 1)) == 2 and s.coefficient([1, 0]) == 1
    for expo in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="wrong length for nvars=2"):
            s.coefficient(expo)


def test_coefficient_takes_an_exponent_by_the_constructor_rule():
    # a fractional or negative exponent used to read as absent, 0
    s = S("x1 + 2*x2", 2, 4)
    assert s.coefficient((1.0, 0)) == 1
    for expo, message in [((1.5, 0), "exponent (1.5, 0) is not integral"),
                          ((-1, 1), "exponent (-1, 1) has a negative entry")]:
        with pytest.raises(ValueError) as err:
            s.coefficient(expo)
        assert str(err.value) == message


def test_coefficient_series_extracts_and_renumbers():
    f = S("x2^2 + x1*x2^2 + x3", 3, 6)
    assert f.coefficient_series(2, 2) == S("1 + x1", 2, 6)
    assert f.coefficient_series(2, 0) == S("x2", 2, 6)  # old x3 is now x2


def test_substitute_single_variable():
    f = S("x2 - x1^2", 2, 8)
    phi = S("x1^2", 1, 8)
    assert not f.substitute(2, phi).terms
    with pytest.raises(PreconditionError):
        f.substitute(2, S("1", 1, 8))
    with pytest.raises(ValueError, match="substituend must have 1 variables"):
        f.substitute(2, S("x1", 2, 8))


def test_split_in_variable_reconstructs():
    rng = random.Random(17)
    for _ in range(10):
        f = random_series(rng, 2, 8, nterms=9)
        d = rng.randint(1, 3)
        low, high = split_in_variable(f, 2, d)
        back = low + Series.monomial((0, d), 2, 8) * high
        assert back.same_data(f)
        assert all(e[1] < d for e in low.support())


def test_the_x_k_free_part_undoes_embedding_at_every_position():
    """``coefficient_series(k, 0)`` of a series with no ``x_k`` term is
    the series in the other variables: it takes back the insertion of a
    fresh variable at position ``k`` (:func:`support.embedded`) at every
    position, table, truncation and certificate alike, and the other
    coefficients of ``x_k`` are zero."""
    rng = random.Random(31)
    for _ in range(20):
        nvars, trunc = rng.randint(1, 3), rng.randint(0, 6)
        f = random_series(rng, nvars, trunc).with_guarantee(
            rng.randint(-1, trunc))
        for k in range(1, nvars + 2):
            g = embedded(f, k)
            assert identical(g.coefficient_series(k, 0), f), (f, k)
            assert all(not g.coefficient_series(k, j).terms
                       for j in (1, 2))


def assert_clean(s):
    """The stored table holds the invariant the validating constructor
    enforces, so re-validating it changes nothing."""
    assert Series(s.nvars, s.trunc, s.terms, s.guaranteed_degree).same_data(s)
    assert all(type(c) is Fraction and c != 0 for c in s.terms.values())
    assert all(type(x) is int for e in s.terms for x in e)
    assert all(sum(e) <= s.trunc for e in s.terms)


def test_every_operation_keeps_the_table_invariant():
    from wseries.localring import even_odd_split

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
            outputs = [
                f + g, g + f, f - g, -f, f * g, f * Fraction(-2, 3), f * 0,
                f / 3, 2 - f, f ** 3, u.inverse(), f.compose(zs),
                f.with_guarantee(trunc + 5), f.with_guarantee(-1),
                f.derivative(k), f.coefficient_series(k, j),
                *split_in_variable(f, k, j), *even_odd_split(f, k)]
            if nvars > 1:
                phi = random_series(rng, nvars - 1, trunc, nterms=4,
                                    min_degree=1)
                outputs.append(f.substitute(k, phi))
            for s in outputs:
                assert_clean(s)
    cancelled = S("1 + x1", 1, 4) * S("1 - x1", 1, 4)
    assert_clean(cancelled)
    assert cancelled.terms == {(0,): 1, (2,): -1}


def test_with_guarantee_clamps_to_the_certificate_range():
    s = Series(2, 6, {(1, 0): 1})
    assert s.with_guarantee(99).guaranteed_degree == 6
    assert s.with_guarantee(-2).guaranteed_degree == -1


def test_a_certificate_of_minus_1_certifies_nothing():
    """``-1`` is the least certificate: it builds, round-trips through
    ``to_dict``, compares no term, and is where ``with_guarantee`` and a
    rewrite that reads above its input's certificate stop."""
    empty = Series(2, 4, {}, -1)
    assert empty.guaranteed_degree == -1
    assert identical(Series.from_dict(empty.to_dict()), empty)
    s = Series(2, 4, {(0, 0): 3, (1, 0): 1}, -1)
    assert identical(Series.from_dict(s.to_dict()), s)
    with pytest.raises(ValueError,
                       match=r"^guaranteed_degree must lie in \[-1, trunc\]$"):
        Series(2, 4, {}, -2)
    assert s == empty and empty == s.with_guarantee(0)
    assert s.with_guarantee(-5).guaranteed_degree == -1
    f = S("x1 + 2*x2 + x1^2*x2", 2, 4).with_guarantee(0)
    assert f.derivative(1).guaranteed_degree == -1
    assert [f.coefficient_series(1, j).guaranteed_degree
            for j in range(4)] == [0, -1, -1, -1]
    g = f.with_guarantee(2)
    assert [g.coefficient_series(2, j).guaranteed_degree
            for j in range(5)] == [2, 1, 0, -1, -1]


def test_agreement_helper_spots_divergence():
    a = S("x1 + x1^3", 1, 5)
    b = S("x1 + 2*x1^3", 1, 5)
    assert agree_through(a, b, 2)
    assert not agree_through(a, b, 3)


def test_nonzero_rational_sampler_never_returns_zero():
    rng = random.Random(1)
    assert all(nonzero_rational(rng) != 0 for _ in range(200))
