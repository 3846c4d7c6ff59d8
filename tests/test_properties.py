"""Property tests of the core and of the square descent, drawn by
``hypothesis``.

An identity holds for every admitted input of each operation, through the
certificate it returns: Weierstrass division gives ``g = q*f + r`` with
``deg_{x_k} r < d``; preparation gives ``U*P = f`` with ``U(0) != 0`` and
``P`` distinguished; implicit solving gives ``f(x', phi) = 0``; the split
of ``f`` into ``f0(x', x_k^2) + x_k * f1(x', x_k^2)`` reassembles to
``f``; and the holomorphic extension of a normalized ``h`` stores exactly
the table of its binomial complexification.  The order rule on packed
keys (:meth:`_Keys.order_in`, which the checked entry of every preparation
applies) agrees with :meth:`Series.order_in` (which division applies) on
every axis, and keys derived from keys of a higher truncation, whose radix
is larger, pack, multiply, decode and read orders as fresh keys do.  The
draws are derandomized
and no example database is kept, so every run checks the same examples; a
failure prints the input that falsified the property."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from wseries import (Series, direct_complexification, holomorphic_extension,
                     reconstruct_split, solve_implicit, split_square,
                     weierstrass_divide, weierstrass_prepare)
from wseries.series import FLAT, _Keys, _products

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=100)

#: small nonzero rationals, as the seeded suites draw them
COEFFS = st.builds(Fraction, st.integers(1, 5) | st.integers(-5, -1),
                   st.integers(1, 6))


def exponents(nvars, trunc):
    """Exponents in ``nvars`` variables of total degree at most
    ``trunc``."""
    return st.lists(st.integers(0, nvars - 1), max_size=trunc).map(
        lambda picks: tuple(picks.count(i) for i in range(nvars)))


@st.composite
def of_order(draw, orders=st.integers(0, 3)):
    """``(f, k, d)``: ``f`` in 1-3 variables at truncation ``d``-8 (1 at
    least), certified through ``d`` or more, of order ``d`` on the ``x_k``
    axis: a nonzero ``x_k^d`` term, no axis term below it, and up to 8
    further terms."""
    nvars, d = draw(st.integers(1, 3)), draw(orders)
    k, trunc = draw(st.integers(1, nvars)), draw(st.integers(max(d, 1), 8))
    below = {tuple(j * (i == k - 1) for i in range(nvars)) for j in range(d)}
    terms = draw(st.dictionaries(
        exponents(nvars, trunc).filter(lambda e: e not in below), COEFFS,
        max_size=8))
    terms[tuple(d * (i == k - 1) for i in range(nvars))] = draw(COEFFS)
    return Series(nvars, trunc, terms, draw(st.integers(d, trunc))), k, d


@st.composite
def dividends(draw, nvars, d):
    """A series in ``nvars`` variables at truncation ``d``-8 (1 at least),
    certified through ``d`` or more, with up to 10 terms."""
    trunc = draw(st.integers(max(d, 1), 8))
    terms = draw(st.dictionaries(exponents(nvars, trunc), COEFFS,
                                 max_size=10))
    return Series(nvars, trunc, terms, draw(st.integers(d, trunc)))


@st.composite
def lemma_inputs(draw):
    """``(f, k)``: ``f`` in 1-3 variables at truncation 4-10, certified
    through 3 or more, whose ``x_k`` axis starts ``x_k^2 + x_k^3``, with up
    to 8 further terms off the axis's first four degrees."""
    nvars = draw(st.integers(1, 3))
    k, trunc = draw(st.integers(1, nvars)), draw(st.integers(4, 10))
    axis = [tuple(j * (i == k - 1) for i in range(nvars)) for j in range(4)]
    expo = st.lists(st.integers(0, nvars - 1), min_size=1,
                    max_size=trunc).map(
        lambda picks: tuple(picks.count(i) for i in range(nvars)))
    terms = draw(st.dictionaries(expo.filter(lambda e: e not in axis),
                                 COEFFS, max_size=8))
    terms.update({axis[2]: 1, axis[3]: 1})
    return Series(nvars, trunc, terms, draw(st.integers(3, trunc))), k


@st.composite
def on_some_axis(draw):
    """A series in 1-3 variables at truncation 0-8 with up to 8 terms
    anywhere (the constant term among them) and up to 3 more on one
    ``x_k`` axis, or none: constants, flat and empty series included."""
    nvars, trunc = draw(st.integers(1, 3)), draw(st.integers(0, 8))
    k = draw(st.integers(1, nvars))
    terms = draw(st.dictionaries(exponents(nvars, trunc), COEFFS,
                                 max_size=8))
    for j, c in draw(st.dictionaries(st.integers(0, trunc), COEFFS,
                                     max_size=3)).items():
        terms[tuple(j * (i == k - 1) for i in range(nvars))] = c
    return Series(nvars, trunc, terms)


@st.composite
def normalized_h(draw):
    """A univariate ``h = x^2 + x^3 + ...`` at truncation 4-14, certified
    through 3 or more."""
    trunc = draw(st.integers(4, 14))
    terms = draw(st.dictionaries(st.integers(4, trunc).map(lambda j: (j,)),
                                 COEFFS, max_size=trunc - 3))
    terms.update({(2,): 1, (3,): 1})
    return Series(1, trunc, terms, draw(st.integers(3, trunc)))


@PROPERTY
@given(on_some_axis())
def test_the_packed_order_rule_agrees_with_the_series_one(f):
    keys = _Keys(f.nvars, f.trunc)
    items, _ = keys.pack(f.terms)
    orders = [f.order_in(k) for k in range(1, f.nvars + 1)]
    assert [keys.order_in(items, k) for k in range(1, f.nvars + 1)] == orders
    if not f.terms:
        assert orders == [FLAT] * f.nvars


@st.composite
def derived_keys(draw):
    """``(terms, f, g, keys)``: a table in 1-3 variables with degrees up to
    two past a truncation of 0-8, the two series at that truncation with up
    to 8 terms each, the first holding the table's terms through it, and
    keys for them derived from keys of a truncation 1-4 higher, so their
    radix exceeds ``trunc + 1``."""
    nvars, trunc = draw(st.integers(1, 3)), draw(st.integers(0, 8))
    terms = draw(st.dictionaries(exponents(nvars, trunc + 2), COEFFS,
                                 max_size=8))
    g = draw(st.dictionaries(exponents(nvars, trunc), COEFFS, max_size=8))
    source = _Keys(draw(st.integers(1, 3)), trunc + draw(st.integers(1, 4)))
    return (terms, Series(nvars, trunc, terms), Series(nvars, trunc, g),
            _Keys(nvars, trunc, source))


@PROPERTY
@given(derived_keys())
def test_derived_keys_pack_and_multiply_as_fresh_keys_do(case):
    terms, f, g, keys = case
    fresh = _Keys(f.nvars, f.trunc)
    assert keys.radix > fresh.radix
    decoded = [k.series([k.pack(terms)], f.trunc) for k in (keys, fresh)]
    assert decoded[0].same_data(f) and decoded[1].same_data(f)
    assert decoded[0].trunc == decoded[1].trunc == f.trunc
    assert list(decoded[0].terms) == list(decoded[1].terms)
    (xs, dx), (ys, dy) = keys.pack(f.terms), keys.pack(g.terms)
    acc = _products({}, xs, sorted(ys), keys.limit, 1).items()
    product = keys.series([([(k, v) for k, v in acc if v], dx * dy)],
                          f.trunc)
    assert product.same_data(f * g)
    assert list(product.terms) == list((f * g).terms)
    for k in range(1, f.nvars + 1):
        assert keys.order_in(xs, k) == fresh.order_in(
            fresh.pack(f.terms)[0], k) == f.order_in(k)


@PROPERTY
@given(lemma_inputs())
def test_a_split_reassembles_to_its_input(case):
    f, k = case
    assert reconstruct_split(split_square(f, k), k) == f


@PROPERTY
@given(normalized_h())
def test_the_extension_stores_the_binomial_complexification(h):
    ext, direct = holomorphic_extension(h), direct_complexification(h)
    assert ext.u.same_data(direct.u) and ext.v.same_data(direct.v)


@PROPERTY
@given(of_order().flatmap(
    lambda case: st.tuples(st.just(case), dividends(case[0].nvars, case[2]))))
def test_a_division_multiplies_back_with_a_low_remainder(cases):
    (f, k, d), g = cases
    div = weierstrass_divide(g, f, k)
    residual = g - (div.quotient * f + div.remainder)
    assert residual.vanishes_through(div.guaranteed_degree)
    assert all(e[k - 1] < d for e in div.remainder.terms)


@PROPERTY
@given(of_order())
def test_a_preparation_multiplies_back_to_a_unit_times_a_distinguished_poly(
        case):
    f, k, d = case
    prep = weierstrass_prepare(f, k)
    P = prep.poly.expand()
    assert (prep.unit * P - f).vanishes_through(prep.guaranteed_degree)
    assert prep.unit.constant_term() != 0
    assert (prep.poly.d, prep.poly.k) == (d, k)
    assert all(a.constant_term() == 0 for a in prep.poly.coeffs)
    assert P.coefficient(tuple(d * (i == k - 1) for i in range(f.nvars))) == 1
    assert all(e[k - 1] <= d for e in P.terms)


@PROPERTY
@given(of_order(st.just(1)))
def test_an_implicit_solution_is_a_root(case):
    f, k, _ = case
    phi = solve_implicit(f, k)
    assert f.substitute(k, phi).vanishes_through(phi.guaranteed_degree)
