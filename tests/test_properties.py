"""Property tests of the square descent, drawn by ``hypothesis``.

Two identities hold for every admitted input: the split of ``f`` into
``f0(x', x_k^2) + x_k * f1(x', x_k^2)`` reassembles to ``f`` through the
certificate, and the holomorphic extension of a normalized ``h`` stores
exactly the table of its binomial complexification.  The draws are
derandomized and no example database is kept, so every run checks the same
examples; a failure prints the input that falsified the property."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from wseries import (Series, direct_complexification, holomorphic_extension,
                     reconstruct_split, split_square)

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=100)

#: small nonzero rationals, as the seeded suites draw them
COEFFS = st.builds(Fraction, st.integers(1, 5) | st.integers(-5, -1),
                   st.integers(1, 6))


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
def normalized_h(draw):
    """A univariate ``h = x^2 + x^3 + ...`` at truncation 4-14, certified
    through 3 or more."""
    trunc = draw(st.integers(4, 14))
    terms = draw(st.dictionaries(st.integers(4, trunc).map(lambda j: (j,)),
                                 COEFFS, max_size=trunc - 3))
    terms.update({(2,): 1, (3,): 1})
    return Series(1, trunc, terms, draw(st.integers(3, trunc)))


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
