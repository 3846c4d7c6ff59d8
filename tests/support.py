"""Samplers and comparison helpers shared by the test modules.

Randomised suites use seeded ``random.Random`` instances so every run
exercises identical cases; failures are therefore reproducible verbatim.
"""

import json
from contextlib import contextmanager
from fractions import Fraction

from wseries import (InternalInvariantError, Series, parse_series, pipelines,
                     series, weierstrass)

NONZERO = [-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]
DENOMS = [1, 1, 1, 2, 3, 4]


def S(text, nvars, trunc):
    """Parse shorthand used throughout the tests."""
    return parse_series(text, nvars, trunc)


def nonzero_rational(rng):
    return Fraction(rng.choice(NONZERO), rng.choice(DENOMS))


def random_exponent(rng, nvars, lo, hi):
    degree = rng.randint(lo, hi)
    expo = [0] * nvars
    for _ in range(degree):
        expo[rng.randrange(nvars)] += 1
    return tuple(expo)


def random_series(rng, nvars, trunc, nterms=10, min_degree=0):
    terms = {}
    for _ in range(nterms):
        terms[random_exponent(rng, nvars, min_degree, trunc)] = \
            nonzero_rational(rng)
    return Series(nvars, trunc, terms)


def random_unit(rng, nvars, trunc, nterms=8):
    f = random_series(rng, nvars, trunc, nterms, min_degree=1)
    return f + nonzero_rational(rng)


def _pure_axis_at_most(expo, k, d):
    pure = all(v == 0 for i, v in enumerate(expo) if i != k - 1)
    return pure and expo[k - 1] <= d


def random_order_d(rng, nvars, trunc, k, d, nterms=8):
    """A series of order exactly ``d`` on the x_k axis: a seeded x_k^d term
    plus extra terms that cannot disturb lower axis coefficients."""
    axis = tuple(d if i == k - 1 else 0 for i in range(nvars))
    terms = {axis: nonzero_rational(rng)}
    tries = 0
    while len(terms) <= nterms and tries < 300:
        tries += 1
        e = random_exponent(rng, nvars, 1, trunc)
        if not _pure_axis_at_most(e, k, d):
            terms.setdefault(e, nonzero_rational(rng))
    return Series(nvars, trunc, terms)


def random_even_order2(rng, nvars, trunc, k, nterms=8):
    """Even in x_k, of order exactly 2 on the x_k axis."""
    axis = tuple(2 if i == k - 1 else 0 for i in range(nvars))
    terms = {axis: nonzero_rational(rng)}
    tries = 0
    while len(terms) <= nterms and tries < 300:
        tries += 1
        e = list(random_exponent(rng, nvars, 1, trunc))
        e[k - 1] -= e[k - 1] % 2
        e = tuple(e)
        if sum(e) == 0 or _pure_axis_at_most(e, k, 2):
            continue
        terms.setdefault(e, nonzero_rational(rng))
    return Series(nvars, trunc, terms)


def random_lemma_input(rng, nvars, trunc, k, nterms=8):
    """Axis profile 0, 0, 1, 1 in degrees 0..3 plus unconstrained extras."""
    terms = {
        tuple(2 if i == k - 1 else 0 for i in range(nvars)): Fraction(1),
        tuple(3 if i == k - 1 else 0 for i in range(nvars)): Fraction(1),
    }
    tries = 0
    while len(terms) < nterms + 2 and tries < 300:
        tries += 1
        e = random_exponent(rng, nvars, 1, trunc)
        if not _pure_axis_at_most(e, k, 3):
            terms.setdefault(e, nonzero_rational(rng))
    return Series(nvars, trunc, terms)


def random_implicit_input(rng, nvars, trunc, k, nterms=8):
    """Vanishes at the origin with a nonzero linear x_k coefficient."""
    linear = tuple(1 if i == k - 1 else 0 for i in range(nvars))
    terms = {linear: nonzero_rational(rng)}
    tries = 0
    while len(terms) <= nterms and tries < 300:
        tries += 1
        e = random_exponent(rng, nvars, 1, trunc)
        terms.setdefault(e, nonzero_rational(rng))
    return Series(nvars, trunc, terms)


def random_normalized_h(rng, trunc, density=0.6):
    terms = {(2,): Fraction(1), (3,): Fraction(1)}
    for j in range(4, trunc + 1):
        if rng.random() < density:
            terms[(j,)] = nonzero_rational(rng)
    return Series(1, trunc, terms)


def wide_coeff(rng):
    """Small rationals and ones with numerators and denominators up to
    2^40, so common denominators run to hundreds of bits."""
    if rng.random() < 0.5:
        return nonzero_rational(rng)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 2 ** 40),
                    rng.randint(1, 2 ** 40))


def kernel_table(rng, nvars, trunc, size, lo=0):
    """Up to ``size`` :func:`wide_coeff` terms of degree ``lo`` to ``trunc``
    (at most the constant term when there are no variables)."""
    if not nvars or lo > trunc:
        const = size and not lo
        return Series(nvars, trunc,
                      {(0,) * nvars: wide_coeff(rng)} if const else {})
    return Series(nvars, trunc, {random_exponent(rng, nvars, lo, trunc):
                                 wide_coeff(rng) for _ in range(size)})


def kernel_spaces():
    """``(nvars, trunc)``: nvars 0-4 at trunc 0-12, and 32 at trunc 0-4."""
    for nvars in (0, 1, 2, 3, 4, 32):
        for trunc in range(5 if nvars == 32 else 13):
            yield nvars, trunc


@contextmanager
def record_calls(module, name):
    """Wrap the attribute ``name`` of ``module`` for the duration of the
    block and collect one ``(args, result)`` pair per call, in call order;
    the original is restored on exit."""
    calls = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    setattr(module, name, recorded)
    try:
        yield calls
    finally:
        setattr(module, name, original)


def descent_polynomials(run, *args):
    """``run(*args)`` and the ``(F, P)`` pair of every square descent it
    made, both decoded from the descent's own division loop: the series
    ``F = part - t`` (``part - t^2`` for the even half of a holomorphic
    extension) that the descent divides by, decoded from the packed series
    ``(keys, table, gd)`` it passed to its checked entry
    ``_distinguished``, and the distinguished polynomial decoded from that
    call's remainder by the decoder that ``weierstrass_prepare`` uses.
    ``F`` is not prepared again."""
    with record_calls(pipelines, "_distinguished") as calls:
        result = run(*args)
    pairs = []
    for ((keys, table, gd), _), (k, d, loop) in calls:
        F = keys.series([table], gd)
        pairs.append((F, weierstrass._polynomial(F, k, d, loop[1], keys)))
    return result, tuple(pairs)


# ----------------------------------------------------------------------
# comparisons
# ----------------------------------------------------------------------

def table_through(s, degree):
    return {e: c for e, c in s.terms.items() if sum(e) <= degree}


def agree_through(a, b, degree):
    return table_through(a, degree) == table_through(b, degree)


def square_window(s, degree):
    """Coefficient table in the window where the LAST variable counts
    twice (it stands for a squared original variable)."""
    return {e: c for e, c in s.terms.items()
            if sum(e[:-1]) + 2 * e[-1] <= degree}


def witness_is_valid(check, shift_expo=None):
    """A member's witness must sum to the exponent plus ``shifts`` copies
    of the shift exponent; a non-member must carry no witness."""
    if not check.member:
        return check.witness is None and check.shifts == 0
    if not check.witness:
        return False
    total = [0] * len(check.exponent)
    for w in check.witness:
        total = [a + b for a, b in zip(total, w)]
    if shift_expo is None:
        expected = list(check.exponent)
    else:
        expected = [a + check.shifts * s
                    for a, s in zip(check.exponent, shift_expo)]
    return total == expected


def naive_member(target, generators):
    """Independent membership oracle: exhaustive recursion over generator
    subtractions.  Only for cross-checking the closure-based reports."""
    gens = sorted({g for g in generators if sum(g) > 0})
    if sum(target) == 0:
        return tuple(target) in {tuple(g) for g in generators}
    seen = {}

    def go(t):
        if t in seen:
            return seen[t]
        seen[t] = False  # cycle guard; degrees strictly decrease anyway
        for g in gens:
            if all(a >= b for a, b in zip(t, g)):
                rest = tuple(a - b for a, b in zip(t, g))
                if sum(rest) == 0 or go(rest):
                    seen[t] = True
                    break
        return seen[t]

    return go(tuple(target))


# ----------------------------------------------------------------------
# reference implementations
# ----------------------------------------------------------------------

def split_in_variable(s, k, d):
    """``(low, high)`` with ``s = low + x_k^d * high``: ``low`` collects the
    terms of x_k-degree below ``d`` and ``high`` is shifted down by
    ``x_k^d``, spending ``d`` degrees of certainty."""
    return (
        s._remap(lambda e, c: (e, c) if e[k - 1] < d else None),
        s._remap(lambda e, c: None if e[k - 1] < d
                 else (e[:k - 1] + (e[k - 1] - d,) + e[k:], c), read=(1, d)),
    )


def embedded(s, k):
    """``s`` with a fresh variable inserted at position ``k`` (1-based),
    the variables at or above ``k`` shifted up, table and certificate
    kept: the oracle of the square descent's adjoined ``t``."""
    return Series(s.nvars + 1, s.trunc,
                  {e[:k - 1] + (0,) + e[k - 1:]: c
                   for e, c in s.terms.items()},
                  s.guaranteed_degree)


def halves(f, k, weight, odd_trunc):
    """The square descent's ``F0 = g0 - t^weight`` and ``F1 = g1/x_k - t``
    of ``f = g0 + x_k * g1``, formed on keys by ``series._halves`` from
    ``f`` packed, and decoded."""
    return [keys.series([table], gd) for keys, table, gd in
            series._halves(series._packed(f), k, weight, odd_trunc)]


def over_variable(s, k):
    """``s / x_k`` for ``s`` whose every term holds ``x_k``: the oracle of
    the square descent's odd half.  A result term of degree ``D`` reads
    the source's at ``D + 1``, so it is certified one degree below
    ``s``."""
    assert all(e[k - 1] for e in s.terms), s
    return Series(s.nvars, s.trunc,
                  {e[:k - 1] + (e[k - 1] - 1,) + e[k:]: c
                   for e, c in s.terms.items()},
                  series._certified(s.guaranteed_degree, s.trunc, (1, 1)))


def truncated(s, trunc):
    """``s`` with the terms past ``trunc`` dropped, certified through at
    most ``trunc``."""
    return Series(s.nvars, trunc, s.terms, min(s.guaranteed_degree, trunc))


def halved(f, k):
    """``f``, even in ``x_k``, with every ``x_k`` exponent halved: the
    exponent-halving oracle of the square descent.  The result's term at
    ``(a', j)``, of degree ``|a'| + j``, is the source's at ``(a', 2j)``,
    of degree up to twice that, so it reads ``f`` by the map ``(2, 0)``
    and is certified through ``G // 2`` for ``f`` certified through
    ``G``."""
    assert not any(e[k - 1] % 2 for e in f.terms), f
    return Series(f.nvars, f.trunc,
                  {e[:k - 1] + (e[k - 1] // 2,) + e[k:]: c
                   for e, c in f.terms.items()},
                  series._certified(f.guaranteed_degree, f.trunc, (2, 0)))


def reference_division_loop(g, f, k, d):
    """The whole-series fixpoint that Weierstrass division used to run:
    with ``b = -high^-1 * low`` for ``f = low + x_k^d * high``, each pass
    splits ``delta_m * b`` at x_k-degree ``d``, adds the low part to ``rem``
    and the shifted high part (``delta_{m+1}``) to ``quot``, until a
    ``delta`` vanishes.  Each pass raises the degree in the variables other
    than x_k.  ``series._division_loop`` must match it table for
    table."""
    low, high = split_in_variable(f, k, d)
    unit_inv = high.inverse()
    b = -(unit_inv * low)
    rem, delta = split_in_variable(g, k, d)
    quot = delta
    for _ in range(f.trunc + 3):
        if not delta.terms:
            return quot, rem, unit_inv
        lo, delta = split_in_variable(delta * b, k, d)
        rem = rem + lo
        quot = quot + delta
    raise InternalInvariantError("division iteration did not converge")


def reference_implicit(f, k):
    """The route implicit solving used to take: Weierstrass division of
    ``x_k`` by ``f`` at order 1, ``x_k = q*f + r(x')``, whose remainder is
    the solution (put ``x_k = phi``).  The division loop forms the whole
    quotient in all ``n`` variables; its remainder, free of x_k, is exact
    through the truncation and certified as far as ``f``."""
    keys, table, _ = series._packed(f)
    x_k = keys.pack(Series.variable(k, f.nvars, f.trunc).terms)
    rem = keys.series(series._division_loop(keys, x_k, table, k, 1)[1],
                      f.guaranteed_degree)
    assert not any(e[k - 1] for e in rem.terms), rem
    return rem.coefficient_series(k, 0)


def identical(a, b):
    """Same stored table, truncation and certificate."""
    return (a.same_data(b) and a.trunc == b.trunc
            and a.guaranteed_degree == b.guaranteed_degree)


def in_key_order(s):
    """Terms listed by degree, then by exponent tuple: packed-key order."""
    return list(s.terms) == sorted(s.terms, key=lambda e: (sum(e), e))


def exported(record, keys):
    """``record.to_dict()``, checked to list ``keys`` in that order and to
    come back unchanged from JSON, so no tuple or series is left inside."""
    doc = record.to_dict()
    assert list(doc) == keys
    assert json.loads(json.dumps(doc)) == doc
    return doc
