"""Samplers and comparison helpers shared by the test modules.

Randomised suites use seeded ``random.Random`` instances so every run
exercises identical cases; failures are therefore reproducible verbatim.
"""

from contextlib import contextmanager
from fractions import Fraction

from wseries import InternalInvariantError, Series, parse_series, pipelines

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
    made: the series ``F = part - t`` and its distinguished polynomial."""
    with record_calls(pipelines, "_distinguished") as calls:
        result = run(*args)
    return result, tuple((call[0], out[0]) for call, out in calls)


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

def reference_inverse(s):
    """Inverse of a unit by the whole-series fixpoint ``acc <- 1 - m*acc``
    on the augmentation ``m = s/c - 1``, iterated until the stored table
    stops changing.  The degree-graded :meth:`Series.inverse` must match
    it table for table."""
    c = s.constant_term()
    m = s * (Fraction(1) / c) - 1
    one = Series.constant(1, s.nvars, s.trunc)
    acc = one
    for _ in range(s.trunc):
        nxt = one - m * acc
        if nxt.same_data(acc):
            break
        acc = nxt
    return (acc * (Fraction(1) / c)).with_guarantee(s.guaranteed_degree)


def reference_solve_implicit(f, k):
    """Implicit solution by whole-series successive substitution
    ``phi <- -(1/c) * rest(x', phi)`` at the full truncation, iterated until
    the stored table stops changing (at most ``trunc + 2`` passes)."""
    linear = tuple(1 if i == k - 1 else 0 for i in range(f.nvars))
    c = f.coefficient(linear)
    rest = f - Series.monomial(linear, f.nvars, f.trunc, c)
    scale = Fraction(-1) / c
    phi = Series.zero(f.nvars - 1, f.trunc)
    for _ in range(f.trunc + 2):
        nxt = rest.substitute(k, phi) * scale
        if nxt.same_data(phi):
            return phi.with_guarantee(f.guaranteed_degree)
        phi = nxt
    raise AssertionError("reference implicit iteration did not converge")


def reference_division_loop(g, f, k, d):
    """The whole-series fixpoint that Weierstrass division used to run:
    with ``b = -high^-1 * low`` for ``f = low + x_k^d * high``, each pass
    splits ``delta_m * b`` at x_k-degree ``d``, adds the low part to ``rem``
    and the shifted high part (``delta_{m+1}``) to ``quot``, until a
    ``delta`` vanishes.  Each pass raises the degree in the variables other
    than x_k.  ``weierstrass._division_loop`` must match it table for
    table."""
    low, high = f.split_in_variable(k, d)
    unit_inv = high.inverse()
    b = -(unit_inv * low)
    rem, delta = g.split_in_variable(k, d)
    quot = delta
    for _ in range(f.trunc + 3):
        if delta.is_zero():
            return quot, rem, unit_inv
        lo, delta = (delta * b).split_in_variable(k, d)
        rem = rem + lo
        quot = quot + delta
    raise InternalInvariantError("division iteration did not converge")


def reference_add(self, other):
    """Two-table series addition: copy the first table, then add the second
    into it term by term, dropping zero sums.  The one n-ary sum of
    :mod:`wseries.series` must match a fold of it table for table."""
    self._check_space(other)
    trunc = min(self.trunc, other.trunc)
    gd = min(self.guaranteed_degree, other.guaranteed_degree)
    acc = dict(self._terms)
    for e, c in other._terms.items():
        v = acc.get(e)
        s = c if v is None else v + c
        if s == 0:
            acc.pop(e, None)
        else:
            acc[e] = s
    if self.trunc != other.trunc:
        acc = {e: c for e, c in acc.items() if sum(e) <= trunc}
    return Series._make(self.nvars, trunc, acc, min(gd, trunc))


def identical(a, b):
    """Same stored table, truncation and certificate."""
    return (a.same_data(b) and a.trunc == b.trunc
            and a.guaranteed_degree == b.guaranteed_degree)
