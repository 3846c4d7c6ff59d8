"""The series core against one independent oracle, sympy's ``ring_series``.

sympy truncates in one variable, so a weight variable ``t`` multiplies
every ``x_i``: a term of total degree ``D`` carries ``t^D``, and truncating
at ``t^(trunc+1)`` truncates by total degree.  Each check compares the
stored table, the truncation, the certificate and the ``Fraction`` type."""

import random
from fractions import Fraction
from functools import cache, reduce
from operator import add

from sympy import QQ
from sympy.polys.ring_series import rs_mul, rs_series_inversion, rs_trunc
from sympy.polys.rings import ring

from support import (S, identical, in_key_order, kernel_spaces, kernel_table,
                     nonzero_rational, random_exponent, random_implicit_input,
                     random_series, random_unit, wide_coeff)
from wseries import Series, solve_implicit
from wseries.series import _Keys, _over, _sum


@cache
def _ring(nvars):
    """``QQ[x1, ..., xn, t]``."""
    return ring([f"x{i}" for i in range(1, nvars + 1)] + ["t"], QQ)[0]


def to_sympy(s):
    return _ring(s.nvars)({e + (sum(e),): c for e, c in s.terms.items()})


def agrees(got, p, trunc, gd):
    """``got`` is the sympy series ``p``, truncated at ``trunc`` and
    certified through ``gd``, with ``Fraction`` coefficients."""
    want = Series(got.nvars, trunc, {
        e[:-1]: Fraction(int(c.numerator), int(c.denominator))
        for e, c in p.items()}, gd)
    return (identical(got, want)
            and all(type(c) is Fraction for c in got.terms.values()))


def compose(f, gs, trunc):
    """``f(gs)`` through degree ``trunc`` for sympy series ``gs`` with no
    constant term: Horner in ``x_1`` over Horner in ``x_2`` and so on,
    every product an ``rs_mul``."""
    R, t = gs[0].ring, gs[0].ring.gens[-1]

    def horner(terms, i):
        if i == len(gs):
            return R(terms.get((), 0))
        by_power = {}
        for e, c in terms.items():
            by_power.setdefault(e[0], {})[e[1:]] = c
        acc = R(0)
        for j in range(max(by_power, default=0), -1, -1):
            acc = rs_mul(acc, gs[i], t, trunc + 1) + horner(
                by_power.get(j, {}), i + 1)
        return acc

    return rs_trunc(horner(f.terms, 0), t, trunc + 1)


def _with_variables(nvars, k, s, trunc):
    """Sympy ``x_1 .. x_nvars``, weighted, with ``s`` inserted at ``k``."""
    xs = [to_sympy(Series.variable(i, nvars, trunc))
          for i in range(1, nvars + 1)]
    return xs[:k - 1] + [to_sympy(s)] + xs[k - 1:]


def test_products_match_sympy():
    """Operands of 0 to 8 terms, the second truncated up to 3 degrees
    higher and certified below its truncation, in both orders; products
    that cancel to zero; a digit sum past the truncation."""
    rng = random.Random(4101)
    cases = [(S("1 + x1 + x2", 2, 2), S("1 - x1 + x2", 2, 2)),
             (S("x1 - x2", 2, 1), S("x1 + x2", 2, 1)),
             (Series(2, 4, {(3, 0): 2, (0, 2): 1}),
              Series(2, 9, {(2, 0): 3, (0, 0): 1, (0, 9): 5, (9, 0): 7}))]
    for nvars, trunc in kernel_spaces():
        for size_x, size_y in ((0, 3), (1, 1), (1, 6), (5, 8)):
            x = kernel_table(rng, nvars, trunc, size_x)
            y = kernel_table(rng, nvars, rng.randint(trunc, trunc + 3),
                             size_y).with_guarantee(rng.randint(0, trunc))
            cases += [(x, y), (y, x)]
    for a, b in cases:
        trunc = min(a.trunc, b.trunc)
        want = rs_mul(to_sympy(a), to_sympy(b), _ring(a.nvars).gens[-1],
                      trunc + 1)
        gd = min(a.guaranteed_degree, b.guaranteed_degree)
        assert agrees(a * b, want, trunc, gd) and in_key_order(a * b), (a, b)


def _units():
    """Units with wide coefficients on the product grid, then dense and
    sparse high-order augmentations of rational constants in 1-4
    variables; all certified below their truncation."""
    rng = random.Random(4102)
    for nvars, trunc in kernel_spaces():
        for size in (0, 1, 6):
            u = kernel_table(rng, nvars, trunc, size, lo=1) + wide_coeff(rng)
            yield u.with_guarantee(rng.randint(0, trunc))
    rng = random.Random(3301)
    for nvars in range(1, 5):
        for trunc in range(13):
            c = nonzero_rational(rng)
            dense = sparse = Series.constant(c, nvars, trunc)
            if trunc:
                dense = random_unit(rng, nvars, trunc, nterms=10)
                high = random_exponent(rng, nvars, max(trunc // 2, 1), trunc)
                sparse += Series.monomial(high, nvars, trunc,
                                          nonzero_rational(rng))
            for u in (dense, sparse):
                yield u.with_guarantee(rng.randint(0, trunc))


def test_inverses_match_sympy():
    for u in _units():
        want = rs_series_inversion(to_sympy(u), _ring(u.nvars).gens[-1],
                                   u.trunc + 1)
        got, gd = u.inverse(), u.guaranteed_degree
        assert agrees(got, want, u.trunc, gd) and in_key_order(got), u


def test_packed_quotients_match_sympy():
    """``_over(a, x)``, decoded, is ``a * x^-1`` in sympy on the product
    grid: ``x`` a unit whose constant term is negative at every other case,
    ``a`` of 0, 1 and 8 terms spread over the grades, coefficients up to
    2^40 wide.  The decoded table keeps the truncation and key order."""
    rng = random.Random(4106)
    for nvars, trunc in kernel_spaces():
        keys = _Keys(nvars, trunc)
        for size in (0, 1, 8):
            c = (-1) ** (trunc + size) * abs(wide_coeff(rng))
            x = kernel_table(rng, nvars, trunc, 6, lo=1) + c
            a = kernel_table(rng, nvars, trunc, size)
            got = keys.series(_over(keys, keys.pack(a.terms),
                                    keys.pack(x.terms)), trunc)
            t = _ring(nvars).gens[-1]
            want = rs_mul(to_sympy(a), rs_series_inversion(
                to_sympy(x), t, trunc + 1), t, trunc + 1)
            assert agrees(got, want, trunc, trunc) and in_key_order(got), (
                a, x)


def test_sums_match_sympy():
    """One to six parts with unequal truncations and certificates; some
    parts cancel earlier ones, term by term or to zero.  The n-ary
    ``_sum`` and a fold of ``+`` both give the sympy sum."""
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
                parts.append(-reduce(add, parts))
            trunc = min(p.trunc for p in parts)
            gd = min(p.guaranteed_degree for p in parts)
            want = rs_trunc(sum(map(to_sympy, parts)),
                            _ring(nvars).gens[-1], trunc + 1)
            for got in (_sum(parts), reduce(add, parts)):
                assert agrees(got, want, trunc, gd), parts
            cancelled += want == 0 and len(parts) > 1
    assert cancelled


def test_composition_matches_sympy():
    """``f`` in 1-4 variables, truncated up to 2 degrees higher, composed
    with series of positive order in 1-3 variables at trunc 1-8, and
    ``f.substitute(k, s)``, which maps every other variable to itself;
    certificates below the truncation.  Both list their terms in key
    order."""
    rng = random.Random(4105)
    for n in range(1, 5):
        for m in range(1, 4):
            for trunc in range(1, 9):
                f = random_series(rng, n, rng.randint(trunc, trunc + 2),
                                  nterms=rng.randint(0, 8))
                f = f.with_guarantee(rng.randint(0, f.trunc))
                gs = [random_series(rng, m, trunc, nterms=rng.randint(0, 4),
                                    min_degree=1) for _ in range(n)]
                gs[0] = gs[0].with_guarantee(rng.randint(0, trunc))
                want = compose(f, list(map(to_sympy, gs)), trunc)
                gd = min(f.guaranteed_degree, gs[0].guaranteed_degree, trunc)
                got = f.compose(gs)
                assert agrees(got, want, trunc, gd) and in_key_order(got), (
                    f, gs)
                if m == n - 1:
                    k = rng.randint(1, n)
                    want = compose(f, _with_variables(m, k, gs[0], trunc),
                                   trunc)
                    got = f.substitute(k, gs[0])
                    assert agrees(got, want, trunc, gd) and in_key_order(got)


def test_implicit_solutions_vanish_in_sympy():
    """``f(x', phi)``, computed in sympy, vanishes through the truncation
    and ``phi(0) = 0``, which determine every stored coefficient of
    ``phi``; ``phi`` keeps the truncation and certificate of ``f``.  Dense
    and sparse high-order inputs, rational linear coefficients,
    certificates below the truncation."""
    rng = random.Random(3307)
    for nvars in range(1, 5):
        for trunc in range(1, 13):
            k = rng.randint(1, nvars)
            dense = random_implicit_input(rng, nvars, trunc, k, nterms=8)
            linear = tuple(1 if i == k - 1 else 0 for i in range(nvars))
            high = random_exponent(rng, nvars, max(trunc // 2, 2),
                                   max(trunc, 2))
            sparse = Series(nvars, trunc, {linear: nonzero_rational(rng),
                                           high: nonzero_rational(rng)})
            for f in (dense, sparse):
                f = f.with_guarantee(rng.randint(0, trunc))
                phi = solve_implicit(f, k)
                back = compose(f, _with_variables(nvars - 1, k, phi, trunc),
                               trunc)
                assert back == 0 and phi.constant_term() == 0, f
                # phi's own table, with the truncation and certificate of f
                assert agrees(phi, to_sympy(phi), trunc, f.guaranteed_degree)
                assert in_key_order(phi), f
