"""Closure operations of the local series ring: implicit solving, exact
division by a variable, and parity surgery in a chosen variable."""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError
from .series import Series, _check_index


def solve_implicit(f: Series, k: int) -> Series:
    """Solve ``f = 0`` for ``x_k`` near the origin.

    Requires ``f(0) = 0`` and a nonzero linear coefficient in ``x_k``.
    Returns ``phi`` in the remaining ``n - 1`` variables (indices above
    ``k`` shifted down) with ``phi(0) = 0`` and ``f(x', phi(x')) = 0``
    through the certified degree of ``f``.

    Computed one total degree at a time: writing ``f = c*x_k + rest``,
    ``phi`` is the unique truncated solution of ``phi = -(1/c) * rest(x',
    phi)``.  ``rest`` has no constant term and no term that is ``x_k``
    alone, so the degree-``D`` part of ``rest(x', phi)`` reads only the part
    of ``phi`` below degree ``D``.  Pass ``D`` therefore evaluates the step
    truncated at ``D`` on the previous pass's ``phi`` and is exact through
    ``D``; after ``trunc`` passes the equation holds through the truncation.
    """
    _check_index(k, f.nvars)
    if f.constant_term() != 0:
        raise PreconditionError("implicit solve requires a root at the origin")
    linear = tuple(1 if i == k - 1 else 0 for i in range(f.nvars))
    c = f.coefficient(linear)
    if c == 0:
        raise PreconditionError(
            f"implicit solve requires a nonzero linear coefficient in x{k}")
    rest = f - Series.monomial(linear, f.nvars, f.trunc, c)
    scale = Fraction(-1) / c
    phi = Series.zero(f.nvars - 1, 0)
    for degree in range(1, f.trunc + 1):
        phi = rest.substitute(k, Series(f.nvars - 1, degree, phi.terms)) * scale
    return phi.with_guarantee(f.guaranteed_degree)


def divide_by_variable(f: Series, k: int) -> Series:
    """Exact division by the monomial ``x_k``: every term must carry a
    positive ``x_k`` exponent.  One degree of certainty is spent (a result
    term of degree D reads a source term of degree D + 1)."""
    _check_index(k, f.nvars)
    bad = next((e for e in f.terms if e[k - 1] == 0), None)
    if bad is not None:
        raise PreconditionError(
            f"term {bad} has no x{k} factor: monomial division is inexact")
    return f._remap(lambda e, c: (e[:k - 1] + (e[k - 1] - 1,) + e[k:], c),
                    loss=1)


def even_odd_split(f: Series, k: int) -> tuple[Series, Series]:
    """Split by parity of the ``x_k`` exponent; the parts sum to ``f``
    exactly and keep its certification."""
    _check_index(k, f.nvars)
    return (f._remap(lambda e, c: None if e[k - 1] % 2 else (e, c)),
            f._remap(lambda e, c: (e, c) if e[k - 1] % 2 else None))


def halve_exponents(f: Series, k: int) -> Series:
    """Inverse of :meth:`Series.substitute_square` on series even in
    ``x_k``: halves every ``x_k`` exponent.

    A lossless table rewrite: each stored coefficient is a verbatim source
    coefficient, so the certification bound is carried over per term (the
    result's coefficient at ``(a', j)`` is the source's at ``(a', 2j)``).
    """
    _check_index(k, f.nvars)
    bad = next((e for e in f.terms if e[k - 1] % 2), None)
    if bad is not None:
        raise PreconditionError(
            f"term {bad} has odd x{k} exponent: cannot halve")
    return f._remap(lambda e, c: (e[:k - 1] + (e[k - 1] // 2,) + e[k:], c))
