"""Closure operations of the local series ring: implicit solving, exact
division by a variable, and parity surgery in a chosen variable."""

from __future__ import annotations

from .errors import PreconditionError
from .series import Series, _check_index, _implicit


def solve_implicit(f: Series, k: int) -> Series:
    """Solve ``f = 0`` for ``x_k`` near the origin.

    Requires ``f(0) = 0`` and a nonzero linear coefficient in ``x_k``.
    Returns ``phi`` in the remaining ``n - 1`` variables (indices above
    ``k`` shifted down) with ``phi(0) = 0`` and ``f(x', phi(x')) = 0``
    through the certified degree of ``f``.

    For ``f = c*x_k + rest``, ``phi`` solves ``phi = -(1/c) * rest(x',
    phi)``, and as ``phi(0) = 0`` the degree-``D`` part of the right side
    reads ``f`` through degree ``D`` only, so ``phi`` is certified as far
    as ``f``.  :func:`~wseries.series._implicit` solves it one total degree
    at a time, by a Horner recurrence in the remaining variables.
    """
    k = _check_index(k, f.nvars)
    if f.constant_term() != 0:
        raise PreconditionError("implicit solve requires a root at the origin")
    if f.order_in(k) != 1:
        raise PreconditionError(
            f"implicit solve requires a nonzero linear coefficient in x{k}")
    return _implicit(f, k)


def divide_by_variable(f: Series, k: int) -> Series:
    """Exact division by the monomial ``x_k``: every term must carry a
    positive ``x_k`` exponent.  One degree of certainty is spent (a result
    term of degree D reads a source term of degree D + 1)."""
    k = _check_index(k, f.nvars)
    bad = next((e for e in f.terms if e[k - 1] == 0), None)
    if bad is not None:
        raise PreconditionError(
            f"term {bad} has no x{k} factor: monomial division is inexact")
    return f._remap(lambda e, c: (e[:k - 1] + (e[k - 1] - 1,) + e[k:], c),
                    read=(1, 1))


def even_odd_split(f: Series, k: int) -> tuple[Series, Series]:
    """Split by parity of the ``x_k`` exponent; the parts sum to ``f``
    exactly and keep its certification."""
    k = _check_index(k, f.nvars)
    return (f._remap(lambda e, c: None if e[k - 1] % 2 else (e, c)),
            f._remap(lambda e, c: (e, c) if e[k - 1] % 2 else None))


def halve_exponents(f: Series, k: int) -> Series:
    """Halves every ``x_k`` exponent of a series even in ``x_k``: this
    undoes doubling the ``x_k`` exponents.

    Each stored coefficient is a verbatim source coefficient, but halving
    lowers the degree: the result's coefficient at ``(a', j)``, of degree
    ``|a'| + j``, is the source's at ``(a', 2j)``, of degree up to twice
    that.  So the read map is ``(2, 0)``, and the result is certified
    through ``G // 2`` for ``f`` certified through ``G``.
    """
    k = _check_index(k, f.nvars)
    bad = next((e for e in f.terms if e[k - 1] % 2), None)
    if bad is not None:
        raise PreconditionError(
            f"term {bad} has odd x{k} exponent: cannot halve")
    return f._remap(lambda e, c: (e[:k - 1] + (e[k - 1] // 2,) + e[k:], c),
                    read=(2, 0))
