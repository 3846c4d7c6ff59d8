"""Closure operations of the local series ring: implicit solving and
parity surgery in a chosen variable."""

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


def even_odd_split(f: Series, k: int) -> tuple[Series, Series]:
    """Split by parity of the ``x_k`` exponent; the parts sum to ``f``
    exactly and keep its certification."""
    k = _check_index(k, f.nvars)
    return (f._remap(lambda e, c: None if e[k - 1] % 2 else (e, c)),
            f._remap(lambda e, c: (e, c) if e[k - 1] % 2 else None))

