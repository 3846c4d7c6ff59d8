"""Weierstrass division and preparation for truncated power series.

Division of ``g`` by ``f`` with ``f`` of finite order ``d`` in a chosen
variable produces ``g = q*f + r`` with the remainder of x_k-degree below
``d``.  Preparation factors ``f = U * P`` with ``U`` a unit and ``P`` a
monic distinguished polynomial ``x_k^d + a_1*x_k^(d-1) + ... + a_d`` whose
coefficients are series in the remaining variables vanishing at the origin.

Each certificate is :func:`series._certified` of a read map ``(a, b)``:
an output term of degree ``D`` is taken to read input terms of degree at
most ``a*D + b``, so the output is certified through ``(G - b) // a`` for
inputs certified through ``G``.  Division and preparation use ``(1, d)``,
``d`` degrees below their inputs.  That is sound for ``d <= 1``.  For
larger ``d`` an output coefficient at total degree D can depend on input
coefficients up to degree ``d*(D + 1)``, a read map of ``(d, d)``, so the
certificate overstates (a known defect, pinned in
``tests/test_certificates.py``).  Part ``i`` of
:meth:`DistinguishedPoly.expand` raises every degree of ``a_i`` by ``d -
i``, so its map is ``(1, i - d)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError, PreconditionError
from .series import (FLAT, Series, _axis, _certified, _check_index,
                     _division_loop, _over, _Record, _size, _sum)


@dataclass(frozen=True)
class DistinguishedPoly(_Record):
    """Monic polynomial ``x_k^d + a_1*x_k^(d-1) + ... + a_d`` in the
    distinguished variable ``k`` of an ``nvars``-dimensional space.  The
    ``coeffs`` tuple holds ``a_1 .. a_d`` as series in the remaining
    ``nvars - 1`` variables (indices above ``k`` shifted down), each
    vanishing at the origin and truncated at ``trunc``.  ``d = 0`` encodes
    the constant polynomial 1."""

    _EXPORT = ("d", "k", "nvars", "trunc", "coeffs")

    d: int
    k: int
    nvars: int
    trunc: int
    coeffs: tuple

    def __post_init__(self):
        for name in ("d", "nvars", "trunc"):
            object.__setattr__(self, name, _size(getattr(self, name), name))
        object.__setattr__(self, "k", _check_index(self.k, self.nvars))
        if len(self.coeffs) != self.d:
            raise ValueError("need exactly d trailing coefficients")
        for a in self.coeffs:
            if a.nvars != self.nvars - 1:
                raise ValueError("coefficient lives in the wrong space")
            if a.trunc != self.trunc:
                raise ValueError(f"coefficient truncated at {a.trunc}, "
                                 f"not at {self.trunc}")
            if a.constant_term() != 0:
                raise ValueError("distinguished coefficients must vanish at 0")

    def expand(self) -> Series:
        """Embed back into the full space as a single series: each
        ``a_i * x_k^(d-i)``, with ``a_0 = 1``, inserts the exponent ``d - i``
        at position ``k`` of the terms of ``a_i``.  That raises every degree
        by ``d - i``, so the part reads ``a_i`` by the map ``(1, i - d)``:
        it is certified ``d - i`` above ``a_i`` (capped at ``trunc``), and
        the sum through the least of those."""
        k, d = self.k - 1, self.d
        lead = Series.constant(1, self.nvars - 1, self.trunc)
        return _sum([a._remap(lambda e, c, s=d - i: (e[:k] + (s,) + e[k:], c),
                              self.nvars, read=(1, i - d))
                     for i, a in enumerate((lead,) + self.coeffs)])


@dataclass(frozen=True)
class DivisionResult(_Record):
    """``dividend = quotient * divisor + remainder`` with
    ``deg_{x_k}(remainder) < d``, certified through ``guaranteed_degree``."""

    _EXPORT = ("d", "k", "guaranteed_degree", "quotient", "remainder")

    quotient: Series
    remainder: Series
    d: int
    k: int
    guaranteed_degree: int


@dataclass(frozen=True)
class PreparationResult(_Record):
    """``f = unit * poly.expand()`` certified through ``guaranteed_degree``."""

    _EXPORT = ("guaranteed_degree", "unit", "poly", "poly_expanded")

    unit: Series
    poly: DistinguishedPoly
    guaranteed_degree: int

    @property
    def poly_expanded(self) -> Series:
        return self.poly.expand()


def weierstrass_divide(g: Series, f: Series, k: int) -> DivisionResult:
    """Divide ``g`` by ``f``, distinguished in variable ``k``: the
    quotient against ``f`` is ``q = Q/high`` for the loop's quotient ``Q``,
    one packed :func:`_over`, at the smaller of the two truncations."""
    g._check_space(f)
    k, d = _certified_order(f, k, "divisor", "division")
    certified = _certified(min(g.guaranteed_degree, f.guaranteed_degree),
                           min(g.trunc, f.trunc), (1, d))
    if certified < 0:
        raise PreconditionError(
            f"dividend is certified below the order {d} in x{k}: "
            "division undefined")
    quot, rem, high, keys = _division_loop(g, f, k, d)
    return DivisionResult(keys.series(_over(keys, quot, high), certified),
                          keys.series(rem, certified), d, k, certified)


def _certified_order(f: Series, k: int, noun: str, operation: str) -> tuple:
    """``(k, d)``: the index ``k`` as :func:`_check_index` returns it and
    the order ``d`` of ``f`` on the x_k axis.  The order must be finite and
    certified: a ``d`` above the certified degree of ``f`` is read from
    coefficients that the inputs do not determine."""
    k = _check_index(k, f.nvars)
    d = f.order_in(k)
    if d is FLAT:
        raise PreconditionError(
            f"{noun} is flat in x{k}: no finite order, {operation} undefined")
    if d > f.guaranteed_degree:
        raise PreconditionError(
            f"{noun} has order {d} in x{k}, above its certified degree "
            f"{f.guaranteed_degree}: {operation} undefined")
    return k, d


def _distinguished(f: Series, k: int) -> tuple:
    """``(P, loop)`` for ``f`` of certified order ``d`` in x_k, checked
    here once for every preparation (callers read ``d`` as ``P.d``): the
    division loop divides ``x_k^d`` by ``f``, ``P = x_k^d - rem`` is decoded
    here and certified ``d`` below ``f``, and ``loop`` is the loop's packed
    result, whose ``quot/high`` is ``U^-1``, so ``U = high/quot``.  The
    remainder is negated once, on its numerators, before it is decoded.  At
    ``d = 0`` the loop divides 1 by ``f``: ``low`` and ``b`` are empty,
    ``quot`` is 1 and the remainder is empty, so ``P = 1``."""
    k, d = _certified_order(f, k, "series", "preparation")
    n = f.nvars
    loop = _division_loop(Series.monomial(_axis(n, k, d), n, f.trunc), f, k, d)
    gd = _certified(f.guaranteed_degree, f.trunc, (1, d))
    minus_rem = loop[3].series([([(e, -v) for e, v in items], den)
                                for items, den in loop[1]], gd)
    coeffs = tuple(minus_rem.coefficient_series(k, d - i)
                   for i in range(1, d + 1))
    if any(a.constant_term() != 0 for a in coeffs):
        raise InternalInvariantError(
            "distinguished coefficient does not vanish at the origin")
    return DistinguishedPoly(d, k, n, f.trunc, coeffs), loop


def weierstrass_prepare(f: Series, k: int) -> PreparationResult:
    """Factor ``f = U * P`` with ``U`` a unit and ``P`` distinguished in
    variable ``k``: :func:`_distinguished` divides ``x_k^d`` by ``f``, and
    as the quotient against ``f`` is ``Q/high`` for the loop's ``Q``, ``U
    = high/Q``, one packed :func:`_over` (which checks that ``Q`` is a unit)
    decoded once.  A unit ``f`` (order
    0) prepares through the same division: ``P = 1``, ``Q = 1`` and ``U =
    high = f`` in table, truncation and certificate, listed in key order."""
    poly, (quot, _, high, keys) = _distinguished(f, k)
    certified = _certified(f.guaranteed_degree, f.trunc, (1, poly.d))
    return PreparationResult(keys.series(_over(keys, high, quot), certified),
                             poly, certified)
