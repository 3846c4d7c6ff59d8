"""Weierstrass division and preparation for truncated power series.

Division of ``g`` by ``f`` with ``f`` of finite order ``d`` in a chosen
variable produces ``g = q*f + r`` with the remainder of x_k-degree below
``d``.  Preparation factors ``f = U * P`` with ``U`` a unit and ``P`` a
monic distinguished polynomial ``x_k^d + a_1*x_k^(d-1) + ... + a_d`` whose
coefficients are series in the remaining variables vanishing at the origin.

Both certify ``d`` degrees below their inputs.  That is sound for ``d <=
1``.  For larger ``d`` an output coefficient at total degree D can depend
on input coefficients up to degree ``d*(D + 1)``, so the certificate
overstates (a known defect, pinned in ``tests/test_certificates.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError, PreconditionError
from .series import FLAT, Series, _check_index, _graded_solve, _sum


@dataclass(frozen=True)
class DistinguishedPoly:
    """Monic polynomial ``x_k^d + a_1*x_k^(d-1) + ... + a_d`` in the
    distinguished variable ``k`` of an ``nvars``-dimensional space.  The
    ``coeffs`` tuple holds ``a_1 .. a_d`` as series in the remaining
    ``nvars - 1`` variables (indices above ``k`` shifted down), each
    vanishing at the origin.  ``d = 0`` encodes the constant polynomial 1."""

    d: int
    k: int
    nvars: int
    trunc: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.d:
            raise ValueError("need exactly d trailing coefficients")
        for a in self.coeffs:
            if a.nvars != self.nvars - 1:
                raise ValueError("coefficient lives in the wrong space")
            if a.constant_term() != 0:
                raise ValueError("distinguished coefficients must vanish at 0")

    def expand(self) -> Series:
        """Embed back into the full space as a single series."""
        expo = tuple(self.d if i == self.k - 1 else 0 for i in range(self.nvars))
        parts = [Series.monomial(expo, self.nvars, self.trunc)]
        gd = self.trunc
        for i, a in enumerate(self.coeffs, start=1):
            power = tuple(self.d - i if j == self.k - 1 else 0
                          for j in range(self.nvars))
            parts.append(a.embed_variable(self.k) * Series.monomial(
                power, self.nvars, self.trunc))
            gd = min(gd, a.guaranteed_degree + self.d - i)
        return _sum(parts).with_guarantee(gd)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "k": self.k,
            "nvars": self.nvars,
            "trunc": self.trunc,
            "coeffs": [a.to_dict() for a in self.coeffs],
        }


@dataclass(frozen=True)
class DivisionResult:
    """``dividend = quotient * divisor + remainder`` with
    ``deg_{x_k}(remainder) < d``, certified through ``guaranteed_degree``."""

    quotient: Series
    remainder: Series
    d: int
    k: int
    guaranteed_degree: int

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "k": self.k,
            "guaranteed_degree": self.guaranteed_degree,
            "quotient": self.quotient.to_dict(),
            "remainder": self.remainder.to_dict(),
        }


@dataclass(frozen=True)
class PreparationResult:
    """``f = unit * poly.expand()`` certified through ``guaranteed_degree``."""

    unit: Series
    poly: DistinguishedPoly
    guaranteed_degree: int

    def to_dict(self) -> dict:
        return {
            "guaranteed_degree": self.guaranteed_degree,
            "unit": self.unit.to_dict(),
            "poly": self.poly.to_dict(),
            "poly_expanded": self.poly.expand().to_dict(),
        }


def weierstrass_divide(g: Series, f: Series, k: int) -> DivisionResult:
    """Divide ``g`` by ``f``, distinguished in variable ``k``: the
    quotient against ``f`` is the loop's quotient times ``unit_inv``."""
    g._check_space(f)
    d = _certified_order(f, k, "divisor", "division")
    certified = min(g.guaranteed_degree, f.guaranteed_degree) - d
    if certified < 0:
        raise PreconditionError(
            f"dividend is certified below the order {d} in x{k}: "
            "division undefined")
    trunc = min(g.trunc, f.trunc)
    quot, rem, unit_inv = _division_loop(g.truncate(trunc),
                                         f.truncate(trunc), k, d)
    q = (quot * unit_inv).with_guarantee(certified)
    return DivisionResult(q, rem.with_guarantee(certified), d, k, certified)


def _certified_order(f: Series, k: int, noun: str, operation: str) -> int:
    """The order ``d`` of ``f`` on the x_k axis.  It must be finite and
    certified: a ``d`` above the certified degree of ``f`` is read from
    coefficients that the inputs do not determine."""
    _check_index(k, f.nvars)
    d = f.order_in(k)
    if d is FLAT:
        raise PreconditionError(
            f"{noun} is flat in x{k}: no finite order, {operation} undefined")
    if d > f.guaranteed_degree:
        raise PreconditionError(
            f"{noun} has order {d} in x{k}, above its certified degree "
            f"{f.guaranteed_degree}: {operation} undefined")
    return d


def _division_loop(g: Series, f: Series, k: int, d: int) -> tuple:
    """``(quot, rem, unit_inv)`` with ``g = quot * f * unit_inv + rem``,
    ``deg_{x_k}(rem) < d``, for ``f`` of order ``d`` in x_k and ``g`` at the
    same truncation; both are certified ``d`` degrees below the inputs.
    With ``f = low + x_k^d * high``, ``b = -high^-1 * low`` and ``H`` the
    x_k-degree >= d part shifted down by ``x_k^d``: ``quot = H(g + quot*b)``,
    and ``rem`` is the rest.  Graded by the degree in the variables other
    than x_k, which ``H`` keeps and which is positive on ``low`` (``f`` has
    no axis term below ``x_k^d``).  Total degree can stall: ``f = x2^2 +
    x1*x2`` gives ``b = -x1*x2``, of degree ``d``, which ``H`` takes back."""
    low, high = f.split_in_variable(k, d)
    unit_inv = high.inverse()
    b = -(unit_inv * low)
    gd = max(min(g.guaranteed_degree, f.guaranteed_degree) - d, 0)
    quot, rem = (Series._make(g.nvars, g.trunc, t, gd) for t in _graded_solve(
        g.terms, b.terms, g.trunc, lambda e: sum(e) - e[k - 1],
        lambda e: e[:k - 1] + (e[k - 1] - d,) + e[k:] if e[k - 1] >= d
        else None))
    return quot, rem, unit_inv


def _distinguished(f: Series, k: int, d: int) -> tuple:
    """``(P, quot, unit_inv)`` for ``f`` of certified order ``d >= 1`` in
    x_k: the division loop divides ``x_k^d`` by ``f``, ``P = x_k^d - rem``
    is certified ``d`` below ``f``, and ``quot * unit_inv`` is ``U^-1``."""
    n = f.nvars
    expo = tuple(d if i == k - 1 else 0 for i in range(n))
    quot, rem, unit_inv = _division_loop(Series.monomial(expo, n, f.trunc),
                                         f, k, d)
    rem = rem.with_guarantee(f.guaranteed_degree - d)
    coeffs = tuple(-rem.coefficient_series(k, d - i) for i in range(1, d + 1))
    if any(a.constant_term() != 0 for a in coeffs):
        raise InternalInvariantError(
            "distinguished coefficient does not vanish at the origin")
    return DistinguishedPoly(d, k, n, f.trunc, coeffs), quot, unit_inv


def weierstrass_prepare(f: Series, k: int) -> PreparationResult:
    """Factor ``f = U * P`` with ``U`` a unit and ``P`` distinguished in
    variable ``k``: :func:`_distinguished` divides ``x_k^d`` by ``f``, and
    ``U`` is the inverse of the quotient.  A unit ``f`` (order 0) prepares
    trivially as ``U = f``, ``P = 1``."""
    d = _certified_order(f, k, "series", "preparation")
    if d == 0:
        poly = DistinguishedPoly(0, k, f.nvars, f.trunc, ())
        return PreparationResult(f, poly, f.guaranteed_degree)
    poly, quot, unit_inv = _distinguished(f, k, d)
    certified = f.guaranteed_degree - d
    quotient = (quot * unit_inv).with_guarantee(certified)
    if quotient.constant_term() == 0:
        raise InternalInvariantError("division quotient lost its unit")
    return PreparationResult(quotient.inverse(), poly, certified)
