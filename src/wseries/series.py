"""Truncated multivariate formal power series over exact rationals.

A :class:`Series` stores finitely many monomial coefficients, all of total
degree <= ``trunc``.  Stored coefficients are :class:`fractions.Fraction`,
so every operation is exact; a coefficient that prints as zero really is
zero.  The product kernel and the graded recurrence under ``*``, the
quotient by a unit (:func:`_over`, which :meth:`Series.inverse` runs on
the constant 1) and Weierstrass division work on packed tables.  A
packed table has one shape, ``(items, D)``: ``(key, numerator)`` items over
one positive common denominator, with each exponent packed into one ``int``
key.  No other module reads a key.  :class:`_Keys` is its one way in
(:meth:`_Keys.pack`, which keeps only the terms below the truncation) and
its one way out (:meth:`_Keys.series`, which decodes a list of packed
tables with disjoint keys to exponent tuples and ``Fraction``
coefficients, each over its own table's denominator).  A solve returns
its nonempty grades as such a list, each over its own denominator, and
:func:`_flatten` joins one into a single table only where a table is
needed whole.  The decoder sets the term order: every table it returns (the
results of ``*``, :meth:`Series.inverse`, :meth:`Series.compose` and
``**``, Weierstrass division and preparation, and implicit solving) lists
its terms in key order, by total degree and then by exponent tuple, so
``x2^2`` precedes ``x1*x2`` precedes ``x1^2``.  Weierstrass division and
preparation stay packed from input to output: :func:`_division_loop` packs
their inputs once, splits and solves on packed tables, each division by a
unit is one :func:`_over`, which checks that its divisor is a unit, and
each series they return is decoded once.  :func:`_solve` works along an
axis, given by the place value of the x_k digit in a key, and an order; its
docstring states the one axis rule.  The division loop splits ``f`` and
solves along x_k at order ``d``, and :func:`_over` solves along no axis at
order 0.  Implicit solving divides nothing: :func:`_implicit` solves
``f(x', phi) = 0`` by a Horner recurrence in the ``n - 1`` remaining
variables, one total degree at a time, and decodes ``phi`` once.  ``*``
calls the product kernel :func:`_products` directly.
:meth:`Series.compose` is packed too: it keeps the powers of its
substituends packed, scales each by its coefficient in integers instead of
multiplying by a constant series, and decodes once; ``**`` is one
composition.  ``_remap``, :func:`_sum` and negation still work on the
decoded tables.

Alongside the truncation bound each value carries a ``guaranteed_degree``:
the total degree up to which its coefficients are certified to agree with
the untruncated mathematical result, assuming the inputs were certified to
their own bounds.  It lies in ``[-1, trunc]``, and ``-1`` certifies
nothing.  Every operation forms it by one rule, :func:`_certified`: an
output whose term of degree ``D`` reads input terms of degree at most
``a*D + b`` is certified through ``(G - b) // a`` of its inputs' least
certificate ``G`` (``a, b = 1, 0`` for the ring operations); terms stored
above the bound are best-effort data and are kept because they are exact
whenever the inputs were exact polynomials.

Variables are named ``x1 .. xn`` and all public indices are 1-based to match
the textual form.  Exponent vectors are plain int tuples.  The printed form
orders them canonically (:func:`term_sort_key`): by total degree, then
lexicographically with earlier variables dominant.  Instances are
immutable: every operation returns a new Series.  Each kind of argument a
caller passes has one rule here: :func:`_exponent` for an exponent,
:func:`_index` for a variable position, :func:`_size` for a count, a
degree or a power, and :func:`_axis` builds the exponent of ``x_k^j``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import index
from typing import Mapping, Sequence

from .errors import InternalInvariantError, PreconditionError

#: scalar types accepted wherever a coefficient can appear
_SCALARS = (int, Fraction)


class _FlatOrder:
    """Singleton returned by :meth:`Series.order_in` when the restriction of
    a series to a coordinate axis is identically zero up to the truncation.
    A flat restriction is a legitimate answer, not an error."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "FLAT"


FLAT = _FlatOrder()


def term_sort_key(expo: tuple) -> tuple:
    """Canonical term order: by total degree, then with higher powers of
    earlier variables first (so ``x1^2`` precedes ``x1*x2`` precedes
    ``x2^2``)."""
    return (sum(expo), tuple(-e for e in expo))


def _coeff(value) -> Fraction:
    """The one coefficient rule: a ``Fraction`` as it is, and an integer
    by Python's index rule (:func:`_index`: an int, a bool, a numpy
    integer) as its ``Fraction``.  Anything else, a float or a string
    among them, raises ``TypeError``: an exact engine does not guess what a
    binary float or a text meant."""
    if isinstance(value, Fraction):
        return value
    if (n := _index(value)) is None:
        raise TypeError(f"coefficient {value!r} is not an integer or a "
                        f"Fraction")
    return Fraction(n)


class Series:
    """A formal power series truncated at a total degree bound."""

    __slots__ = ("nvars", "trunc", "guaranteed_degree", "_terms")

    def __init__(self, nvars: int, trunc: int,
                 terms: Mapping | None = None,
                 guaranteed_degree: int | None = None):
        nvars, trunc = _size(nvars, "nvars"), _size(trunc, "trunc")
        gd = trunc if guaranteed_degree is None else _integral(
            guaranteed_degree, "guaranteed_degree")
        if not -1 <= gd <= trunc:
            raise ValueError("guaranteed_degree must lie in [-1, trunc]")
        clean: dict = {}
        for key, coeff in (terms or {}).items():
            if sum(expo := _exponent(key, nvars)) > trunc:
                continue  # truncation by construction
            c = _coeff(coeff)
            if c != 0:
                clean[expo] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "guaranteed_degree", gd)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _make(cls, nvars: int, trunc: int, terms: dict, gd: int) -> "Series":
        """Wrap ``terms`` without checking or copying it.  The caller holds
        the invariant :meth:`__init__` enforces: exponents are int tuples of
        length ``nvars`` with total degree <= ``trunc``, coefficients are
        nonzero ``Fraction``s, and ``-1 <= gd <= trunc`` (``-1``: nothing
        is certified; :func:`_certified` forms every certificate).  Only the
        operations of this module call it, where the invariant follows
        from their inputs; every other module builds a series through the
        checked constructors or through such an operation."""
        s = object.__new__(cls)
        object.__setattr__(s, "nvars", nvars)
        object.__setattr__(s, "trunc", trunc)
        object.__setattr__(s, "guaranteed_degree", gd)
        object.__setattr__(s, "_terms", terms)
        return s

    def _remap(self, fn, nvars: int | None = None, read=(1, 0)) -> "Series":
        """The one loop that rewrites exponents.  ``fn(expo, coeff)``
        returns the new pair, or ``None`` to drop the term; it keeps the
        :meth:`_make` invariant for ``nvars`` (default: unchanged) variables
        and sends distinct terms to distinct exponents.  Terms pushed past
        the truncation are dropped.  ``read = (a, b)`` is the rewrite's
        read map: a result term of degree ``D`` reads a term of degree at
        most ``a*D + b``, so the result is certified through
        :func:`_certified` of it.  A negative ``b`` is a rewrite that
        raises every degree by ``-b``."""
        acc = {}
        for e, c in self._terms.items():
            new = fn(e, c)
            if new is not None and sum(new[0]) <= self.trunc:
                acc[new[0]] = new[1]
        gd = _certified(self.guaranteed_degree, self.trunc, read)
        return Series._make(self.nvars if nvars is None else nvars,
                            self.trunc, acc, gd)

    def __setattr__(self, name, value):
        raise AttributeError("Series instances are immutable")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, trunc: int) -> "Series":
        return cls(nvars, trunc)

    @classmethod
    def constant(cls, value, nvars: int, trunc: int) -> "Series":
        return cls.monomial((0,) * _size(nvars, "nvars"), nvars, trunc, value)

    @classmethod
    def variable(cls, k: int, nvars: int, trunc: int) -> "Series":
        """The series ``x_k`` (1-based index)."""
        return cls.monomial(_axis(nvars, k, 1), nvars, trunc)

    @classmethod
    def monomial(cls, expo: Sequence[int], nvars: int, trunc: int,
                 coeff=1) -> "Series":
        return cls(nvars, trunc, {tuple(expo): coeff})

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def terms(self) -> dict:
        """The internal exponent-to-coefficient table.  Treat as read-only."""
        return self._terms

    def support(self) -> set:
        return set(self._terms)

    def coefficient(self, expo: Sequence[int]) -> Fraction:
        return self._terms.get(_exponent(expo, self.nvars), Fraction(0))

    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self.nvars, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def vanishes_through(self, degree: int) -> bool:
        """True when no stored term has total degree <= ``degree``."""
        return all(sum(e) > degree for e in self._terms)

    def order_in(self, k: int):
        """Least ``d`` with a nonzero ``x_k^d`` term on the x_k axis (all
        other variables set to zero), or :data:`FLAT` when the restriction
        is identically zero up to the truncation."""
        k = _check_index(k, self.nvars)
        axis = [e[k - 1] for e in self._terms if sum(e) == e[k - 1]]
        return min(axis) if axis else FLAT

    # ------------------------------------------------------------------
    # equality and rendering
    # ------------------------------------------------------------------

    def __eq__(self, other):
        """Equality compares coefficients up to the smaller of the two
        certified degrees; terms beyond it are best-effort data."""
        if not isinstance(other, Series):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        g = min(self.guaranteed_degree, other.guaranteed_degree)
        return self._through(g) == other._through(g)

    __hash__ = None  # fuzzy equality: not hashable

    def _through(self, degree: int) -> dict:
        return {e: c for e, c in self._terms.items() if sum(e) <= degree}

    def same_data(self, other: "Series") -> bool:
        """Exact comparison of the stored tables (used for fixpoint tests)."""
        return self.nvars == other.nvars and self._terms == other._terms

    def canonical(self) -> str:
        """Canonical text form, e.g. ``x1^2 + -3/2*x1*x2``.  Terms follow
        :func:`term_sort_key`; the sign lives inside the coefficient so the
        output re-parses under the expression grammar."""
        if not self._terms:
            return "0"
        parts = []
        for expo in sorted(self._terms, key=term_sort_key):
            coeff = self._terms[expo]
            factors = []
            for i, e in enumerate(expo):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{coeff}*" + "*".join(factors))
        return " + ".join(parts)

    def __str__(self):
        return self.canonical()

    def __repr__(self):
        return (f"Series({self.canonical()!r}, nvars={self.nvars}, "
                f"trunc={self.trunc}, guaranteed={self.guaranteed_degree})")

    def to_dict(self) -> dict:
        """Structured export mirroring the stored fields."""
        return {
            "nvars": self.nvars,
            "trunc": self.trunc,
            "guaranteed_degree": self.guaranteed_degree,
            "terms": [
                {
                    "expo": list(e),
                    "numerator": self._terms[e].numerator,
                    "denominator": self._terms[e].denominator,
                }
                for e in sorted(self._terms, key=term_sort_key)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Series":
        terms = {tuple(t["expo"]): Fraction(t["numerator"], t["denominator"])
                 for t in data["terms"]}
        if len(terms) != len(data["terms"]):
            raise ValueError("document lists an exponent twice")
        return cls(data["nvars"], data["trunc"], terms, data["guaranteed_degree"])

    # ------------------------------------------------------------------
    # precision plumbing
    # ------------------------------------------------------------------

    def with_guarantee(self, degree: int) -> "Series":
        """Copy with the certification bound replaced by the integral
        ``degree``, clamped to ``[-1, trunc]``: a degree below 0 certifies
        nothing.  Used by operations whose read map is not the generic
        minimum rule."""
        return Series._make(self.nvars, self.trunc, self._terms, _certified(
            _integral(degree, "guaranteed_degree"), self.trunc))

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def _check_space(self, other: "Series"):
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = Series.constant(other, self.nvars, self.trunc)
        if not isinstance(other, Series):
            return NotImplemented
        return _sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return self._scaled(-1)

    def __sub__(self, other):
        if not isinstance(other, (Series, *_SCALARS)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def _scaled(self, value) -> "Series":
        c = _coeff(value)
        terms = {e: c * v for e, v in self._terms.items()} if c else {}
        return Series._make(self.nvars, self.trunc, terms,
                            self.guaranteed_degree)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self._scaled(other)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_space(other)
        trunc = min(self.trunc, other.trunc)
        gd = min(self.guaranteed_degree, other.guaranteed_degree, trunc)
        keys = _Keys(self.nvars, trunc)
        (xs, dx), (ys, dy) = keys.pack(self._terms), keys.pack(other._terms)
        acc = _products({}, xs, sorted(ys), keys.limit, 1).items()
        return keys.series([([(k, v) for k, v in acc if v], dx * dy)], gd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return self._scaled(Fraction(1) / _coeff(other))
        return NotImplemented

    def __pow__(self, exponent: int):
        """``self ** n`` is the composition ``P(self - c)``, with ``c`` the
        constant term and ``P(y) = (c + y)^n = sum_i C(n, i) c^(n-i) y^i``.
        As ``self - c`` has positive order, ``P`` needs only the degrees
        ``i <= min(n, trunc)``, and for ``c = 0`` only ``i = n``: at most
        ``trunc`` products however large ``n`` is, and none when every term
        lies past the truncation.  The certificate is ``self``'s, as
        :meth:`compose` takes the minimum over ``P`` (certified through
        ``trunc``) and ``self - c``."""
        n, c = _size(exponent, "exponent"), self.constant_term()
        poly = {(n,): 1}
        if c:
            # each binomial from the last: comb(n, i) alone costs O(i)
            binoms = accumulate(range(1, min(n, self.trunc) + 1),
                                lambda b, i: b * (n - i + 1) // i, initial=1)
            poly = {(i,): b * c ** (n - i) for i, b in enumerate(binoms)}
        return Series(1, self.trunc, poly).compose([self - c])

    def inverse(self) -> "Series":
        """Multiplicative inverse of a unit (nonzero constant term).

        Packs the table, runs the packed quotient :func:`_over` of the
        constant 1 and decodes its table once.  The result is exact through
        the truncation, so the certified degree is preserved."""
        if self.constant_term() == 0:
            raise PreconditionError("series is not a unit: constant term is zero")
        keys = _Keys(self.nvars, self.trunc)
        return keys.series(_over(keys, ([(0, 1)], 1), keys.pack(self._terms)),
                           self.guaranteed_degree)

    def compose(self, gs: Sequence["Series"]) -> "Series":
        """Substitute ``gs[i]`` for ``x_{i+1}``.

        Every ``g`` must vanish at the origin so that the truncated result
        is well defined.  The certified degree is the minimum over all
        inputs: an unknown coefficient of ``self`` beyond its bound, or of
        some ``g``, can only disturb the result above that degree because
        each ``g`` has positive order.

        Works on packed tables: each ``g`` is packed once, with one
        :class:`_Keys` at the least truncation, and its powers are formed
        once by :func:`_products`, kept sorted by key and never decoded.  A
        term scales its first power (or the constant 1) by its coefficient
        in integers and multiplies by the rest; a term whose degree,
        weighted by the orders of the ``g``, lies past the truncation is
        zero and forms no product.  The parts are summed over the lcm of
        their denominators and decoded once, in key order.
        """
        if len(gs) != self.nvars:
            raise ValueError(f"expected {self.nvars} substituends, got {len(gs)}")
        if not gs:
            raise ValueError("compose requires at least one variable")
        m = gs[0].nvars
        for g in gs:
            if g.nvars != m:
                raise ValueError("substituends live in different spaces")
            if g.constant_term() != 0:
                raise PreconditionError(
                    "substituend has nonzero constant term")
        trunc = min(self.trunc, min(g.trunc for g in gs))
        gd = min(self.guaranteed_degree, min(g.guaranteed_degree for g in gs))
        orders = [min(map(sum, g.terms), default=trunc + 1) for g in gs]
        keys = _Keys(m, trunc)
        packed = [keys.pack(g.terms) for g in gs]
        rows = [[([(0, 1)], 1)] for _ in gs]
        parts = []
        for expo, c in self._terms.items():
            if sum(e * o for e, o in zip(expo, orders)) > trunc:
                continue
            prod = None
            for row, (gx, dg), e in zip(rows, packed, expo):
                while len(row) <= e:  # each power sorted, as a product's ys
                    ys, dy = row[-1]
                    acc = _products({}, gx, ys, keys.limit, 1).items()
                    row.append((sorted((k, v) for k, v in acc if v), dg * dy))
                if e and prod:
                    acc = _products({}, prod[0], row[e][0], keys.limit, 1)
                    prod = ([(k, v) for k, v in acc.items() if v],
                            prod[1] * row[e][1])
                elif e:
                    prod = ([(k, v * c.numerator) for k, v in row[e][0]],
                            row[e][1] * c.denominator)
            parts.append(prod or ([(0, c.numerator)], c.denominator))
        den = lcm(*[d for _, d in parts])
        acc = {}
        for items, d in parts:
            for k, v in items:
                acc[k] = acc.get(k, 0) + v * (den // d)
        return keys.series([([(k, v) for k, v in acc.items() if v], den)], gd)

    def derivative(self, k: int) -> "Series":
        """Partial derivative in ``x_k``; certainty drops by one degree."""
        k = _check_index(k, self.nvars)
        return self._remap(
            lambda e, c: (e[:k - 1] + (e[k - 1] - 1,) + e[k:], c * e[k - 1])
            if e[k - 1] else None, read=(1, 1))

    # ------------------------------------------------------------------
    # exponent surgery
    # ------------------------------------------------------------------

    def coefficient_series(self, k: int, j: int) -> "Series":
        """The coefficient of ``x_k^j`` as a series in the remaining
        variables (indices above ``k`` shift down by one)."""
        k = _check_index(k, self.nvars)
        return self._remap(
            lambda e, c: (e[:k - 1] + e[k:], c) if e[k - 1] == j else None,
            self.nvars - 1, read=(1, _size(j, "j")))

    def substitute(self, k: int, s: "Series") -> "Series":
        """Substitute ``s`` (a series in the remaining n-1 variables, with
        zero constant term) for ``x_k``; other variables keep their order
        with indices above ``k`` shifted down.  This is :meth:`compose`
        with every other variable mapped to itself."""
        k = _check_index(k, self.nvars)
        if s.nvars != self.nvars - 1:
            raise ValueError(
                f"substituend must have {self.nvars - 1} variables, has {s.nvars}")
        xs = [Series.variable(i, s.nvars, s.trunc)
              for i in range(1, self.nvars)]
        return self.compose(xs[:k - 1] + [s] + xs[k - 1:])

    def embed_variable(self, k: int) -> "Series":
        """Insert a fresh variable at 1-based position ``k``; existing
        variables at or above ``k`` shift up by one."""
        if (i := _index(k)) is None or not 1 <= i <= self.nvars + 1:
            raise ValueError(f"insert position {k} out of range")
        return self._remap(lambda e, c: (e[:i - 1] + (0,) + e[i - 1:], c),
                           self.nvars + 1)


class _Record:
    """Base of the result records: one structured export.  A record lists
    its exported attributes, in key order, in ``_EXPORT``."""

    _EXPORT: tuple

    def to_dict(self) -> dict:
        return {key: _plain(getattr(self, key)) for key in self._EXPORT}


def _plain(value):
    """A series or record as its ``to_dict()``, a tuple as a list of plain
    items, anything else (int, bool, ``None``) as it is."""
    if isinstance(value, (Series, _Record)):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _index(k) -> int | None:
    """The one rule for a variable position: ``k`` as an ``int`` by
    Python's index rule (:func:`operator.index`), so ``True`` gives ``1``
    and a numpy integer its ``int``, or ``None`` when the type of ``k`` has
    no ``__index__`` (a float or a string)."""
    return index(k) if hasattr(type(k), "__index__") else None


def _check_index(k, nvars: int) -> int:
    """The variable index ``k`` as an ``int`` in ``1..nvars`` by
    :func:`_index`."""
    if (i := _index(k)) is None or not 1 <= i <= nvars:
        raise ValueError(f"variable index {k} out of range 1..{nvars}")
    return i


def _axis(nvars: int, k, power: int) -> tuple:
    """The exponent of ``x_k^power`` in ``nvars`` variables, with ``k``
    checked by :func:`_check_index` and then ``nvars`` as a size."""
    k = _check_index(k, nvars)
    return (0,) * (k - 1) + (power,) + (0,) * (_size(nvars, "nvars") - k)


def _exponent(e, nvars: int) -> tuple:
    """The one exponent rule: ``e`` as an ``int`` tuple of length
    ``nvars`` with no negative entry, each entry integral as
    :func:`_integral` asks (``2.0`` gives ``2``; ``1.5`` and ``"2"`` are
    refused)."""
    e = tuple(e)
    if (expo := tuple(map(int, e))) != e:
        raise ValueError(f"exponent {e!r} is not integral")
    if len(expo) != nvars:
        raise ValueError(f"exponent {expo} has wrong length for nvars={nvars}")
    if min(expo, default=0) < 0:
        raise ValueError(f"exponent {expo} has a negative entry")
    return expo


def _integral(value, name: str) -> int:
    """``value`` as an ``int``, by the rule :func:`_exponent` applies to an
    exponent's entries: the value must equal its ``int``, so ``2.0`` gives
    ``2``, and ``2.5`` and the string ``"2"`` are rejected."""
    if (n := int(value)) != value:
        raise ValueError(f"{name} {value!r} is not integral")
    return n


def _size(value, name: str) -> int:
    """A size (a variable count, a truncation, an order, a degree cap or a
    power) as a nonnegative ``int``, integral as :func:`_integral` asks."""
    if (n := _integral(value, name)) < 0:
        raise ValueError(f"{name} must be nonnegative")
    return n


def _certified(gd: int, trunc: int, read: tuple = (1, 0)) -> int:
    """The one certificate rule.  For the read map ``read = (a, b)``, an
    output whose term of degree ``D`` reads input terms of degree at most
    ``a*D + b``, from inputs certified through ``gd``, is certified
    through ``(gd - b) // a``, capped at its ``trunc``.  A certificate of
    ``-1`` certifies nothing, and no rule goes below it."""
    a, b = read
    return max(-1, min((gd - b) // a, trunc))


def _sum(parts: Sequence[Series]) -> Series:
    """The one loop that adds term tables: the sum of one or more series
    in the same space, truncated at the smallest ``trunc`` and certified
    through the smallest certificate (which is at most that ``trunc``).
    It starts from a copy of the first table, so adding two series copies
    no more than one of them."""
    first, rest = parts[0], parts[1:]
    for p in rest:
        first._check_space(p)
    trunc = min(p.trunc for p in parts)
    acc = dict(first._terms)
    for p in rest:
        for e, c in p._terms.items():
            v = acc.get(e)
            s = c if v is None else v + c
            if s == 0:
                acc.pop(e, None)
            else:
                acc[e] = s
    if any(p.trunc != trunc for p in parts):
        acc = {e: c for e, c in acc.items() if sum(e) <= trunc}
    return Series._make(first.nvars, trunc, acc,
                        min(p.guaranteed_degree for p in parts))


class _Keys:
    """Kronecker packing of exponents (Monagan & Pearce, CASC 2007): for
    ``nvars`` variables at truncation ``trunc`` the exponent ``e`` of total
    degree ``deg`` packs to the int ``deg*R^n + sum_i e_i*R^(n-i)`` with
    radix ``R = trunc + 1``.  The degree is the top digit and ``e_1`` the
    next, so ordering by key is ordering by degree, then by the exponent
    tuple.  That key order is the one term order of the packed route:
    :meth:`series` sorts the items it decodes by key, and nothing else
    sorts a table for its order.

    Adding keys adds exponents: when ``deg(x) + deg(y) <= trunc``, every
    digit sum ``e_i + e'_i`` is at most ``deg(x) + deg(y) < R``, so no digit
    carries, and the sum is below ``limit = (trunc+1)*R^n``.  When
    ``deg(x) + deg(y) > trunc`` the degree digit alone puts the sum at or
    above ``limit``.  So truncation is the one comparison ``kx + ky <
    limit``, and every key that passes it is carry-free.  :meth:`pack`
    keeps a term by the same comparison, ``key < limit``.

    The packed table ``(items, D)`` is the one packed shape: its ``(key,
    numerator)`` items stand for the coefficients ``numerator / D``, ``D``
    positive.  :meth:`pack` is the one way in and :meth:`series` the one
    way out, from a list of packed tables with disjoint keys (the solved
    grades of :func:`_solve`, or a one-element list for a whole table).
    Both go digit by digit with the radix alone and keep no place
    values."""

    __slots__ = ("nvars", "radix", "top", "limit")

    def __init__(self, nvars: int, trunc: int):
        self.nvars, self.radix = nvars, trunc + 1
        self.top = self.radix ** nvars
        self.limit = self.radix * self.top

    def pack(self, terms: dict) -> tuple:
        """``(items, D)``: the ``(key, numerator)`` pairs of the terms of a
        table below the truncation, in table order, with ``D`` the lcm of
        their denominators and every coefficient equal to ``numerator / D``.
        A key folds the digits ``(deg, e_1, ..., e_n)`` by Horner."""
        r, kept = self.radix, []
        for e, c in terms.items():
            key = sum(e)
            for digit in e:
                key = key * r + digit
            if key < self.limit:
                kept.append((key, c))
        den = lcm(*[c.denominator for _, c in kept])
        return [(key, c.numerator * (den // c.denominator))
                for key, c in kept], den

    def series(self, grades: list, gd: int) -> Series:
        """The :class:`Series` of the packed tables ``grades``, whose keys
        are disjoint (a whole table is a one-element list), in key order,
        truncated at ``radix - 1`` and certified through ``gd``: each item
        ``(key, v)`` of a table ``(items, D)`` becomes the exponent of
        ``key``, its digits peeled from the last variable up, and
        ``Fraction(v, D)``, over its own table's denominator."""
        r, items = self.radix, sorted(
            [(k, Fraction(v, d)) for xs, d in grades for k, v in xs])
        keys, digits = [k for k, _ in items], []
        for _ in range(self.nvars):
            digits.append([k % r for k in keys])
            keys = [k // r for k in keys]
        expos = zip(*reversed(digits)) if digits else [()] * len(items)
        return Series._make(self.nvars, r - 1,
                            dict(zip(expos, [c for _, c in items])), gd)


def _products(acc: dict, xs: list, ys: list, limit: int, scale: int) -> dict:
    """The one product kernel: add ``scale*nx*ny`` into ``acc[kx + ky]`` for
    every pair of packed items of ``xs`` and ``ys`` whose key sum is below
    ``limit`` (see :class:`_Keys`); ``ys`` must be sorted by key.  Zero sums
    are left in ``acc``."""
    for kx, nx in xs:
        bound, nx = limit - kx, nx * scale
        for ky, ny in ys:
            if ky >= bound:
                break
            k = kx + ky
            acc[k] = acc.get(k, 0) + nx * ny
    return acc


def _flatten(parts: list) -> tuple:
    """Packed tables ``(items, D)`` with disjoint keys, such as the grades
    :func:`_solve` returns, as one packed table over the lcm of their
    denominators: only where a table is needed whole, as a solve's ``b``
    or a divisor, since the decoder takes the grades as they are."""
    den = lcm(*[d for _, d in parts])
    return [(k, v * (den // d)) for items, d in parts for k, v in items], den


def _solve(a: tuple, b: tuple, keys: _Keys, place: int, order: int) -> tuple:
    """Solve ``q = fold(a + q*b)`` on packed tables ``(items, D)``, products
    truncated by ``keys``, along the axis whose digit has the place value
    ``place`` in a key (``keys.radix ** (nvars - k)`` for x_k).  The axis
    rule: a key's grade is its degree off the axis digit, ``key // top -
    key // place % radix``, and ``fold`` keeps a term whose axis digit is at
    least ``order``, shifted down by ``x_k^order`` (its key less ``order *
    (place + top)``, which leaves its grade as it is); every other term goes
    to the rest.  With ``place = keys.limit`` the axis digit of every key
    below the limit is 0, so the grade is the total degree and ``order = 0``
    keeps every term as it is.

    Keys add without carry (see :class:`_Keys`), so the grade is additive,
    and it is never above the total degree.  The caller makes it positive
    on every term of ``b``: then the grade-m part of ``a + q*b``, ``a_m +
    sum_{j>=1} q_(m-j) * b_j``, reads lower grades of ``q`` only (Brent &
    Kung, J. ACM 1978), so one walk up the grades solves it, multiplying
    each pair of terms once.  Each solved grade ``q_m`` queues its read
    ``(q_m, b_j)`` at grade ``m + j`` only when its smallest key sum is
    below ``keys.limit``, so every read forms a term and no kernel call is
    empty: the grade can stay below the truncation while the total degree
    passes it.  As a key sum below ``keys.limit`` has a total degree of at
    most ``keys.radix - 1``, no grade past that is queued.  The walk visits
    only the grades of ``a`` and the queued ones, so its cost follows the
    grades that hold terms, not the truncation.

    Returns ``(q, rest)``, each the list of its nonempty solved grades in
    grade order, each grade a packed table.  Each grade is summed in int
    numerators over one common denominator, the lcm of ``a``'s and its
    reads' (a read of ``q_j`` carries ``D_j * D_b``, formed once when
    ``q_j`` is solved), each read scaled onto it in the kernel, and ``q``'s
    part of it is reduced by the gcd of its numerators and that
    denominator.  :meth:`_Keys.series` decodes the lists as they are, and
    :func:`_flatten` joins one where a table is needed whole.  No
    certificate is formed here: the caller that decodes a table certifies
    it."""
    (items_a, da), (items_b, db) = a, b
    r, top, shift = keys.radix, keys.top, order * (place + keys.top)
    parts_a, parts_b, q, rest = {}, {}, [], []
    for items, parts in ((items_a, parts_a), (items_b, parts_b)):
        for k, n in items:
            parts.setdefault(k // top - k // place % r, []).append((k, n))
    parts_b = {j: sorted(b_j) for j, b_j in parts_b.items()}
    limit, reads_at, todo = keys.limit, {}, set(parts_a)
    while todo:
        todo.remove(m := min(todo))
        a_m, reads = parts_a.get(m, []), reads_at.pop(m, [])
        den = lcm(da if a_m else 1, *[d for _, _, d in reads])
        acc = {k: n * (den // da) for k, n in a_m}
        for q_j, b_j, d in reads:
            _products(acc, q_j, b_j, limit, den // d)
        part, rest_m = {}, []
        for k, v in acc.items():
            if v and k // place % r >= order:
                part[k - shift] = v
            elif v:
                rest_m.append((k, v))
        if rest_m:
            rest.append((rest_m, den))
        if part:
            g = gcd(den, *part.values())
            q_m, d_m = [(k, v // g) for k, v in part.items()], den // g
            q.append((q_m, d_m))
            room, d = limit - min(part), d_m * db
            for j, b_j in parts_b.items():
                if b_j[0][0] < room:
                    reads_at.setdefault(m + j, []).append((q_m, b_j, d))
                    todo.add(m + j)
    return q, rest


def _implicit(f: Series, k: int) -> Series:
    """The solution ``phi(x')`` of ``f(x', phi) = 0`` in the variables other
    than x_k, for ``f`` with no constant term and a nonzero coefficient
    ``c`` of ``x_k``, certified through ``f``'s certificate.  As a
    polynomial in x_k, ``-f/c = -x_k + sum_j R_j(x') * x_k^j``, where
    ``R_1`` leaves out ``c`` and ``J`` is the largest ``j``, so ``phi =
    H_0`` for ``H_j = R_j + phi*H_(j+1)``, ``H_(J+1) = 0``: a Horner
    recurrence in the ``n - 1`` remaining variables (Brent & Kung, J. ACM
    1978).  As ``phi`` and ``H_1`` have no constant term, the degree-``e``
    part of ``H_j`` reads ``phi`` below degree ``e + min(j, 1)`` only.  So
    one walk up the total degree ``D`` solves it: step ``D`` forms ``H_j``
    at degree ``D - j`` for ``j = min(J, D) .. 0``, which reads ``H_(j+1)``
    at degrees formed at this step or before, and ends with ``phi_D``.
    ``H_j`` starts as ``R_j`` and is formed only through degree ``trunc -
    j``.  A step forms only the parts that some read reaches, a read being
    a part of ``phi`` times one of an ``H_(j+1)``; each new part queues the
    steps its reads reach, as :func:`_solve` queues its reads, so the walk
    visits only those steps and its cost follows the parts that hold
    terms, not the truncation.

    Let ``omega`` be the least degree of ``R_0``, at least 1.  Then ``phi
    = sum_j R_j * phi^j`` has order ``omega`` at least: below it ``R_0``
    is zero, ``R_1 * phi`` has a higher order than ``phi`` and ``R_j *
    phi^j``, ``j >= 2``, at least twice it.  Unrolling the recurrence,
    ``phi = sum_(i<j) R_i * phi^i + phi^j * H_j``, so a part of ``H_j`` of
    degree ``e`` enters ``phi`` at degree ``e + j*omega`` or above, and
    the walk skips it when that passes the truncation.  A part it forms,
    ``e + j*omega <= trunc``, reads only parts it forms: the part of
    ``H_(j+1)`` at ``e - a``, ``a >= omega``, has ``e - a + (j+1)*omega
    <= e + j*omega``.  So ``phi`` is unchanged, and at ``omega = 1`` the
    bound is the ``trunc - j`` above.

    The degree-``D`` part of ``phi`` reads ``f`` through degree ``D``
    only, so ``phi`` is certified as far as ``f``.  Each part is a packed
    table in the ``n - 1`` variables, one per degree: ``R_j``'s carry
    ``f``'s numerators times ``-1/c``, and a formed part is summed as int
    numerators over the lcm of its own and its reads' denominators, one
    :func:`_products` call per read, and reduced by the gcd of its
    numerators as in :func:`_solve`.  The parts of ``phi`` are decoded
    once."""
    keys, axis = _Keys(f.nvars - 1, f.trunc), _axis(f.nvars, k, 1)
    rows, scale = {}, -1 / f.terms[axis]
    for e, v in f.terms.items():
        if e != axis:
            rows.setdefault(e[k - 1], {})[e[:k - 1] + e[k:]] = v
    last = max(rows, default=0)
    h = [{} for _ in range(last + 2)]
    for j, row in rows.items():
        items, den = keys.pack(row)
        for key, n in sorted(items):
            h[j].setdefault(key // keys.top, ([], den * scale.denominator))[
                0].append((key, n * scale.numerator))
    omega = min(h[0], default=1)
    todo = {a + c + i - 1 for a in h[0] for i in range(1, last + 2)
            for c in h[i]}
    while todo and (deg := min(todo)) <= f.trunc:
        for j in range(min(last, deg), -1, -1):
            e, above = deg - j, h[j + 1]
            if e + j * omega > f.trunc:
                continue  # this part reaches phi past the truncation
            reads = [(x, y, dx * dy) for a, (x, dx) in h[0].items()
                     if e - a in above for y, dy in [above[e - a]]]
            if reads:
                items, d0 = h[j].pop(e, ([], 1))
                den = lcm(d0, *[d for _, _, d in reads])
                acc = {key: n * (den // d0) for key, n in items}
                for x, y, d in reads:
                    _products(acc, x, y, keys.limit, den // d)
                if part := sorted((key, v) for key, v in acc.items() if v):
                    g = gcd(den, *[v for _, v in part])
                    h[j][e] = [(key, v // g) for key, v in part], den // g
                    if not items:  # a new part: queue the steps it reaches
                        todo.update(
                            [a + e + j - 1 for a in h[0]] if j else
                            [e + c + i - 1 for i in range(1, last + 2)
                             for c in h[i]])
        todo.discard(deg)
    return keys.series(list(h[0].values()), f.guaranteed_degree)


def _over(keys: _Keys, a, x) -> list:
    """The quotient ``a/x`` of the packed table ``a = (items, Da)`` by the
    packed unit ``x = (items, D)`` as the list of its solved grades, exact
    through the truncation of ``keys``; the caller certifies it.  Either
    operand may be such a list of grades, which is flattened first.  With
    ``c/D`` the constant term of ``x`` (``c`` the numerator at key 0), ``q
    = a*D/c + q*b`` for ``b = 1 - x*D/c``, whose items are ``-n`` over ``c``
    for the nonconstant items ``n`` of ``x``: one :func:`_solve`, as cheap
    as the inverse ``1/x``, which is ``a = ([(0, 1)], 1)``.  It solves along
    no axis, ``(keys.limit, 0)``: the grade is the total degree, positive
    on ``b``, and every term is kept.  A negative ``c`` needs no care:
    :func:`_solve` takes each grade's denominator as an lcm, which is never
    negative, and divides only exactly, so every grade it returns has a
    positive denominator.  This is the one check that a packed divisor is a
    unit: an ``x`` with no item at key 0 raises
    :class:`InternalInvariantError`."""
    a, x = (_flatten(t) if isinstance(t, list) else t for t in (a, x))
    (items_a, da), (xs, den) = a, x
    if not (c := next((n for k, n in xs if not k), 0)):
        raise InternalInvariantError("packed divisor is not a unit")
    return _solve(([(k, n * den) for k, n in items_a], da * c),
                  ([(k, -n) for k, n in xs if k], c), keys, keys.limit, 0)[0]


def _division_loop(g: Series, f: Series, k: int, d: int) -> tuple:
    """``(quot, rem, high, keys)`` with ``g = (quot/high) * f + rem``,
    ``deg_{x_k}(rem) < d``, for ``f = low + x_k^d * high`` of order ``d`` in
    x_k.  ``quot`` and ``rem`` are lists of solved grades and the unit
    ``high`` is a packed table, all over ``keys``, which packs ``f`` and
    ``g`` at the smaller truncation; each caller decodes and certifies what
    it reads.  Weierstrass division and preparation call it; implicit
    solving, which needs no quotient, is :func:`_implicit`.

    Both the split of ``f`` and the solve follow :func:`_solve`'s axis rule
    at x_k's place value and ``order = d``: a term of ``f`` whose x_k digit
    is at least ``d`` goes to ``high``, shifted down by ``x_k^d``, and any
    other to ``low``.  With ``b = -low/high``, one :func:`_over` flattened
    (``f``'s denominator cancels), ``quot = fold(g + quot*b)`` and ``rem``
    is the rest.  The grade, the degree in the variables other than x_k, is
    positive on ``low``, as ``f`` has no axis term below ``x_k^d``.  Total
    degree can stall: ``f = x2^2 + x1*x2`` gives ``b = -x1*x2``, of degree
    ``d``, which ``fold`` takes back."""
    keys = _Keys(g.nvars, min(g.trunc, f.trunc))
    place = keys.radix ** (g.nvars - k)
    items, den = keys.pack(f.terms)
    low, high = [], []
    for key, n in items:
        if key // place % keys.radix < d:
            low.append((key, -n))
        else:
            high.append((key - d * (place + keys.top), n))
    b = _flatten(_over(keys, (low, 1), (high, 1)))
    quot, rem = _solve(keys.pack(g.terms), b, keys, place, d)
    return quot, rem, (high, den), keys
