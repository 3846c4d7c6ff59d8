"""Truncated multivariate formal power series over exact rationals.

A :class:`Series` stores finitely many monomial coefficients, all of total
degree <= ``trunc``.  Coefficients are :class:`fractions.Fraction`, so every
operation is exact; a coefficient that prints as zero really is zero.

Alongside the truncation bound each value carries a ``guaranteed_degree``:
the total degree up to which its coefficients are certified to agree with
the untruncated mathematical result, assuming the inputs were certified to
their own bounds.  Operations that lose precision (differentiation, division
by a distinguished monomial, ...) shrink it explicitly; terms stored above
the bound are best-effort data and are kept because they are exact whenever
the inputs were exact polynomials.

Variables are named ``x1 .. xn`` and all public indices are 1-based to match
the textual form.  Exponent vectors are plain int tuples, ordered canonically
by total degree and then lexicographically with earlier variables dominant,
which also fixes the printed form.  Instances are immutable: every operation
returns a new Series.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import PreconditionError

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
    return value if isinstance(value, Fraction) else Fraction(value)


class Series:
    """A formal power series truncated at a total degree bound."""

    __slots__ = ("nvars", "trunc", "guaranteed_degree", "_terms")

    def __init__(self, nvars: int, trunc: int,
                 terms: Mapping | None = None,
                 guaranteed_degree: int | None = None):
        _check_size(nvars, trunc)
        gd = trunc if guaranteed_degree is None else guaranteed_degree
        if not 0 <= gd <= trunc:
            raise ValueError("guaranteed_degree must lie in [0, trunc]")
        clean: dict = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars:
                raise ValueError(f"exponent {expo} has wrong length for nvars={nvars}")
            if any(e < 0 for e in expo):
                raise ValueError(f"negative exponent in {expo}")
            if sum(expo) > trunc:
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
        nonzero ``Fraction``s, and ``0 <= gd <= trunc``."""
        s = object.__new__(cls)
        object.__setattr__(s, "nvars", nvars)
        object.__setattr__(s, "trunc", trunc)
        object.__setattr__(s, "guaranteed_degree", gd)
        object.__setattr__(s, "_terms", terms)
        return s

    def _remap(self, fn, nvars: int | None = None, loss: int = 0) -> "Series":
        """The one loop that rewrites exponents.  ``fn(expo, coeff)``
        returns the new pair, or ``None`` to drop the term; it keeps the
        :meth:`_make` invariant for ``nvars`` (default: unchanged) variables
        and sends distinct terms to distinct exponents.  Terms pushed past
        the truncation are dropped; ``loss`` degrees of certainty are spent."""
        acc = {}
        for e, c in self._terms.items():
            new = fn(e, c)
            if new is not None and sum(new[0]) <= self.trunc:
                acc[new[0]] = new[1]
        gd = min(max(self.guaranteed_degree - loss, 0), self.trunc)
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
        c = _coeff(value)
        _check_size(nvars, trunc)
        return cls._make(nvars, trunc, {(0,) * nvars: c} if c else {}, trunc)

    @classmethod
    def variable(cls, k: int, nvars: int, trunc: int) -> "Series":
        """The series ``x_k`` (1-based index)."""
        _check_index(k, nvars)
        _check_size(nvars, trunc)
        expo = (0,) * (k - 1) + (1,) + (0,) * (nvars - k)
        return cls._make(nvars, trunc, {expo: Fraction(1)} if trunc else {},
                         trunc)

    @classmethod
    def monomial(cls, expo: Sequence[int], nvars: int, trunc: int,
                 coeff=1) -> "Series":
        return cls(nvars, trunc, {tuple(expo): _coeff(coeff)})

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
        return self._terms.get(tuple(expo), Fraction(0))

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
        _check_index(k, self.nvars)
        axis = [e[k - 1] for e in self._terms
                if all(v == 0 for i, v in enumerate(e) if i != k - 1)]
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
        return cls(data["nvars"], data["trunc"], terms, data["guaranteed_degree"])

    # ------------------------------------------------------------------
    # precision plumbing
    # ------------------------------------------------------------------

    def with_guarantee(self, degree: int) -> "Series":
        """Copy with the certification bound replaced (clamped to the valid
        range).  Used by operations whose loss analysis is sharper than the
        generic minimum rule."""
        gd = max(0, min(degree, self.trunc))
        return Series._make(self.nvars, self.trunc, self._terms, gd)

    def truncate(self, trunc: int) -> "Series":
        if trunc == self.trunc:
            return self
        return Series(self.nvars, trunc, self._terms,
                      min(self.guaranteed_degree, trunc))

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
        if isinstance(other, _SCALARS):
            other = Series.constant(other, self.nvars, self.trunc)
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

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
        acc = _convolve({}, _by_degree(self._terms),
                        _by_degree(other._terms), trunc)
        return Series._make(self.nvars, trunc,
                            {e: v for e, v in acc.items() if v}, gd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return self._scaled(Fraction(1) / _coeff(other))
        return NotImplemented

    def __pow__(self, exponent: int):
        """Power by repeated squaring.  A power whose every term lies past
        the truncation is zero without any product being formed."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a natural number")
        order = min(map(sum, self._terms), default=None)
        if exponent and (order is None or exponent * order > self.trunc):
            return Series(self.nvars, self.trunc, None, self.guaranteed_degree)
        result = Series.constant(1, self.nvars, self.trunc)
        result = result.with_guarantee(self.guaranteed_degree)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def inverse(self) -> "Series":
        """Multiplicative inverse of a unit (nonzero constant term).

        With ``c`` the constant term, ``q = 1/c + q*b`` for ``b = 1 -
        self/c``: :func:`_graded_solve` solves it graded by total degree,
        which is positive on every term of ``b``.  The result is exact
        through the truncation, so the certified degree is preserved."""
        c = self.constant_term()
        if c == 0:
            raise PreconditionError("series is not a unit: constant term is zero")
        one = (0,) * self.nvars
        b = {e: -v / c for e, v in self._terms.items() if e != one}
        q, _ = _graded_solve({one: 1 / c}, b, self.trunc, sum, lambda e: e)
        return Series._make(self.nvars, self.trunc, q, self.guaranteed_degree)

    def compose(self, gs: Sequence["Series"]) -> "Series":
        """Substitute ``gs[i]`` for ``x_{i+1}``.

        Every ``g`` must vanish at the origin so that the truncated result
        is well defined.  The certified degree is the minimum over all
        inputs: an unknown coefficient of ``self`` beyond its bound, or of
        some ``g``, can only disturb the result above that degree because
        each ``g`` has positive order.
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
        powers: list[dict[int, Series]] = [
            {0: Series.constant(1, m, trunc)} for _ in gs]

        def power(i: int, j: int) -> "Series":
            cache = powers[i]
            top = max(cache)
            while top < j:
                cache[top + 1] = cache[top] * gs[i]
                top += 1
            return cache[j]

        parts = [Series.zero(m, trunc)]
        for expo, coeff in self._terms.items():
            if sum(expo) > trunc:
                continue
            prod = Series.constant(coeff, m, trunc)
            for i, e in enumerate(expo):
                if e:
                    prod = prod * power(i, e)
            parts.append(prod)
        return _sum(parts).with_guarantee(gd)

    def derivative(self, k: int) -> "Series":
        """Partial derivative in ``x_k``; certainty drops by one degree."""
        _check_index(k, self.nvars)
        return self._remap(
            lambda e, c: (e[:k - 1] + (e[k - 1] - 1,) + e[k:], c * e[k - 1])
            if e[k - 1] else None, loss=1)

    # ------------------------------------------------------------------
    # exponent surgery
    # ------------------------------------------------------------------

    def substitute_square(self, k: int) -> "Series":
        """Replace ``x_k`` by ``x_k^2`` (doubles the k-th exponent, dropping
        terms pushed past the truncation).  Certainty is preserved: a result
        term of degree D pulls only source terms of degree <= D."""
        _check_index(k, self.nvars)
        return self._remap(
            lambda e, c: (e[:k - 1] + (2 * e[k - 1],) + e[k:], c))

    def coefficient_series(self, k: int, j: int) -> "Series":
        """The coefficient of ``x_k^j`` as a series in the remaining
        variables (indices above ``k`` shift down by one)."""
        _check_index(k, self.nvars)
        return self._remap(
            lambda e, c: (e[:k - 1] + e[k:], c) if e[k - 1] == j else None,
            self.nvars - 1, loss=j)

    def substitute(self, k: int, s: "Series") -> "Series":
        """Substitute ``s`` (a series in the remaining n-1 variables, with
        zero constant term) for ``x_k``; other variables keep their order
        with indices above ``k`` shifted down.  This is :meth:`compose`
        with every other variable mapped to itself."""
        _check_index(k, self.nvars)
        if s.nvars != self.nvars - 1:
            raise ValueError(
                f"substituend must have {self.nvars - 1} variables, has {s.nvars}")
        xs = [Series.variable(i, s.nvars, s.trunc)
              for i in range(1, self.nvars)]
        return self.compose(xs[:k - 1] + [s] + xs[k - 1:])

    def split_in_variable(self, k: int, d: int) -> tuple["Series", "Series"]:
        """Split as ``low + x_k^d * high`` where ``low`` collects the terms
        of x_k-degree < d and ``high`` is shifted down by ``x_k^d``."""
        _check_index(k, self.nvars)
        return (
            self._remap(lambda e, c: (e, c) if e[k - 1] < d else None),
            self._remap(lambda e, c: None if e[k - 1] < d
                        else (e[:k - 1] + (e[k - 1] - d,) + e[k:], c),
                        loss=d),
        )

    def adjoin_variable(self) -> "Series":
        """Append a fresh last variable on which the series does not depend."""
        return self.embed_variable(self.nvars + 1)

    def embed_variable(self, k: int) -> "Series":
        """Insert a fresh variable at 1-based position ``k``; existing
        variables at or above ``k`` shift up by one."""
        if not 1 <= k <= self.nvars + 1:
            raise ValueError(f"insert position {k} out of range")
        return self._remap(lambda e, c: (e[:k - 1] + (0,) + e[k - 1:], c),
                           self.nvars + 1)

    def drop_variable(self, k: int) -> "Series":
        """Remove variable ``k``; the series must not depend on it."""
        _check_index(k, self.nvars)
        if any(e[k - 1] for e in self._terms):
            raise ValueError(f"series depends on x{k}")
        return self._remap(lambda e, c: (e[:k - 1] + e[k:], c),
                           self.nvars - 1)

    def permute_variables(self, perm: Sequence[int]) -> "Series":
        """Reorder variables: new position ``i`` reads old variable
        ``perm[i-1]`` (1-based, a bijection)."""
        if sorted(perm) != list(range(1, self.nvars + 1)):
            raise ValueError(f"{perm} is not a permutation of 1..{self.nvars}")
        return self._remap(lambda e, c: (tuple(e[p - 1] for p in perm), c))


def _check_index(k: int, nvars: int):
    if not isinstance(k, int) or not 1 <= k <= nvars:
        raise ValueError(f"variable index {k} out of range 1..{nvars}")


def _check_size(nvars: int, trunc: int):
    if nvars < 0:
        raise ValueError("nvars must be nonnegative")
    if trunc < 0:
        raise ValueError("trunc must be nonnegative")


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


def _by_degree(terms: dict) -> list:
    """The ``(degree, expo, coeff)`` items of a term table, by degree."""
    return sorted((sum(e), e, c) for e, c in terms.items())


def _convolve(acc: dict, xs: list, ys: list, trunc: int) -> dict:
    """The one convolution kernel: add into ``acc`` every product of a term
    of ``xs`` and one of ``ys`` (:func:`_by_degree` items) of degree at most
    ``trunc``.  Zero sums are left in ``acc``."""
    for dx, ex, cx in xs:
        for dy, ey, cy in ys:
            if dx + dy > trunc:
                break
            key = tuple(map(add, ex, ey))
            v = acc.get(key)
            p = cx * cy
            acc[key] = p if v is None else v + p
    return acc


def _graded_solve(a: dict, b: dict, trunc: int, grade, fold) -> tuple:
    """Solve ``q = fold(a + q*b)`` on term tables, products truncated at
    degree ``trunc``; ``rest`` gets the terms that ``fold`` (exponent to
    exponent) maps to ``None``.  ``grade`` must be additive, kept by ``fold``
    and positive on every term of ``b``: then the grade-m part of ``a +
    q*b``, ``a_m + sum_{j>=1} q_(m-j) * b_j``, reads lower grades of ``q``
    only, so one walk up the grades reachable from ``a`` by those of ``b``
    solves it, multiplying each pair of terms once."""
    parts_a, parts_b, parts_q, rest = {}, {}, {}, {}
    for terms, parts in ((a, parts_a), (b, parts_b)):
        for e, c in terms.items():
            parts.setdefault(grade(e), {})[e] = c
    parts_b = {j: _by_degree(part) for j, part in parts_b.items()}
    todo = set(parts_a)
    while todo:
        todo.remove(m := min(todo))
        acc = parts_a.get(m, {})
        for j, b_j in parts_b.items():
            if m - j in parts_q:
                _convolve(acc, parts_q[m - j], b_j, trunc)
        part = {}
        for e, v in acc.items():
            if v and (new := fold(e)) is not None:
                part[new] = v
            elif v:
                rest[e] = v
        if part:
            parts_q[m] = _by_degree(part)
            todo.update(m + j for j in parts_b)
    return {e: v for part in parts_q.values() for _, e, v in part}, rest
