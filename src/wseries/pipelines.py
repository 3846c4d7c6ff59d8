"""Composite routines built from preparation and implicit solving.

The central construction descends a series ``f`` whose restriction to the
``x_k`` axis starts ``x_k^2 + x_k^3`` to a pair of series in the squared
variable:

    f(x) = f0(x', x_k^2) + x_k * f1(x', x_k^2).

The even/odd parts of ``f`` are processed separately.  For an even part
``g`` the adjoined-variable trick runs: form ``F = g - t`` with a fresh
last variable ``t``, divide ``x_k^2`` by ``F``, check that the odd
coefficient of ``P = x_k^2 - r`` vanishes identically, and solve ``z +
a2(x', t) = 0`` for ``t``; the solution is the descended series.
The odd part is divided by ``x_k`` first and descended the same way.

On top of the decomposition sits the holomorphic extension of a univariate
series ``h`` with profile ``x^2 + x^3 + higher``: applying the split to
``h(x1 + x2)`` in ``x2`` yields the real and imaginary parts

    u = f0(x1, -x2^2),   v = x2 * f1(x1, -x2^2)

of an extension of ``h`` off the real axis, verified against the binomial
complexification and the Cauchy-Riemann equations.

A separate checker decides membership of prepared-polynomial support
exponents in the additive semigroup spanned by the source support, with
explicit witnesses.  The strict check (nonempty sums of generators only)
is falsifiable; closing the generator set under subtraction of the
distinguished monomial exponent gives the bound the division algorithm
actually guarantees.  Both modes are provided and report honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import InternalInvariantError, PreconditionError
from .localring import divide_by_variable, even_odd_split, solve_implicit
from .series import Series, term_sort_key, _check_index
from .weierstrass import DistinguishedPoly, _certified_order, _distinguished
# not called here: perfbench's span recorder test reads the name from here
from .weierstrass import weierstrass_prepare  # noqa: F401


# ----------------------------------------------------------------------
# square decomposition
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SquareSplit:
    """Decomposition ``f = f0(x', x_k^2) + x_k * f1(x', x_k^2)``.

    Both components are series in ``n`` variables whose last variable
    stands for the square ``x_k^2``; the remaining original variables keep
    their order with indices above ``k`` shifted down."""

    f0: Series
    f1: Series
    guaranteed_degree: int

    def to_dict(self) -> dict:
        return {
            "guaranteed_degree": self.guaranteed_degree,
            "f0": self.f0.to_dict(),
            "f1": self.f1.to_dict(),
        }


#: coefficients of x_k^0 .. x_k^3 on the x_k axis: the profile x_k^2 + x_k^3
_AXIS_PROFILE = (0, 0, 1, 1)


def _profile_mismatch(f: Series, k: int) -> str | None:
    """The first coefficient on the ``x_k`` axis that departs from
    :data:`_AXIS_PROFILE`, described, or ``None`` when none does."""
    for j, want in enumerate(_AXIS_PROFILE):
        have = f.coefficient(tuple(j if i == k - 1 else 0
                                   for i in range(f.nvars)))
        if have != want:
            return f"coefficient of x{k}^{j} is {have}, want {want}"
    return None


def split_square(f: Series, k: int) -> SquareSplit:
    """Split ``f`` as ``f0(x', x_k^2) + x_k * f1(x', x_k^2)``.

    Requires the restriction of ``f`` to the ``x_k`` axis to have
    coefficients 0, 0, 1, 1 in degrees 0..3, certified: the division for
    the odd part raises below certified degree 3.  Each part descends
    through ``P = x_k^2 - r``, ``r`` the remainder of ``x_k^2`` by ``F =
    part - t``.  Four degrees are reserved (two order-2 divisions, one
    monomial division, slack): the result is certified four below ``f``.
    """
    _check_index(k, f.nvars)
    if f.trunc < 4:
        raise PreconditionError("truncation below 4 cannot hold the profile")
    mismatch = _profile_mismatch(f, k)
    if mismatch is not None:
        raise PreconditionError(
            f"axis profile must start x{k}^2 + x{k}^3: {mismatch}")
    g0, g1 = even_odd_split(f, k)
    f0 = _descend_even_square(g0, k)
    f1 = _descend_even_square(divide_by_variable(g1, k), k)
    gd = max(f.guaranteed_degree - 4, 0)
    return SquareSplit(f0.with_guarantee(gd), f1.with_guarantee(gd), gd)


def _descend_even_square(g: Series, k: int) -> Series:
    """Descend an even series of order 2 in ``x_k`` to the squared variable:
    returns ``s`` with ``s(x', x_k^2) = g``, the last variable of ``s``
    standing for the square."""
    n = g.nvars
    F = g.adjoin_variable() - Series.variable(n + 1, n + 1, g.trunc)
    d = _certified_order(F, k, "series", "preparation")
    if d != 2:
        raise InternalInvariantError(
            f"expected order 2 in x{k}, preparation found {d}")
    odd_coeff, const_coeff = _distinguished(F, k, d)[0].coeffs
    if not odd_coeff.is_zero():
        # parity through every step of the division makes this exact zero
        raise InternalInvariantError(
            "odd coefficient survived preparation of an even series: "
            f"{odd_coeff.canonical()}")
    w = Series.variable(n, n + 1, g.trunc) + const_coeff.embed_variable(n)
    return solve_implicit(w, n + 1)


def reconstruct_split(split: SquareSplit, k: int) -> Series:
    """Reassemble ``f0(x', x_k^2) + x_k * f1(x', x_k^2)`` with the squared
    variable moved back to position ``k`` of the original space."""
    n = split.f0.nvars
    even = split.f0.substitute_square(n)
    odd = split.f1.substitute_square(n) * Series.variable(n, n, split.f1.trunc)
    combined = even + odd
    if k == n:
        return combined
    perm = list(range(1, k)) + [n] + list(range(k, n))
    return combined.permute_variables(perm)


# ----------------------------------------------------------------------
# support semigroup checking
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SupportCheck:
    """Membership verdict for one exponent.  When ``member`` is true the
    ``witness`` generators (with repetition) sum to the exponent plus
    ``shifts`` copies of the distinguished monomial exponent."""

    exponent: tuple
    member: bool
    witness: tuple | None = None
    shifts: int = 0

    def to_dict(self) -> dict:
        return {
            "exponent": list(self.exponent),
            "member": self.member,
            "witness": None if self.witness is None
            else [list(w) for w in self.witness],
            "shifts": self.shifts,
        }


@dataclass(frozen=True)
class SemigroupReport:
    """Outcome of checking every support exponent of a prepared polynomial
    against the additive semigroup generated by the source support."""

    generators: tuple
    checks: tuple
    order_shift: bool

    @property
    def all_member(self) -> bool:
        return all(c.member for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.member]

    def to_dict(self) -> dict:
        return {
            "order_shift": self.order_shift,
            "all_member": self.all_member,
            "generators": [list(g) for g in self.generators],
            "checks": [c.to_dict() for c in self.checks],
        }


def check_membership(targets, generators, *, cap: int | None = None,
                     shift_expo: tuple | None = None) -> tuple:
    """Decide membership of each target exponent in the set of finite
    nonempty sums of the generator exponents, by forward closure over the
    box of exponents of total degree <= ``cap`` (default: the largest
    target degree).

    When ``shift_expo`` is given the reachable set is also closed under
    componentwise subtraction of that exponent; each application counts
    one ``shift`` in the witness, so every witness satisfies
    ``sum(witness) = target + shifts * shift_expo``.
    """
    targets = sorted(set(targets), key=term_sort_key)
    generators = sorted(set(generators), key=term_sort_key)
    if not targets:
        return ()
    nvars = len(targets[0])
    zero = (0,) * nvars
    positive = [g for g in generators if sum(g) > 0]
    if cap is None:
        cap = max(sum(t) for t in targets)

    # closure with predecessor links for witness reconstruction
    reach: dict = {}
    frontier: list = []
    for g in positive:
        if sum(g) <= cap:
            reach[g] = (None, g)
            frontier.append(g)
    while frontier:
        cur = frontier.pop()
        for g in positive:
            nxt = tuple(a + b for a, b in zip(cur, g))
            if sum(nxt) <= cap and nxt not in reach:
                reach[nxt] = (cur, g)
                frontier.append(nxt)
        if shift_expo is not None and all(
                a >= s for a, s in zip(cur, shift_expo)):
            nxt = tuple(a - s for a, s in zip(cur, shift_expo))
            if nxt != zero and nxt not in reach:
                reach[nxt] = (cur, None)
                frontier.append(nxt)

    checks = []
    for t in targets:
        if t == zero:
            # only a zero generator can sum to zero
            member = zero in generators
            checks.append(SupportCheck(t, member,
                                       (zero,) if member else None))
            continue
        if t not in reach:
            checks.append(SupportCheck(t, False))
            continue
        used, shifts, cur = [], 0, t
        while cur is not None:
            prev, gen = reach[cur]
            if gen is None:
                shifts += 1
            else:
                used.append(gen)
            cur = prev
        checks.append(SupportCheck(
            t, True, tuple(sorted(used, key=term_sort_key)), shifts))
    return tuple(checks)


def semigroup_check(poly: DistinguishedPoly, source: Series,
                    *, order_shift: bool = False) -> SemigroupReport:
    """Decide, for every exponent in the support of ``poly.expand()`` up to
    the expansion's certified degree, membership in the set of finite
    nonempty sums of support exponents of ``source``; witnesses are
    reported and falsifications are carried in the report rather than
    raised.

    With ``order_shift`` enabled the reachable set is additionally closed
    under subtracting the distinguished monomial exponent ``d*e_k`` (the
    rewriting the division recursion performs), which is the containment
    the preparation output provably satisfies.
    """
    expanded = poly.expand()
    bound = expanded.guaranteed_degree
    targets = [e for e in expanded.support() if sum(e) <= bound]
    generators = sorted(source.support(), key=term_sort_key)
    shift = None
    cap = None
    if order_shift and poly.d:
        shift = tuple(poly.d if i == poly.k - 1 else 0
                      for i in range(source.nvars))
        cap = source.trunc
    checks = check_membership(targets, generators, cap=cap, shift_expo=shift)
    return SemigroupReport(tuple(generators), checks, order_shift)


# ----------------------------------------------------------------------
# holomorphic extension
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexExtension:
    """Real and imaginary parts ``u(x1, x2)``, ``v(x1, x2)`` of a formal
    extension, certified through ``guaranteed_degree``."""

    u: Series
    v: Series
    guaranteed_degree: int

    def to_dict(self) -> dict:
        return {
            "guaranteed_degree": self.guaranteed_degree,
            "u": self.u.to_dict(),
            "v": self.v.to_dict(),
        }


@dataclass(frozen=True)
class CauchyRiemannReport:
    """Residuals ``du/dx1 - dv/dx2`` and ``du/dx2 + dv/dx1``; the pair
    passes when both vanish through ``checked_degree`` (one below the
    extension's certified degree, spent on differentiation)."""

    residual1: Series
    residual2: Series
    checked_degree: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "checked_degree": self.checked_degree,
            "passed": self.passed,
            "residual1": self.residual1.to_dict(),
            "residual2": self.residual2.to_dict(),
        }


def normalize_cubic(h: Series) -> tuple[Series, Series]:
    """Add the unique polynomial of degree <= 3 that forces coefficients
    (0, 0, 1, 1) in degrees 0..3.  Returns ``(normalized, correction)``."""
    if h.nvars != 1:
        raise ValueError("normalization applies to univariate series")
    if h.trunc < 3:
        raise PreconditionError("truncation below 3 cannot hold the profile")
    q = Series(1, h.trunc, {(j,): want - h.coefficient((j,))
                            for j, want in enumerate(_AXIS_PROFILE)})
    return h + q, q


def _negate_square(s: Series) -> Series:
    """Substitute ``t -> -x^2`` in the last variable: flip the sign by the
    old exponent's parity, then double it."""
    return s._remap(lambda e, c: (e[:-1] + (2 * e[-1],),
                                  -c if e[-1] % 2 else c))


def holomorphic_extension(h: Series) -> ComplexExtension:
    """Extend a normalized univariate series off the axis through the
    square decomposition of ``f = h(x1 + x2)`` in ``x2``:

        u = f0(x1, -x2^2),   v = x2 * f1(x1, -x2^2).

    The restriction to ``x2 = 0`` returns ``h`` and the pair satisfies the
    Cauchy-Riemann equations through the certified degree.
    """
    if h.nvars != 1:
        raise ValueError("expected a univariate series")
    if _profile_mismatch(h, 1) is not None:
        raise PreconditionError(
            "series must be normalized to the x^2 + x^3 profile "
            "(apply normalize_cubic first)")
    if h.trunc < 4:
        raise PreconditionError("truncation below 4 cannot run the pipeline")
    n2 = h.trunc
    arg = Series.variable(1, 2, n2) + Series.variable(2, 2, n2)
    split = split_square(h.compose([arg]), 2)
    u = _negate_square(split.f0)
    v = _negate_square(split.f1) * Series.variable(2, 2, n2)
    gd = split.guaranteed_degree
    return ComplexExtension(u.with_guarantee(gd), v.with_guarantee(gd), gd)


def direct_complexification(h: Series) -> ComplexExtension:
    """Real and imaginary parts of ``sum h_m (x1 + i*x2)^m`` by the binomial
    theorem, exact through the truncation.  This route never multiplies
    series, so it is an independent cross-check of the extension pipeline."""
    if h.nvars != 1:
        raise ValueError("expected a univariate series")
    u_terms: dict = {}
    v_terms: dict = {}
    for (m,), c in h.terms.items():
        for j in range(m + 1):
            value = c * comb(m, j)
            target = u_terms if j % 2 == 0 else v_terms
            target[(m - j, j)] = -value if j % 4 >= 2 else value
    gd = h.guaranteed_degree
    return ComplexExtension(Series(2, h.trunc, u_terms, gd),
                            Series(2, h.trunc, v_terms, gd), gd)


def cauchy_riemann_check(ext: ComplexExtension) -> CauchyRiemannReport:
    """Residuals of the Cauchy-Riemann system for the pair ``(u, v)``."""
    r1 = ext.u.derivative(1) - ext.v.derivative(2)
    r2 = ext.u.derivative(2) + ext.v.derivative(1)
    checked = ext.guaranteed_degree - 1
    passed = r1.vanishes_through(checked) and r2.vanishes_through(checked)
    return CauchyRiemannReport(r1, r2, checked, passed)
