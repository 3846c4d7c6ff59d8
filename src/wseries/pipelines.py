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
series ``h`` with profile ``x^2 + x^3 + higher``: the split of ``h(x1 +
x2)`` in ``x2`` yields the real and imaginary parts

    u = f0(x1, -x2^2),   v = x2 * f1(x1, -x2^2)

of an extension of ``h`` off the real axis, verified against the binomial
complexification and the Cauchy-Riemann equations.  The extension puts
``z = -x2^2`` into each implicit equation before solving it, so it forms
no term of ``f0`` or ``f1`` that the substitution would push past the
truncation; as ``u`` has order 2, its preparation weighs ``t`` as a
square, which leaves out the terms of ``a2`` that reach no kept degree.

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
from .localring import (divide_by_variable, even_odd_split, halve_exponents,
                        solve_implicit)
from .series import (Series, term_sort_key, _axis, _certified,
                     _check_index, _exponent, _Record, _size, _sum)
from .weierstrass import DistinguishedPoly, _distinguished
# not called here: perfbench's span recorder test reads the name from here
from .weierstrass import weierstrass_prepare  # noqa: F401


# ----------------------------------------------------------------------
# square decomposition
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SquareSplit(_Record):
    """Decomposition ``f = f0(x', x_k^2) + x_k * f1(x', x_k^2)``.

    Both components are series in ``n`` variables whose last variable
    stands for the square ``x_k^2``; the remaining original variables keep
    their order with indices above ``k`` shifted down."""

    _EXPORT = ("guaranteed_degree", "f0", "f1")

    f0: Series
    f1: Series
    guaranteed_degree: int


#: coefficients of x_k^0 .. x_k^3 on the x_k axis: the profile x_k^2 + x_k^3
_AXIS_PROFILE = (0, 0, 1, 1)


def _profile_mismatch(f: Series, k: int) -> str | None:
    """The first coefficient on the ``x_k`` axis that departs from
    :data:`_AXIS_PROFILE`, described, or ``None`` when none does."""
    for j, want in enumerate(_AXIS_PROFILE):
        have = f.coefficient(_axis(f.nvars, k, j))
        if have != want:
            return f"coefficient of x{k}^{j} is {have}, want {want}"
    return None


def split_square(f: Series, k: int) -> SquareSplit:
    """Split ``f`` as ``f0(x', x_k^2) + x_k * f1(x', x_k^2)``.

    Requires the restriction of ``f`` to the ``x_k`` axis to have
    coefficients 0, 0, 1, 1 in degrees 0..3, certified: the division for
    the odd part raises below certified degree 3.  Each part descends
    through ``P = x_k^2 - r``, ``r`` the remainder of ``x_k^2`` by ``F =
    part - t``, solved at a fresh squared variable.  Four degrees are
    reserved (two order-2 divisions, one monomial division, slack): the
    result reads ``f`` by the map ``(1, 4)``, certified four below ``f``,
    and through ``-1`` (nothing) at the least admitted certificate, 3.
    """
    k, g0, g1, gd = _halves(f, k)
    z = Series.variable(f.nvars, f.nvars + 1, f.trunc)
    f0, f1 = (_descend(g, k, z, 1) for g in (g0, g1))
    return SquareSplit(f0.with_guarantee(gd), f1.with_guarantee(gd), gd)


def _halves(f: Series, k: int) -> tuple:
    """``(k, g0, g1, gd)`` for ``f = g0 + x_k * g1`` split by the parity of
    the ``x_k`` exponent, after the checks of :func:`split_square`; ``gd``
    is the certificate of the descended halves, read by the map ``(1,
    4)``."""
    k = _check_index(k, f.nvars)
    if f.trunc < 4:
        raise PreconditionError("truncation below 4 cannot hold the profile")
    mismatch = _profile_mismatch(f, k)
    if mismatch is not None:
        raise PreconditionError(
            f"axis profile must start x{k}^2 + x{k}^3: {mismatch}")
    g0, g1 = even_odd_split(f, k)
    return (k, g0, divide_by_variable(g1, k),
            _certified(f.guaranteed_degree, f.trunc, (1, 4)))


def _descend(g: Series, k: int, square: Series, weight: int) -> Series:
    """``s(x', square)`` for the ``s`` with ``s(x', x_k^2) = g``, ``g`` an
    even series of order 2 in ``x_k``.  ``F = g - t^weight``, ``t`` a fresh
    last variable, prepares in ``x_k`` to ``x_k^2 + a2(x', t^weight)``, and
    the solution ``t`` of ``square + a2(x', t) = 0`` is returned.
    ``square`` is a series in ``n + 1`` variables that does not depend on
    the last, ``t``; ``a2`` gets a new variable at place ``n``, before
    ``t``, and ``square`` equal to that variable gives ``s`` itself.  The
    weight is at most the order of ``s(x', square)``: a term ``x'^a t^m``
    of ``a2`` enters the solution at degree ``a + weight*m`` or above, so
    ``F`` forms only the terms that reach the truncation, and at weight 2
    halving the ``t`` exponents takes ``a2`` back to ``t``.  The caller
    certifies the solution."""
    n = g.nvars
    F = g.embed_variable(n + 1) - Series.monomial(_axis(n + 1, n + 1, weight),
                                                  n + 1, g.trunc)
    poly = _distinguished(F, k)[0]
    if poly.d != 2:
        raise InternalInvariantError(
            f"expected order 2 in x{k}, preparation found {poly.d}")
    odd_coeff, const_coeff = poly.coeffs
    if not odd_coeff.is_zero():
        # parity through every step of the division makes this exact zero
        raise InternalInvariantError(
            "odd coefficient survived preparation of an even series: "
            f"{odd_coeff.canonical()}")
    if weight == 2:
        const_coeff = halve_exponents(const_coeff, n)
    return solve_implicit(square + const_coeff.embed_variable(n), n + 1)


def reconstruct_split(split: SquareSplit, k: int) -> Series:
    """Reassemble ``f0(x', x_k^2) + x_k * f1(x', x_k^2)`` with the squared
    variable moved back to position ``k`` of the original space: a term
    ``x'^a t^j`` of ``f0`` becomes ``x'^a x_k^(2j)``, one of ``f1``
    ``x'^a x_k^(2j+1)``."""
    k = _check_index(k, split.f0.nvars) - 1
    return _sum([part._remap(lambda e, c, odd=odd:
                             (e[:k] + (2 * e[-1] + odd,) + e[k:-1], c))
                 for odd, part in enumerate((split.f0, split.f1))])


# ----------------------------------------------------------------------
# support semigroup checking
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SupportCheck(_Record):
    """Membership verdict for one exponent.  When ``member`` is true the
    ``witness`` generators (with repetition) sum to the exponent plus
    ``shifts`` copies of the distinguished monomial exponent."""

    _EXPORT = ("exponent", "member", "witness", "shifts")

    exponent: tuple
    member: bool
    witness: tuple | None = None
    shifts: int = 0


@dataclass(frozen=True)
class SemigroupReport(_Record):
    """Outcome of checking every support exponent of a prepared polynomial
    against the additive semigroup generated by the source support."""

    _EXPORT = ("order_shift", "all_member", "generators", "checks")

    generators: tuple
    checks: tuple
    order_shift: bool

    @property
    def all_member(self) -> bool:
        return all(c.member for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.member]


def check_membership(targets, generators, *, cap: int | None = None,
                     shift_expo: tuple | None = None) -> tuple:
    """Decide membership of each target exponent in the set of finite
    nonempty sums of the generator exponents, by forward closure over the
    box of exponents of total degree <= ``cap``.  ``cap`` is a size, and
    it is raised to the largest target degree (its default) when below it.

    When ``shift_expo`` is given the reachable set is also closed under
    componentwise subtraction of that exponent, as long as no entry goes
    negative; each application counts one ``shift`` in the witness, so
    every witness satisfies ``sum(witness) = target + shifts *
    shift_expo``.  Every exponent, target, generator and shift alike, goes
    through :func:`_exponent` at the length of the first target: a negative
    generator or shift would grow the closure past every degree cap.
    """
    if not (targets := list(targets)):
        return ()
    n = len(targets[0])
    targets = sorted({_exponent(t, n) for t in targets}, key=term_sort_key)
    generators = sorted({_exponent(g, n) for g in generators},
                        key=term_sort_key)
    zero = (0,) * n
    shifts = [] if shift_expo is None else [_exponent(shift_expo, n)]
    # a step is (exponent to add, its degree, witness entry): each
    # generator of positive degree adds, and the shift subtracts and
    # leaves None for the witness
    steps = [(g, sum(g), g) for g in generators if sum(g) > 0]
    steps += [(tuple(-s for s in e), -sum(e), None) for e in shifts]
    top = max(sum(t) for t in targets)
    cap = top if cap is None else max(_size(cap, "cap"), top)

    # closure with predecessor links for witness reconstruction; the
    # frontier carries each exponent's degree, so a step past the cap
    # builds no exponent, and only a shift can fail the sign test
    reach: dict = {zero: None}
    frontier = [(zero, 0)]
    while frontier:
        cur, deg = frontier.pop()
        for step, size, gen in steps:
            if deg + size > cap:
                continue
            nxt = tuple(a + b for a, b in zip(cur, step))
            if nxt not in reach and min(nxt, default=0) >= 0:
                reach[nxt] = (cur, gen)
                frontier.append((nxt, deg + size))

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
        while cur != zero:
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
    under subtracting the distinguished monomial exponent ``s = d*e_k``
    (the rewriting the division recursion performs), which is the
    containment the preparation output provably satisfies.  The closure is
    capped by its targets: additions can go before every shift, and a
    smallest sum of generators equal to ``t + m*s`` uses no copy of ``s``
    when ``m > 0``, at most ``deg(t) - t_k`` off-axis generators and each
    other axis generator fewer than ``d`` times.  So no witness passes
    degree ``deg(t) + (deg(t) - t_k)*X + (d - 1)*A``, with ``X`` the
    largest x_k exponent of an off-axis generator and ``A`` the sum of the
    axis exponents other than ``d``, and the cap is the largest such bound,
    or ``source.trunc`` when that is smaller.
    """
    expanded = poly.expand()
    bound = expanded.guaranteed_degree
    targets = [e for e in expanded.support() if sum(e) <= bound]
    generators = sorted(source.support(), key=term_sort_key)
    shift = cap = None
    if order_shift and (d := poly.d):
        k = poly.k - 1
        shift = _axis(source.nvars, poly.k, d)
        x = max((g[k] for g in generators if sum(g) > g[k]), default=0)
        a = sum(g[k] for g in generators if sum(g) == g[k] != d)
        cap = min(source.trunc, max(
            (sum(t) + (sum(t) - t[k]) * x + (d - 1) * a for t in targets),
            default=0))
    checks = check_membership(targets, generators, cap=cap, shift_expo=shift)
    return SemigroupReport(tuple(generators), checks, order_shift)


# ----------------------------------------------------------------------
# holomorphic extension
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexExtension(_Record):
    """Real and imaginary parts ``u(x1, x2)``, ``v(x1, x2)`` of a formal
    extension, certified through ``guaranteed_degree``."""

    _EXPORT = ("guaranteed_degree", "u", "v")

    u: Series
    v: Series
    guaranteed_degree: int


@dataclass(frozen=True)
class CauchyRiemannReport(_Record):
    """Residuals ``du/dx1 - dv/dx2`` and ``du/dx2 + dv/dx1``; the pair
    passes when both vanish through ``checked_degree`` (one below the
    extension's certified degree, spent on differentiation)."""

    _EXPORT = ("checked_degree", "passed", "residual1", "residual2")

    residual1: Series
    residual2: Series
    checked_degree: int
    passed: bool


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


def holomorphic_extension(h: Series) -> ComplexExtension:
    """Extend a normalized univariate series off the axis through the
    square decomposition of ``f = h(x1 + x2)`` in ``x2``:

        u = f0(x1, -x2^2),   v = x2 * f1(x1, -x2^2).

    Each half of ``f`` descends as in :func:`split_square`, but its
    implicit equation is solved at ``z = -x2^2``: the solution is ``s(x1,
    -x2^2)``, the same series as ``s`` descended and then substituted,
    with only the terms through the truncation formed.  That series is
    ``g(x1, i*x2)`` for the half ``g``, of the half's order, so ``t`` is
    weighed by it: 2 for the even half, 1 for the odd half divided by
    ``x2``.  As ``v = x2 * s1`` keeps ``s1`` only through ``N - 1``, the
    odd half descends at truncation ``N - 1`` (``g1/x2`` has no term of
    degree ``N`` and is certified through ``N - 1`` at most), and ``v``
    puts one ``x2`` on each term of its solution, with no product.  The
    certificate is :func:`split_square`'s, ``(1, 4)`` of ``f``'s.  The
    restriction to ``x2 = 0`` returns ``h`` and the pair satisfies the
    Cauchy-Riemann equations through the certified degree.
    """
    if h.nvars != 1:
        raise ValueError("expected a univariate series")
    if _profile_mismatch(h, 1) is not None:
        raise PreconditionError(
            "series must be normalized to the x^2 + x^3 profile "
            "(apply normalize_cubic first)")
    n2 = h.trunc
    arg = Series.variable(1, 2, n2) + Series.variable(2, 2, n2)
    _, g0, g1, gd = _halves(h.compose([arg]), 2)
    square = Series.monomial((0, 2, 0), 3, n2, -1)
    u = _descend(g0, 2, square, 2)
    s1 = _descend(Series(2, n2 - 1, g1.terms, g1.guaranteed_degree), 2,
                  square, 1)
    v = Series(2, n2, {(a, b + 1): c for (a, b), c in s1.terms.items()}, gd)
    return ComplexExtension(u.with_guarantee(gd), v, gd)


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
    checked = _certified(ext.guaranteed_degree, r1.trunc, (1, 1))
    passed = r1.vanishes_through(checked) and r2.vanishes_through(checked)
    return CauchyRiemannReport(r1, r2, checked, passed)
