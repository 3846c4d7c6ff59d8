"""Implicit solving, exact division by a variable, and parity surgery."""

import random

import pytest

from support import (S, identical, in_key_order, kernel_spaces,
                     kernel_table, random_exponent, random_implicit_input,
                     random_series, reference_implicit, wide_coeff)
from wseries import PreconditionError, Series, even_odd_split, solve_implicit


# ----------------------------------------------------------------------
# implicit solving
# ----------------------------------------------------------------------

def test_solve_already_solved_variable():
    assert not solve_implicit(S("x2", 2, 6), 2).terms


def test_solve_explicit_equation():
    assert solve_implicit(S("x2 - x1^2", 2, 6), 2) == S("x1^2", 1, 6)


def test_solve_geometric_equation():
    phi = solve_implicit(S("x2 - x1 - x1*x2", 2, 12), 2)
    expected = Series(1, 12, {(j,): 1 for j in range(1, 13)})
    assert phi.same_data(expected)


def test_solve_preconditions():
    with pytest.raises(PreconditionError):
        solve_implicit(S("1 + x2", 2, 6), 2)
    with pytest.raises(PreconditionError):
        solve_implicit(S("x1 + x2^2", 2, 6), 2)


def test_substitute_back_random():
    rng = random.Random(61)
    for _ in range(20):
        nvars = rng.choice((2, 3))
        k = rng.randint(1, nvars)
        f = random_implicit_input(rng, nvars, 10, k)
        phi = solve_implicit(f, k)
        assert phi.constant_term() == 0
        assert not f.substitute(k, phi).terms


def test_solution_is_unique_to_perturbation():
    f = S("x2 - x1 - x1*x2", 2, 10)
    phi = solve_implicit(f, 2)
    for j in (1, 3, 6):
        bent = phi + Series.monomial((j,), 1, 10)
        assert not f.substitute(2, bent).vanishes_through(10)


def test_solution_matches_the_division_route():
    """The Horner recurrence against the route it replaced,
    :func:`reference_implicit`: nvars 1-4 at trunc 0-12 with every k, and
    nvars 32 at trunc 0-4 with k in {1, 2, 4, 32}; 0, 1 and 6 extra terms
    with numerators and denominators up to 2^40, each with its copy free of
    x_k where that has a positive degree, so that ``phi`` is seldom zero;
    an x_k coefficient ``c`` that is rational and negative at every odd
    truncation; an ``x_k^J`` term with ``J`` up to the truncation;
    certificates below the truncation.  Table, truncation, certificate and key order agree.  At
    trunc 0 the linear term is truncated away, and the solve refuses."""
    rng = random.Random(2701)
    for nvars, trunc in kernel_spaces():
        ks = range(1, min(nvars, 4) + 1) if nvars < 32 else (1, 2, 4, 32)
        for k in ks:
            for size in (0, 1, 6):
                terms = {}
                extra = kernel_table(rng, nvars, trunc, size, lo=1).terms
                for e, v in extra.items():
                    terms[e] = v
                    if sum(free := e[:k - 1] + (0,) + e[k:]):
                        terms[free] = -v
                for j in (rng.randint(1, max(trunc, 1)), 1):
                    c = (-1) ** trunc * abs(wide_coeff(rng))
                    terms[tuple(j if i == k - 1 else 0
                                for i in range(nvars))] = c
                f = Series(nvars, trunc, terms)
                f = f.with_guarantee(rng.randint(0, trunc))
                if not trunc:
                    with pytest.raises(PreconditionError):
                        solve_implicit(f, k)
                    continue
                phi = solve_implicit(f, k)
                assert identical(phi, reference_implicit(f, k)), (f, k)
                assert in_key_order(phi), (f, k)


def test_solution_of_a_late_x_k_free_part_matches_the_division_route():
    """The walk skips a part of ``H_j`` of degree ``e`` when ``e + j*omega``
    passes the truncation, ``omega`` the least degree of the x_k-free part
    ``R_0``: ``phi`` has order ``omega`` at least, so that part reaches no
    stored degree.  Against :func:`reference_implicit`, at omega 2, 3 and
    4 in 2 and 3 variables, trunc omega to 12: ``R_0`` a single monomial
    of degree omega or several up to the truncation, extra terms with x_k,
    and an ``x_k^J`` term for every ``J`` up to the truncation, so ``phi``
    has terms at ``e + j*omega`` equal to the truncation.  Table,
    truncation, certificate and key order agree."""
    rng = random.Random(3101)
    for omega in (2, 3, 4):
        for nvars in (2, 3):
            for trunc in range(omega, 13):
                k = rng.randint(1, nvars)
                for single in (True, False):
                    terms = {}
                    for hi in [omega] + [trunc] * (0 if single else 3):
                        e = random_exponent(rng, nvars - 1, omega, hi)
                        terms[e[:k - 1] + (0,) + e[k - 1:]] = wide_coeff(rng)
                    for _ in range(3):
                        e = list(random_exponent(rng, nvars, 1, trunc - 1))
                        e[k - 1] += 1
                        terms[tuple(e)] = wide_coeff(rng)
                    for j in range(1, trunc + 1):
                        terms[tuple(j if i == k - 1 else 0
                                    for i in range(nvars))] = wide_coeff(rng)
                    f = Series(nvars, trunc, terms)
                    f = f.with_guarantee(rng.randint(0, trunc))
                    phi = solve_implicit(f, k)
                    assert identical(phi, reference_implicit(f, k)), (f, k)
                    assert in_key_order(phi), (f, k)
                    assert phi.vanishes_through(omega - 1), (f, k)


def test_solve_at_a_huge_truncation_visits_only_the_degrees_it_reaches():
    # the recurrence walks the degrees that a read reaches, not every
    # degree up to the truncation, which would not finish here
    f = S("x2 + x1 + x1^1000*x3", 3, 10 ** 9)
    assert solve_implicit(f, 2).same_data(S("-1*x1 - x1^1000*x2", 2, 10 ** 9))


# ----------------------------------------------------------------------
# parity surgery
# ----------------------------------------------------------------------

def test_even_odd_split_examples():
    g0, g1 = even_odd_split(S("(x1+x2)^2", 2, 6), 2)
    assert g0 == S("x1^2 + x2^2", 2, 6)
    assert g1 == S("2*x1*x2", 2, 6)

    f_even = S("1 + x1*x2^2 + x2^4", 2, 6)
    g0, g1 = even_odd_split(f_even, 2)
    assert g0.same_data(f_even) and not g1.terms

    g0, g1 = even_odd_split(S("(x1+x2)^2 + (x1+x2)^3", 2, 6), 2)
    assert g0 == S("x1^2 + x2^2 + x1^3 + 3*x1*x2^2", 2, 6)
    assert g1 == S("2*x1*x2 + 3*x1^2*x2 + x2^3", 2, 6)


def test_even_odd_split_reconstructs():
    rng = random.Random(71)
    for _ in range(15):
        f = random_series(rng, 2, 8, nterms=9)
        g0, g1 = even_odd_split(f, 2)
        assert (g0 + g1).same_data(f)
        assert all(e[1] % 2 == 0 for e in g0.support())
        assert all(e[1] % 2 == 1 for e in g1.support())
