"""Implicit solving, exact division by a variable, and parity surgery."""

import random

import pytest

from support import S, random_implicit_input, random_series
from wseries import (PreconditionError, Series, divide_by_variable,
                     even_odd_split, halve_exponents, solve_implicit)


# ----------------------------------------------------------------------
# implicit solving
# ----------------------------------------------------------------------

def test_solve_already_solved_variable():
    assert solve_implicit(S("x2", 2, 6), 2).is_zero()


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
        assert f.substitute(k, phi).is_zero()


def test_solution_is_unique_to_perturbation():
    f = S("x2 - x1 - x1*x2", 2, 10)
    phi = solve_implicit(f, 2)
    for j in (1, 3, 6):
        bent = phi + Series.monomial((j,), 1, 10)
        assert not f.substitute(2, bent).vanishes_through(10)


# ----------------------------------------------------------------------
# division by a variable
# ----------------------------------------------------------------------

def test_divide_by_variable_examples():
    assert divide_by_variable(S("x1*x2 + x2^3", 2, 6), 2) == S("x1 + x2^2", 2, 6)
    assert divide_by_variable(S("x2", 2, 6), 2) == S("1", 2, 6)
    assert (divide_by_variable(S("2*x2 + 3*x1^2*x2^2", 2, 6), 2)
            == S("2 + 3*x1^2*x2", 2, 6))


def test_divide_by_variable_requires_divisibility():
    with pytest.raises(PreconditionError):
        divide_by_variable(S("x1 + x2", 2, 6), 2)


def test_divide_by_variable_multiplies_back_exactly():
    rng = random.Random(67)
    for _ in range(15):
        nvars = rng.choice((2, 3))
        k = rng.randint(1, nvars)
        base = random_series(rng, nvars, 9, nterms=8)
        f = base * Series.variable(k, nvars, 9)
        g = divide_by_variable(f, k)
        assert (g * Series.variable(k, nvars, 9)).same_data(f)
        assert g.guaranteed_degree == f.guaranteed_degree - 1


# ----------------------------------------------------------------------
# parity surgery
# ----------------------------------------------------------------------

def test_even_odd_split_examples():
    g0, g1 = even_odd_split(S("(x1+x2)^2", 2, 6), 2)
    assert g0 == S("x1^2 + x2^2", 2, 6)
    assert g1 == S("2*x1*x2", 2, 6)

    f_even = S("1 + x1*x2^2 + x2^4", 2, 6)
    g0, g1 = even_odd_split(f_even, 2)
    assert g0.same_data(f_even) and g1.is_zero()

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


def test_halve_exponents_examples():
    assert halve_exponents(S("x1^2 + x2^2", 2, 6), 2) == S("x1^2 + x2", 2, 6)
    assert halve_exponents(S("1", 2, 6), 2) == S("1", 2, 6)
    assert (halve_exponents(S("x2^4 + 3*x1*x2^2", 2, 6), 2)
            == S("x2^2 + 3*x1*x2", 2, 6))


def test_halve_exponents_rejects_odd():
    with pytest.raises(PreconditionError):
        halve_exponents(S("x2^3", 2, 6), 2)


def test_halving_round_trips_with_squaring():
    rng = random.Random(73)
    for _ in range(15):
        f = random_series(rng, 2, 8, nterms=9)
        g0, _ = even_odd_split(f, 2)
        assert halve_exponents(g0, 2).substitute_square(2).same_data(g0)
