"""Seeded input generators for the benchmark workloads.

These are the benchmark's own generators: they import nothing from the test
suite, so editing a test can never change what the benchmark measures.  Each
generator takes a ``random.Random`` and returns plain data (term tables
or expression text); the same seed always gives the same inputs.
"""

from __future__ import annotations

from fractions import Fraction

HOLO_NUMERATORS = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
HOLO_DENOMINATORS = (1, 1, 1, 2, 3, 4)
DIVIDE_NUMERATORS = (-7, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 7)
DIVIDE_DENOMINATORS = (2, 3, 4, 5, 6, 7)


def _coeff(rng, numerators, denominators) -> Fraction:
    return Fraction(rng.choice(numerators), rng.choice(denominators))


def _exponent(rng, nvars: int, lo: int, hi: int) -> tuple:
    expo = [0] * nvars
    for _ in range(rng.randint(lo, hi)):
        expo[rng.randrange(nvars)] += 1
    return tuple(expo)


def _axis(nvars: int, k: int, power: int) -> tuple:
    return tuple(power if i == k - 1 else 0 for i in range(nvars))


def _on_axis_up_to(expo: tuple, k: int, power: int) -> bool:
    return (all(v == 0 for i, v in enumerate(expo) if i != k - 1)
            and expo[k - 1] <= power)


def _fill(rng, terms: dict, count: int, nvars: int, lo: int, hi: int,
          keep=lambda e: True) -> dict:
    """Add random terms until ``terms`` holds ``count`` entries."""
    while len(terms) < count:
        e = _exponent(rng, nvars, lo, hi)
        if keep(e):
            terms.setdefault(e, divide_coeff(rng))
    return terms


def divide_coeff(rng) -> Fraction:
    return _coeff(rng, DIVIDE_NUMERATORS, DIVIDE_DENOMINATORS)


def holo_coeff(rng) -> Fraction:
    return _coeff(rng, HOLO_NUMERATORS, HOLO_DENOMINATORS)


# ----------------------------------------------------------------------
# term tables (shared by the library workloads and the CLI workload)
# ----------------------------------------------------------------------

def order_d_terms(rng, nvars, trunc, k, d, nterms) -> dict:
    """Order exactly ``d`` on the x_k axis: an ``x_k^d`` term plus extra
    terms that leave the lower axis coefficients zero."""
    terms = {_axis(nvars, k, d): divide_coeff(rng)}
    return _fill(rng, terms, nterms + 1, nvars, 1, trunc,
                 lambda e: not _on_axis_up_to(e, k, d))


def random_terms(rng, nvars, trunc, nterms) -> dict:
    return _fill(rng, {}, nterms, nvars, 0, trunc)


def implicit_terms(rng, nvars, trunc, k, nterms) -> dict:
    """Zero at the origin with a nonzero linear x_k coefficient."""
    terms = {_axis(nvars, k, 1): divide_coeff(rng)}
    return _fill(rng, terms, nterms + 1, nvars, 1, trunc)


def lemma_terms(rng, nvars, trunc, k, nterms) -> dict:
    """Axis profile 0, 0, 1, 1 in degrees 0..3 plus free extra terms."""
    terms = {_axis(nvars, k, 2): Fraction(1), _axis(nvars, k, 3): Fraction(1)}
    return _fill(rng, terms, nterms + 2, nvars, 1, trunc,
                 lambda e: not _on_axis_up_to(e, k, 3))


def flat_terms(rng, nvars, trunc, k, nterms) -> dict:
    """Every term carries a variable other than x_k: flat on the x_k axis."""
    return _fill(rng, {}, nterms, nvars, 1, trunc,
                 lambda e: any(v for i, v in enumerate(e) if i != k - 1))


def holo_terms(rng, trunc: int, window: int) -> dict:
    """Normalized univariate ``h = x^2 + x^3 + ...``.

    Of the degrees 4..trunc, the ones present form the cyclic window of 5
    out of 9 (density 0.56) that starts at position ``window``.  Extension
    cost depends mostly on which low degrees are present; the windows that
    contain degree 5 all cost within about 15% of each other, so every run
    covers one cost class whatever the seed.  The seed draws the order of
    the windows and the coefficients."""
    free = list(range(4, trunc + 1))
    width = max(1, round(len(free) * 5 / 9))
    terms = {(2,): Fraction(1), (3,): Fraction(1)}
    for t in range(width):
        terms[(free[(window + t) % len(free)],)] = holo_coeff(rng)
    return terms


#: the windows of ``holo_terms`` at trunc 12 that contain degree 5
HOLO_WINDOWS = (0, 1, 6, 7, 8)


# ----------------------------------------------------------------------
# expression text
# ----------------------------------------------------------------------

def render(terms: dict) -> str:
    """Expression text for a term table, in the CLI grammar."""
    if not terms:
        return "0"
    parts = []
    for expo in sorted(terms, key=lambda e: (sum(e), e)):
        c = terms[expo]
        factors = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                   for i, e in enumerate(expo) if e]
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    return " + ".join(parts)

