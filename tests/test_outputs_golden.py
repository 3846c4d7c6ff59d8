"""Standing output gate: the canonical text, truncation and certificate of
every output of a seeded set of holomorphic extensions at N=12, of
Weierstrass divisions and preparations in 2-4 variables and of implicit
solves in 2-4 variables.

A change to the arithmetic must leave every output as it is.  The
expected values live in ``data/outputs_golden.json``.  After a deliberate
change of output, rewrite them with

    PYTHONPATH=src python tests/test_outputs_golden.py
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from support import random_normalized_h
from wseries import Series, localring, pipelines, weierstrass

GOLDEN = Path(__file__).resolve().parent / "data" / "outputs_golden.json"

#: coefficient denominators with several prime factors, so that the common
#: denominators of the product kernel differ from term to term
DENOMS = (1, 2, 3, 5, 7, 12, 35, 64)


def _coeff(rng):
    return Fraction(rng.choice((-9, -7, -4, -2, -1, 1, 2, 3, 5, 8)),
                    rng.choice(DENOMS))


def _expo(rng, nvars, lo, hi):
    expo = [0] * nvars
    for _ in range(rng.randint(lo, hi)):
        expo[rng.randrange(nvars)] += 1
    return tuple(expo)


def _order_d(rng, nvars, trunc, k, d, nterms=7):
    """Order exactly ``d`` on the x_k axis: no axis term below ``x_k^d``."""
    terms = {tuple(d if i == k - 1 else 0 for i in range(nvars)): _coeff(rng)}
    while len(terms) <= nterms:
        e = _expo(rng, nvars, 1, trunc)
        if any(v for i, v in enumerate(e) if i != k - 1) or e[k - 1] > d:
            terms.setdefault(e, _coeff(rng))
    return Series(nvars, trunc, terms)


def _holo_cases():
    rng = random.Random("golden:holo")
    for i in range(3):
        h = random_normalized_h(rng, 12, density=(0.4, 0.6, 0.8)[i])
        yield f"holo {i}", lambda h=h: _extension_outputs(h)


def _extension_outputs(h):
    ext = pipelines.holomorphic_extension(h)
    return [ext.u, ext.v]


def _division_cases():
    rng = random.Random("golden:divide")
    for nvars in (2, 3, 4):
        trunc = 8 if nvars < 4 else 7
        for d in (1, 2, 3):
            for rep in range(3):
                k = rng.randint(1, nvars)
                f = _order_d(rng, nvars, trunc, k, d)
                g = Series(nvars, trunc, {_expo(rng, nvars, 0, trunc):
                                          _coeff(rng) for _ in range(7)})
                yield (f"nvars {nvars} d {d} #{rep}",
                       lambda g=g, f=f, k=k: _division_outputs(g, f, k))


def _division_outputs(g, f, k):
    div = weierstrass.weierstrass_divide(g, f, k)
    prep = weierstrass.weierstrass_prepare(f, k)
    return [div.quotient, div.remainder, prep.unit, *prep.poly.coeffs,
            prep.poly.expand()]


def _implicit_cases():
    rng = random.Random("golden:implicit")
    for nvars in (2, 3, 4):
        for rep in range(3):
            trunc = rng.randint(4, 8)
            k = rng.randint(1, nvars)
            f = _order_d(rng, nvars, trunc, k, 1)
            yield (f"implicit nvars {nvars} #{rep}",
                   lambda f=f, k=k: [localring.solve_implicit(f, k)])


CASES = (list(_holo_cases()) + list(_division_cases())
         + list(_implicit_cases()))


def record(label, run) -> dict:
    return {"case": label,
            "outputs": [[s.canonical(), s.trunc, s.guaranteed_degree]
                        for s in run()]}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_records_every_case(golden):
    assert [r["case"] for r in golden] == [label for label, _ in CASES]


@pytest.mark.parametrize("index", range(len(CASES)),
                         ids=[label for label, _ in CASES])
def test_outputs_are_unchanged(index, golden):
    assert record(*CASES[index]) == golden[index]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([record(*c) for c in CASES], indent=1)
                      + "\n")
