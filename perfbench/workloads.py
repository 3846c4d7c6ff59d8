"""The benchmark workloads: how each one builds its inputs, calls the
library (or the CLI) and checks every output.

A workload exposes ``pool`` (its seeded inputs; one pass over the pool is
the same work for every seed, up to coefficients), ``call`` (the timed
operation), ``check`` (untimed; returns ``None`` when the output is right,
else the reason it is not) and ``outputs`` (the result series, for the exact
output fingerprints).  Library functions are looked up on their
module at call time, so the traced run sees them through its patches.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import selectors
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from wseries import cli, pipelines, weierstrass
from wseries.series import Series

import inputs

SRC = Path(__file__).resolve().parent.parent / "src"

#: outcome of a nesting input that escapes as an uncaught RecursionError:
#: the known parser defect, reported by the traced run's probes
KNOWN_ESCAPE = "known nesting escape (RecursionError traceback)"


# ----------------------------------------------------------------------
# check helpers (pure table comparisons; no library predicates)
# ----------------------------------------------------------------------

def vanishes_through(s: Series, degree: int) -> bool:
    return all(sum(e) > degree for e in s.terms)


def agree_through(a: Series, b: Series, degree: int) -> bool:
    return ({e: c for e, c in a.terms.items() if sum(e) <= degree}
            == {e: c for e, c in b.terms.items() if sum(e) <= degree})


def first_failure(*conditions) -> str | None:
    for ok, reason in conditions:
        if not ok:
            return reason
    return None


def check_division(g, f, k, d, q, r, gd, trunc) -> str | None:
    return first_failure(
        (gd == trunc - d, f"division certificate {gd}, want {trunc - d}"),
        (vanishes_through(g - (q * f + r), gd), "g - (q*f + r) != 0"),
        (all(e[k - 1] < d for e in r.terms), "remainder x_k-degree >= d"))


def check_preparation(f, k, d, unit, poly_d, poly, gd, trunc) -> str | None:
    return first_failure(
        (poly_d == d, f"prepared degree {poly_d}, want {d}"),
        (gd == trunc - d, f"preparation certificate {gd}, want {trunc - d}"),
        (unit.constant_term() != 0, "U is not a unit"),
        (vanishes_through(unit * poly - f, gd), "U*P - f != 0"))


def check_extension(h, u, v, gd, cr_passed) -> str | None:
    direct = pipelines.direct_complexification(h)
    return first_failure(
        (gd == h.trunc - 4, f"extension certificate {gd}, want {h.trunc - 4}"),
        (agree_through(u, direct.u, gd), "u differs from the binomial route"),
        (agree_through(v, direct.v, gd), "v differs from the binomial route"),
        (cr_passed, "Cauchy-Riemann check failed"))


# ----------------------------------------------------------------------
# holo: dense pipeline work in the series layer
# ----------------------------------------------------------------------

class Holo:
    name = "holo"

    def __init__(self, seed: int, small: bool = False):
        self.trunc = 6 if small else 12
        rng = random.Random(f"holo:{seed}")
        windows = rng.sample(inputs.HOLO_WINDOWS, len(inputs.HOLO_WINDOWS))
        self.pool = [Series(1, self.trunc,
                            inputs.holo_terms(rng, self.trunc, window))
                     for window in windows]

    def warm_up(self):
        pipelines.holomorphic_extension(Series(1, 6, {(2,): 1, (3,): 1}))

    def call(self, h):
        return pipelines.holomorphic_extension(h)

    def check(self, h, ext) -> str | None:
        report = pipelines.cauchy_riemann_check(ext)
        return check_extension(h, ext.u, ext.v, ext.guaranteed_degree,
                               report.passed)

    def outputs(self, h, ext) -> list:
        return [ext.u, ext.v]


# ----------------------------------------------------------------------
# divide: sparse division and preparation, inverse-heavy
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DivideCase:
    g: Series
    f: Series
    k: int
    d: int


class Divide:
    """The supports come from one fixed stream and the seed draws the
    coefficients.  Division cost depends mostly on the supports and has a
    heavy tail (a few inputs cost 50x the median), so random supports would
    make each run's total work depend on how many heavy inputs it drew."""

    name = "divide"
    NTERMS = 8
    #: a whole number of (nvars, d) cycles; one pass costs about 7 s here
    POOL = 243

    def __init__(self, seed: int, small: bool = False):
        shapes = random.Random("divide:supports")
        rng = random.Random(f"divide:{seed}")
        self.pool = []
        for i in range(self.POOL if not small else 9):
            nvars = (2, 3, 4)[i % 3]
            d = (1, 2, 3)[i // 3 % 3]
            trunc = (10 if nvars == 4 else 12) if not small else 5
            k = shapes.randint(1, nvars)
            f = inputs.order_d_terms(shapes, nvars, trunc, k, d, self.NTERMS)
            g = inputs.random_terms(shapes, nvars, trunc, self.NTERMS)
            f, g = ({e: inputs.divide_coeff(rng) for e in t} for t in (f, g))
            self.pool.append(DivideCase(Series(nvars, trunc, g),
                                        Series(nvars, trunc, f), k, d))

    def warm_up(self):
        f = Series(2, 4, {(0, 2): 1, (1, 0): 1})
        weierstrass.weierstrass_divide(Series(2, 4, {(1, 1): 1}), f, 2)
        weierstrass.weierstrass_prepare(f, 2)

    def call(self, case):
        return (weierstrass.weierstrass_divide(case.g, case.f, case.k),
                weierstrass.weierstrass_prepare(case.f, case.k))

    def check(self, case, out) -> str | None:
        div, prep = out
        trunc = case.f.trunc
        return (check_division(case.g, case.f, case.k, case.d, div.quotient,
                               div.remainder, div.guaranteed_degree, trunc)
                or check_preparation(case.f, case.k, case.d, prep.unit,
                                     prep.poly.d, prep.poly.expand(),
                                     prep.guaranteed_degree, trunc))

    def outputs(self, case, out) -> list:
        div, prep = out
        return [div.quotient, div.remainder, prep.unit, *prep.poly.coeffs]


# ----------------------------------------------------------------------
# cli: one subprocess per command; start-up and parsing dominate
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CliCase:
    kind: str
    args: tuple
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CliRun:
    code: int
    stdout: str
    stderr: str
    max_rss_kb: int
    cpu_s: float


_SUBCOMMANDS = ("prepare", "divide", "implicit", "split", "lemma", "holo",
                "cr-check", "semigroup")
#: one cycle of the CLI mix: every subcommand at a small and a medium
#: truncation, then one malformed, one flat-divisor and one nesting input
CLI_CYCLE = (tuple((c, "small") for c in _SUBCOMMANDS)
             + tuple((c, "medium") for c in _SUBCOMMANDS)
             + (("malformed", None), ("flat", None), ("nest", None)))
#: cycles in one pass over the CLI pool (about 6 s here)
CLI_CYCLES = 2
#: deep-nesting inputs the traced run sends after its operations
CLI_PROBES = 2
CHILD_TIMEOUT_S = 60.0


def _space(kind, nvars, trunc, k) -> tuple:
    return (kind, "--vars", str(nvars), "--trunc", str(trunc), "--var", str(k))


def _cli_case(shape, rng, kind: str, size) -> CliCase:
    """One CLI input: ``shape`` draws the sizes, orders and variants and
    ``rng`` the terms, so every seed sends the same kinds of work."""
    trunc = shape.randint(7, 8) if size == "medium" else shape.randint(4, 6)
    nvars = shape.choice((2, 3))
    k = shape.randint(1, nvars)
    expect = {"nvars": nvars, "trunc": trunc, "k": k}
    if kind in ("prepare", "semigroup"):
        d = shape.choice((1, 2))
        f = inputs.order_d_terms(rng, nvars, trunc, k, d, 5)
        shift = ("--order-shift",) if kind == "semigroup" else ()
        return CliCase(kind, _space(kind, nvars, trunc, k)
                       + ("-e", inputs.render(f), "--json") + shift,
                       dict(expect, f=f, d=d))
    if kind == "divide":
        d = shape.choice((1, 2, 3))
        f = inputs.order_d_terms(rng, nvars, trunc, k, d, 5)
        g = inputs.random_terms(rng, nvars, trunc, 6)
        return CliCase(kind, _space(kind, nvars, trunc, k)
                       + ("-g", inputs.render(g), "-f", inputs.render(f),
                          "--json"), dict(expect, f=f, g=g, d=d))
    if kind in ("implicit", "split", "lemma"):
        if kind == "split":
            f = inputs.random_terms(rng, nvars, trunc, 5)
        else:
            make = inputs.implicit_terms if kind == "implicit" else inputs.lemma_terms
            f = make(rng, nvars, trunc, k, 5)
        return CliCase(kind, _space(kind, nvars, trunc, k)
                       + ("-e", inputs.render(f), "--json"), dict(expect, f=f))
    if kind in ("holo", "cr-check"):
        h = {(j,): inputs.holo_coeff(rng)
             for j in range(trunc + 1) if shape.random() < 0.6}
        if size == "medium":
            text = ",".join(str(h.get((j,), 0)) for j in range(trunc + 1))
            source = ("--coeffs", text)
        else:
            source = ("-e", inputs.render(h))
        return CliCase(kind, (kind, "--trunc", str(trunc)) + source
                       + ("--json",), {"h": h, "trunc": trunc})
    if kind == "malformed":
        good = inputs.render(inputs.random_terms(rng, nvars, trunc, 3))
        space = _space("prepare", nvars, trunc, k)
        args = shape.choice((
            space + ("-e", good + " + "),
            space + ("-e", good + " $ x1"),
            space + ("-e", f"{good} + x{nvars + 1}"),
            space + ("-e", "1/0*x1"),
            _space("prepare", nvars, trunc, nvars + 1) + ("-e", good),
            ("holo", "--trunc", str(trunc), "--coeffs", "0,0,one"),
            ("no-such-command", "--trunc", str(trunc)),
            space,
        ))
        return CliCase(kind, args)
    if kind == "flat":
        f = inputs.flat_terms(rng, nvars, trunc, k, 4)
        space = _space(shape.choice(("prepare", "divide", "semigroup")),
                       nvars, trunc, k)
        if space[0] == "divide":
            g = inputs.random_terms(rng, nvars, trunc, 4)
            args = space + ("-g", inputs.render(g), "-f", inputs.render(f))
        else:
            args = space + ("-e", inputs.render(f))
        return CliCase(kind, args)
    if kind in ("nest", "deep-nest"):
        # the parser recurses a few frames per parenthesis; at this commit
        # depths of 300 and more escape as RecursionError
        depth = (shape.randint(5, 200) if kind == "nest"
                 else shape.randint(300, 2000))
        f = inputs.random_terms(rng, nvars, trunc, 4)
        text = "(" * depth + inputs.render(f) + ")" * depth
        return CliCase(kind, _space("split", nvars, trunc, k)
                       + ("-e", text, "--json"), dict(expect, f=f))
    raise ValueError(f"unknown CLI input kind {kind!r}")


def _series_dicts(doc):
    """Every serialized series inside a CLI JSON document."""
    if isinstance(doc, dict):
        if "terms" in doc and "guaranteed_degree" in doc:
            yield doc
        else:
            for value in doc.values():
                yield from _series_dicts(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _series_dicts(value)


def run_child(argv: list, env: dict, cwd: Path) -> CliRun:
    """Run ``argv`` to completion; returns its exit code, output, peak
    resident set size and CPU time (from the child's own rusage)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = perf_counter() + CHILD_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - perf_counter()
            if left <= 0:
                proc.kill()
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    for pipe in chunks:
        pipe.close()
    out, err = (b"".join(chunks[p]).decode() for p in (proc.stdout, proc.stderr))
    return CliRun(proc.returncode, out, err, usage.ru_maxrss,
                  usage.ru_utime + usage.ru_stime)


class Cli:
    name = "cli"

    def __init__(self, seed: int, small: bool = False):
        shape = random.Random("cli:shapes")
        rng = random.Random(f"cli:{seed}")
        self.pool = [_cli_case(shape, rng, kind, size)
                     for _ in range(1 if small else CLI_CYCLES)
                     for kind, size in CLI_CYCLE]
        self.probes = [_cli_case(shape, rng, "deep-nest", None)
                       for _ in range(1 if small else CLI_PROBES)]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def argv(self, case) -> list:
        return [sys.executable, "-m", "wseries.cli", *case.args]

    def warm_up(self):
        self.in_process(self.pool[0])

    def call(self, case) -> CliRun:
        return run_child(self.argv(case), self.env, SRC.parent)

    def in_process(self, case):
        """Run the same argv through ``cli.main`` in this process."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(case.args))
            except RecursionError:
                code = 1
        return code

    def check(self, case, run: CliRun) -> str | None:
        if "Traceback" in run.stderr:
            if (case.kind in ("nest", "deep-nest") and run.code == 1
                    and "RecursionError" in run.stderr):
                return KNOWN_ESCAPE
            return f"uncaught exception, exit {run.code}"
        want = {"malformed": (2,), "flat": (3,),
                "nest": (0, 2), "deep-nest": (0, 2)}.get(case.kind, (0,))
        if run.code not in want:
            return f"exit code {run.code}, want one of {want}"
        if run.code != 0 or case.kind in ("malformed", "flat"):
            return None
        try:
            doc = json.loads(run.stdout)
        except ValueError:
            return "stdout is not JSON"
        return _check_cli_doc(case, doc)

    def outputs(self, case, run: CliRun) -> list:
        if run.code != 0 or "--json" not in case.args:
            return []
        return [Series.from_dict(s) for s in _series_dicts(json.loads(run.stdout))]


def _check_cli_doc(case: CliCase, doc: dict) -> str | None:
    e = case.expect
    res = doc["result"]
    load = Series.from_dict
    if case.kind == "holo":
        h = Series(1, e["trunc"], e["h"])
        norm = load(doc["normalized"])
        high = {x: c for x, c in h.terms.items() if x[0] > 3}
        return first_failure(
            ({x: c for x, c in norm.terms.items() if x[0] > 3} == high,
             "normalized series changed degrees above 3"),
            (all(norm.coefficient((j,)) == w
                 for j, w in ((0, 0), (1, 0), (2, 1), (3, 1))),
             "normalized series lacks the x^2 + x^3 profile"),
        ) or check_extension(norm, load(res["u"]), load(res["v"]),
                             res["guaranteed_degree"],
                             doc["cauchy_riemann"]["passed"])
    if case.kind == "cr-check":
        r1, r2 = load(res["residual1"]), load(res["residual2"])
        deg = res["checked_degree"]
        return first_failure(
            (deg == e["trunc"] - 1, f"checked degree {deg}"),
            (res["passed"], "Cauchy-Riemann check of a complexification failed"),
            (vanishes_through(r1, deg) and vanishes_through(r2, deg),
             "nonzero Cauchy-Riemann residual"))
    nvars, trunc, k = e["nvars"], e["trunc"], e["k"]
    f = Series(nvars, trunc, e["f"])
    if case.kind in ("prepare", "semigroup"):
        prep = res if case.kind == "prepare" else doc["preparation"]
        failure = check_preparation(
            f, k, e["d"], load(prep["unit"]), prep["poly"]["d"],
            load(prep["poly_expanded"]), prep["guaranteed_degree"], trunc)
        if failure or case.kind == "prepare":
            return failure
        shift = [e["d"] if i == k - 1 else 0 for i in range(nvars)]
        for c in res["checks"]:
            total = [sum(col) for col in zip(*c["witness"])] if c["member"] else None
            if total != [a + c["shifts"] * s for a, s in zip(c["exponent"], shift)]:
                return f"no valid shifted witness for {c['exponent']}"
        return None
    if case.kind == "divide":
        return check_division(Series(nvars, trunc, e["g"]), f, k, e["d"],
                              load(res["quotient"]), load(res["remainder"]),
                              res["guaranteed_degree"], trunc)
    if case.kind == "implicit":
        phi = load(res["solution"])
        xs = [Series.variable(i, nvars - 1, trunc) for i in range(1, nvars)]
        back = f.compose(xs[:k - 1] + [phi] + xs[k - 1:])
        return first_failure(
            (phi.guaranteed_degree == trunc, "implicit certificate shrank"),
            (vanishes_through(back, trunc), "f(x', phi) != 0"))
    if case.kind in ("split", "nest", "deep-nest"):
        g0, g1 = load(res["g0"]), load(res["g1"])
        return first_failure(
            ({**g0.terms, **g1.terms} == f.terms
             and not set(g0.terms) & set(g1.terms), "g0 + g1 != f"),
            (all(x[k - 1] % 2 == 0 for x in g0.terms)
             and all(x[k - 1] % 2 == 1 for x in g1.terms), "parity split wrong"))
    if case.kind == "lemma":
        gd = res["guaranteed_degree"]
        split = pipelines.SquareSplit(load(res["f0"]), load(res["f1"]), gd)
        return first_failure(
            (gd == trunc - 4, f"lemma certificate {gd}, want {trunc - 4}"),
            (agree_through(pipelines.reconstruct_split(split, k), f, gd),
             "f0(x', x_k^2) + x_k*f1(x', x_k^2) != f"))
    raise ValueError(f"unknown CLI input kind {case.kind!r}")


WORKLOADS = {w.name: w for w in (Holo, Divide, Cli)}


def setup(name: str, seed: int, small: bool = False):
    """Generate a workload's inputs and warm it up; the benchmark's set-up."""
    workload = WORKLOADS[name](seed, small)
    workload.warm_up()
    return workload
