"""Square descent, support-semigroup reports, and the holomorphic
extension with its Cauchy-Riemann verification."""

import contextlib
import random
import signal

import pytest

from support import (S, agree_through, descent_polynomials, embedded,
                     exported, halved, halves, identical, in_key_order,
                     naive_member, over_variable, random_lemma_input,
                     random_normalized_h, random_order_d, random_series,
                     square_window, truncated, witness_is_valid)
from wseries import (InternalInvariantError, PreconditionError, Series,
                     cauchy_riemann_check, check_membership,
                     direct_complexification, even_odd_split,
                     holomorphic_extension,
                     normalize_cubic, reconstruct_split, semigroup_check,
                     series, split_square, weierstrass_prepare)
from wseries import weierstrass as wmod
from wseries.pipelines import ComplexExtension


# ----------------------------------------------------------------------
# square descent
# ----------------------------------------------------------------------

def test_descent_of_expanded_binomial():
    f = S("(x1+x2)^2 + (x1+x2)^3", 2, 12)
    sp = split_square(f, 2)
    # last variable is the squared slot
    assert sp.f0.same_data(S("x2 + x1^2 + 3*x1*x2 + x1^3", 2, 12))
    assert sp.f1.same_data(S("2*x1 + x2 + 3*x1^2", 2, 12))
    assert sp.guaranteed_degree == 8


def test_descent_of_profile_only_series():
    sp = split_square(S("x2^2 + x2^3", 2, 12), 2)
    assert sp.f0.same_data(S("x2", 2, 12))
    assert sp.f1.same_data(S("x2", 2, 12))


def test_descent_preconditions():
    with pytest.raises(PreconditionError):
        split_square(S("x2^2", 2, 8), 2)  # no cube term
    with pytest.raises(PreconditionError):
        split_square(S("x2 + x2^2 + x2^3", 2, 8), 2)
    with pytest.raises(PreconditionError):
        split_square(S("2*x2^2 + x2^3", 2, 8), 2)
    with pytest.raises(PreconditionError):
        split_square(S("x2^2 + x2^3", 2, 3), 2)


def test_descent_reconstruction_and_oracle_random():
    rng = random.Random(83)
    for _ in range(10):
        nvars = rng.choice((2, 3))
        f = random_lemma_input(rng, nvars, 12, nvars, nterms=6)
        sp = split_square(f, nvars)
        assert in_key_order(sp.f0) and in_key_order(sp.f1), f
        diff = reconstruct_split(sp, nvars) - f
        assert diff.vanishes_through(8)
        g0, g1 = even_odd_split(f, nvars)
        oracle0 = halved(g0, nvars)
        oracle1 = halved(over_variable(g1, nvars), nvars)
        assert square_window(sp.f0, 8) == square_window(oracle0, 8)
        assert square_window(sp.f1, 8) == square_window(oracle1, 8)


def test_descent_in_a_middle_variable():
    f = S("(x1+x2)^2 + (x1+x2)^3", 2, 12)
    sp = split_square(f, 1)
    rec = reconstruct_split(sp, 1)
    assert (rec - f).vanishes_through(8)
    f = random_lemma_input(random.Random(85), 3, 10, 2, nterms=6)
    sp = split_square(f, 2)
    assert (reconstruct_split(sp, 2) - f).vanishes_through(6)
    for k in (0, 4):
        with pytest.raises(ValueError, match="out of range 1..3"):
            reconstruct_split(sp, k)


def test_descent_flags_surviving_odd_coefficient(monkeypatch):
    import wseries.pipelines as pmod
    real = pmod._distinguished

    def fake_distinguished(F, k):
        # the loop of F + x1*x_k, which is not even in x_k: a1 survives
        keys, table, gd = F
        F = keys.series([table], gd)
        odd = tuple(int(i in (0, k - 1)) for i in range(F.nvars))
        return real(series._packed(F + Series.monomial(odd, F.nvars,
                                                       F.trunc)), k)

    monkeypatch.setattr(pmod, "_distinguished", fake_distinguished)
    with pytest.raises(InternalInvariantError):
        split_square(S("x2^2 + x2^3", 2, 8), 2)


def test_halves_send_each_term_to_its_half_on_keys():
    f = S("(x1+x2)^2 + (x1+x2)^3", 2, 6).with_guarantee(5)
    F0, F1 = halves(f, 2, 2, 5)
    assert F0.same_data(S("x1^2 + x2^2 + x1^3 + 3*x1*x2^2 - x3^2", 3, 6))
    assert F1.same_data(S("2*x1 + 3*x1^2 + x2^2 - x3", 3, 5))
    assert [(F.trunc, F.guaranteed_degree) for F in (F0, F1)] == [(6, 5),
                                                                  (5, 4)]
    F0, F1 = halves(S("x1*x2 + 2*x2 + x1^2", 2, 6), 1, 1, 6)
    assert F0.same_data(S("2*x2 + x1^2 - x3", 3, 6))
    assert F1.same_data(S("x2 - x3", 3, 6))


def test_halves_match_the_parity_split_oracles():
    """Each half formed on keys is the parity split's half, divided by
    ``x_k`` when odd, with ``t`` adjoined last and ``t^weight`` (``t``
    for the odd half) subtracted, truncated at its own truncation: table,
    truncation and certificate alike, and listed in key order once
    decoded.  Both halves' keys keep the radix of ``f``'s, though the odd
    half may sit one truncation lower.  ``F1`` times ``x_k`` gives back
    the odd part exactly, through ``F1``'s truncation."""
    rng = random.Random(3301)
    for _ in range(60):
        nvars, trunc = rng.randint(1, 3), rng.randint(2, 9)
        k, weight = rng.randint(1, nvars), rng.choice((1, 2))
        odd_trunc = trunc - rng.randint(0, 1)
        f = random_series(rng, nvars, trunc, nterms=12).with_guarantee(
            rng.randint(-1, trunc))
        g0, g1 = even_odd_split(f, k)
        t = Series.variable(nvars + 1, nvars + 1, trunc)
        packed = series._packed(f)
        formed = series._halves(packed, k, weight, odd_trunc)
        assert [keys.radix for keys, _, _ in formed] == [packed[0].radix] * 2
        F0, F1 = (keys.series([table], gd) for keys, table, gd in formed)
        assert identical(F0, embedded(g0, nvars + 1) - t ** weight), f
        assert identical(F1, truncated(
            embedded(over_variable(g1, k), nvars + 1) - t, odd_trunc)), f
        assert in_key_order(F0) and in_key_order(F1)
        xk = Series.variable(k, nvars + 1, trunc)
        assert ((F1 + t) * xk).same_data(
            truncated(embedded(g1, nvars + 1), odd_trunc)), f


def _descent_loop(text):
    """The packed remainder and keys of the loop that divides ``x2^2`` by
    ``F`` in ``(x1, x2, t)``, ``P = x2^2 + a2(x1, t)``."""
    keys, table, gd = series._packed(S(text, 3, 8))
    k, d, (_, rem, _) = wmod._distinguished((keys, table, gd), 2)
    assert (k, d) == (2, 2)
    return rem, keys


def test_square_parts_refuse_an_odd_t_exponent_at_weight_2():
    # a2 = t^2 + x1*t: t^2 is the linear coefficient at weight 2, and
    # x1*t cannot be halved
    rem, keys = _descent_loop("x2^2 + x3^2 + x1*x3")
    with pytest.raises(PreconditionError, match="odd t exponent 1"):
        series._square_parts(rem, keys, 2, 2, Series.variable(2, 3, 8))


def test_square_parts_refuse_a_zero_linear_coefficient():
    # a2 = t^2 + x1*t has no x1-free t term: at weight 1, c = 0
    rem, keys = _descent_loop("x2^2 + x3^2 + x1*x3")
    with pytest.raises(PreconditionError, match="linear coefficient"):
        series._square_parts(rem, keys, 2, 1, Series.variable(2, 3, 8))
    # a2 = x1 + t has the linear coefficient 1, but a constant term of
    # square leaves no root at the origin
    rem, keys = _descent_loop("x2^2 + x3 + x1")
    with pytest.raises(PreconditionError, match="root at the origin"):
        series._square_parts(rem, keys, 2, 1, S("1 + x2", 3, 8))


def test_descent_polynomial_is_the_preparations():
    # the descent decodes no P and builds no unit; the P of its own loop
    # must be the very P that weierstrass_prepare returns, table and
    # certificate
    cases = [(holomorphic_extension, S("x1^2 + x1^3", 1, 12))]
    rng = random.Random(71)
    for i in range(12):
        nvars, trunc = 1 + i % 3, 4 + i % 5
        f = random_lemma_input(rng, nvars, trunc, nvars, nterms=5)
        if i % 2:
            f = f.with_guarantee(rng.randint(3, trunc - 1))
        cases.append((split_square, f, nvars))
    for run, *args in cases:
        _, pairs = descent_polynomials(run, *args)
        assert len(pairs) == 2
        for F, P in pairs:
            want = weierstrass_prepare(F, P.k).poly
            assert (P.d, P.k, P.nvars, P.trunc) == \
                (want.d, want.k, want.nvars, want.trunc)
            for a, b in zip(P.coeffs, want.coeffs, strict=True):
                assert a.same_data(b), (F, P)
                assert a.guaranteed_degree == b.guaranteed_degree


def test_descent_certificate_follows_the_input():
    f = S("x2^2 + x2^3 + x1*x2^2 - 2*x1^3", 2, 12)
    assert split_square(f, 2).guaranteed_degree == 8
    sp = split_square(f.with_guarantee(5), 2)
    assert sp.guaranteed_degree == 1
    assert sp.f0.guaranteed_degree == sp.f1.guaranteed_degree == 1
    assert split_square(f.with_guarantee(3), 2).guaranteed_degree == -1


def test_split_serialization():
    sp = split_square(S("x2^2 + x2^3", 2, 8), 2)
    doc = exported(sp, ["guaranteed_degree", "f0", "f1"])
    assert doc["guaranteed_degree"] == 4
    assert doc["f0"]["nvars"] == 2
    assert doc["f0"] == sp.f0.to_dict() and doc["f1"] == sp.f1.to_dict()


# ----------------------------------------------------------------------
# support semigroup
# ----------------------------------------------------------------------

def test_membership_examples():
    checks = check_membership([(2, 2)], [(1, 0), (0, 2)])
    assert checks[0].member
    assert checks[0].witness == ((1, 0), (1, 0), (0, 2))
    checks = check_membership([(0, 1)], [(1, 0), (0, 2)])
    assert not checks[0].member and checks[0].witness is None
    assert check_membership([], [(1, 0), (0, 2)]) == ()


@pytest.mark.parametrize("targets, generators", [
    ([(1, 0)], [(1,), (0, 1)]),
    ([(1, 0), (2,)], [(1, 0)]),
])
def test_membership_rejects_exponents_of_another_length(targets, generators):
    with pytest.raises(ValueError, match="wrong length for nvars=2"):
        check_membership(targets, generators)


def test_membership_checks_the_length_of_the_shift():
    # ``zip`` would drop the missing coordinate of a short shift
    assert check_membership([(0, 1)], [(1, 1)], cap=2,
                            shift_expo=(1, 0))[0].member
    for shift in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="wrong length for nvars=2"):
            check_membership([(0, 1)], [(1, 1)], cap=2, shift_expo=shift)


@pytest.mark.parametrize("targets, generators", [
    ([(1, -1)], [(1, 0)]),
    ([(1, -1)], [(1, -1)]),
    ([(1, 0)], [(2, -1), (-1, 1)]),
])
def test_membership_rejects_a_negative_target_or_generator(targets,
                                                           generators):
    # a target that is itself a generator used to read member=False
    with pytest.raises(ValueError, match="negative entry"):
        check_membership(targets, generators)


def test_membership_rejects_a_non_integral_target():
    # a fractional target used to read member=False
    with pytest.raises(ValueError, match="is not integral"):
        check_membership([(1.5, 0)], [(1, 0)])
    (check,) = check_membership([(1.0, 0)], [(1, 0)])
    assert check.member and check.exponent == (1, 0)


def test_membership_cap_is_a_size_never_below_the_targets():
    # a cap below the largest target degree used to call a generator a
    # non-member, and a fractional cap was taken
    for cap in (None, 0, 1, 1.0):
        (check,) = check_membership([(1, 0)], [(1, 0)], cap=cap)
        assert check.member and check.witness == ((1, 0),)
    for cap, message in [(2.5, "cap 2.5 is not integral"),
                         (-1, "cap must be nonnegative")]:
        with pytest.raises(ValueError) as err:
            check_membership([(1, 0)], [(1, 0)], cap=cap)
        assert str(err.value) == message


@contextlib.contextmanager
def cpu_second(what):
    """A 1 s CPU alarm that turns a hang of ``what`` into a failure."""
    def hang(signum, frame):
        raise TimeoutError(f"{what} did not return")

    previous = signal.signal(signal.SIGPROF, hang)
    signal.setitimer(signal.ITIMER_PROF, 1)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def test_membership_rejects_a_negative_shift_at_once():
    # adding a negative shift has no degree cap, so the closure would not
    # end
    with cpu_second("check_membership"):
        for shift in ((-1, 0), (2, -1)):
            with pytest.raises(ValueError, match="negative entry"):
                check_membership([(0, 1)], [(1, 1)], cap=2, shift_expo=shift)


def test_membership_cross_checked_against_naive_oracle():
    rng = random.Random(89)
    for _ in range(10):
        f = random_order_d(rng, 2, 8, 2, rng.randint(1, 2), nterms=6)
        prep = weierstrass_prepare(f, 2)
        report = semigroup_check(prep.poly, f)
        gens = list(report.generators)
        for check in report.checks:
            assert check.member == naive_member(check.exponent, gens)
            assert witness_is_valid(check)


def test_strict_containment_fails_on_descent_preparation():
    # the first preparation of the binomial descent has a stray exponent:
    # the polynomial's support is NOT inside the plain generator semigroup
    f = S("x1^2 + x1^3", 1, 12).compose([S("x1 + x2", 2, 12)])
    _, pairs = descent_polynomials(split_square, f, 2)
    F, P = pairs[0]
    report = semigroup_check(P, F)
    assert not report.all_member
    assert [c.exponent for c in report.failures()] == [(1, 0, 1)]
    for check in report.checks:
        assert witness_is_valid(check)


def test_shifted_containment_holds_on_descent_preparations():
    h = S("x1^2 + x1^3", 1, 12)
    _, pairs = descent_polynomials(holomorphic_extension, h)
    assert len(pairs) == 2
    for F, P in pairs:
        report = semigroup_check(P, F, order_shift=True)
        assert report.all_member
        shift = tuple(P.d if i == P.k - 1 else 0 for i in range(F.nvars))
        for check in report.checks:
            assert witness_is_valid(check, shift)


def test_shifted_containment_is_capped_by_its_targets():
    # the closure stops at the degree a smallest witness can reach, 24
    # here (target (8, 0), X = 2, A = 0), not at the source's truncation,
    # whose box would not close inside the alarm; (2, 1) = (1, 1) + (1, 2)
    # - (0, 2) needs a shift
    f = S("x2^2 + x1*x2 + x1^3 + x1*x2^2", 2, 10)
    poly = weierstrass_prepare(f, 2).poly
    with cpu_second("semigroup_check"):
        report = semigroup_check(poly, Series(2, 100000, f.terms),
                                 order_shift=True)
    assert report.checks == semigroup_check(poly, f, order_shift=True).checks
    assert report.all_member and len(report.checks) == 14
    assert all(witness_is_valid(c, (0, 2)) for c in report.checks)
    check = next(c for c in report.checks if c.exponent == (2, 1))
    assert check.witness == ((1, 1), (1, 2)) and check.shifts == 1


def test_semigroup_check_on_unit_input():
    f = S("2 + x1 + x2", 2, 8)
    prep = weierstrass_prepare(f, 2)
    assert prep.poly.d == 0
    report = semigroup_check(prep.poly, f)
    assert report.all_member
    assert report.checks[0].exponent == (0, 0)
    assert report.checks[0].witness == ((0, 0),)


REPORT_KEYS = ["order_shift", "all_member", "generators", "checks"]
CHECK_KEYS = ["exponent", "member", "witness", "shifts"]


def test_semigroup_report_serialization():
    f = S("x2^2 + x1*x2 + x1^3 + x1*x2^2", 2, 10)
    prep = weierstrass_prepare(f, 2)
    strict = semigroup_check(prep.poly, f)
    doc = exported(strict, REPORT_KEYS)
    assert doc["order_shift"] is False
    assert doc["all_member"] is False
    assert [1, 0] in doc["generators"] or [1, 1] in doc["generators"]
    assert doc["checks"] == [exported(c, CHECK_KEYS) for c in strict.checks]
    assert {"exponent": [2, 1], "member": False, "witness": None,
            "shifts": 0} in doc["checks"]
    shifted = semigroup_check(prep.poly, f, order_shift=True)
    doc = exported(shifted, REPORT_KEYS)
    assert doc["order_shift"] is True and doc["all_member"] is True
    assert doc["checks"] == [exported(c, CHECK_KEYS) for c in shifted.checks]
    assert {"exponent": [2, 1], "member": True, "witness": [[1, 1], [1, 2]],
            "shifts": 1} in doc["checks"]


# ----------------------------------------------------------------------
# normalization
# ----------------------------------------------------------------------

def test_normalize_examples():
    h = S("x1^2 + x1^3", 1, 8)
    normalized, q = normalize_cubic(h)
    assert normalized.same_data(h) and not q.terms

    normalized, q = normalize_cubic(S("5 + 2*x1 + 3*x1^2", 1, 8))
    assert normalized == S("x1^2 + x1^3", 1, 8)
    assert q == S("-5 - 2*x1 - 2*x1^2 + x1^3", 1, 8)

    h4 = S("x1^2 + x1^3 + x1^4", 1, 8)
    normalized, q = normalize_cubic(h4)
    assert normalized.same_data(h4) and not q.terms


def test_normalize_preconditions():
    with pytest.raises(ValueError):
        normalize_cubic(S("x1 + x2", 2, 8))
    with pytest.raises(PreconditionError):
        normalize_cubic(S("x1", 1, 2))


# ----------------------------------------------------------------------
# holomorphic extension
# ----------------------------------------------------------------------

def test_extension_closed_forms():
    ext = holomorphic_extension(S("x1^2 + x1^3", 1, 12))
    assert ext.u.same_data(S("x1^2 - x2^2 + x1^3 - 3*x1*x2^2", 2, 12))
    assert ext.v.same_data(S("2*x1*x2 + 3*x1^2*x2 - x2^3", 2, 12))
    assert ext.guaranteed_degree == 8


def test_extension_restricts_to_input_on_the_axis():
    h = S("x1^2 + x1^3 - 2*x1^5", 1, 12)
    ext = holomorphic_extension(h)
    assert ext.u.coefficient_series(2, 0) == h.with_guarantee(8)
    assert not ext.v.coefficient_series(2, 0).terms


def test_extension_certificate_follows_the_input():
    h = S("x1^2 + x1^3 - 2*x1^5", 1, 12)
    assert holomorphic_extension(h).guaranteed_degree == 8
    ext = holomorphic_extension(h.with_guarantee(6))
    assert ext.guaranteed_degree == 2
    assert ext.u.guaranteed_degree == ext.v.guaranteed_degree == 2


def test_extension_requires_normalized_input():
    with pytest.raises(PreconditionError):
        holomorphic_extension(S("x1^2", 1, 8))
    with pytest.raises(PreconditionError, match="truncation below 4"):
        holomorphic_extension(Series(1, 3, {(2,): 1, (3,): 1}))
    with pytest.raises(ValueError):
        holomorphic_extension(S("x1^2 + x2", 2, 8))


def test_extension_matches_binomial_route():
    rng = random.Random(97)
    for _ in range(5):
        h = random_normalized_h(rng, 10)
        ext = holomorphic_extension(h)
        direct = direct_complexification(h)
        assert agree_through(ext.u, direct.u, ext.guaranteed_degree)
        assert agree_through(ext.v, direct.v, ext.guaranteed_degree)
        assert cauchy_riemann_check(ext).passed


def test_extension_matches_binomial_route_on_every_stored_term():
    # exact on every stored term, above the certificate too: a term of
    # a2 dropped by the weighted truncation reaches no stored degree
    rng = random.Random(101)
    for _ in range(100):
        trunc = rng.randint(4, 14)
        h = random_normalized_h(rng, trunc, density=rng.uniform(0.2, 1.0))
        h = h.with_guarantee(rng.randint(3, trunc))
        ext = holomorphic_extension(h)
        direct = direct_complexification(h)
        assert ext.u.same_data(direct.u), h
        assert ext.v.same_data(direct.v), h
        assert in_key_order(ext.u) and in_key_order(ext.v), h


def test_extension_with_the_odd_half_at_n_minus_1_matches_binomial_route():
    # the odd half descends at N - 1 and v puts one x2 on each term of its
    # solution: every stored term matches, u and v are stored at N, and
    # both carry the certificate (1, 4) of h's
    rng = random.Random(3103)
    for _ in range(200):
        trunc = rng.randint(4, 20)
        h = random_normalized_h(rng, trunc, density=rng.uniform(0.2, 1.0))
        h = h.with_guarantee(gd := rng.randint(3, trunc))
        ext = holomorphic_extension(h)
        direct = direct_complexification(h)
        assert ext.u.same_data(direct.u) and ext.v.same_data(direct.v), h
        assert ext.u.trunc == ext.v.trunc == trunc, h
        assert (ext.guaranteed_degree == ext.u.guaranteed_degree
                == ext.v.guaranteed_degree == max(gd - 4, -1)), h


def test_extension_exposes_its_preparations():
    h = S("x1^2 + x1^3", 1, 10)
    _, pairs = descent_polynomials(holomorphic_extension, h)
    assert len(pairs) == 2
    g0, g1 = even_odd_split(h.compose([S("x1 + x2", 2, 10)]), 2)
    t = Series.variable(3, 3, 10)
    wanted = (embedded(g0, 3) - t * t, embedded(over_variable(g1, 2), 3) - t)
    for (F, P), want in zip(pairs, wanted, strict=True):
        assert F.same_data(want)
        assert P.d == 2
    # v = x2 * s1 keeps s1 only through N - 1, so the odd half descends there
    assert [F.trunc for F, _ in pairs] == [10, 9]


def test_direct_complexification_examples():
    d = direct_complexification(S("x1^2", 1, 6))
    assert d.u.same_data(S("x1^2 - x2^2", 2, 6))
    assert d.v.same_data(S("2*x1*x2", 2, 6))

    d = direct_complexification(S("7", 1, 6))
    assert d.u.same_data(S("7", 2, 6)) and not d.v.terms

    d = direct_complexification(S("x1^3", 1, 6))
    assert d.u.same_data(S("x1^3 - 3*x1*x2^2", 2, 6))
    assert d.v.same_data(S("3*x1^2*x2 - x2^3", 2, 6))

    with pytest.raises(ValueError, match="expected a univariate series"):
        direct_complexification(S("x1", 2, 6))


def test_cauchy_riemann_examples():
    holo = ComplexExtension(S("x1^2 - x2^2", 2, 6), S("2*x1*x2", 2, 6), 6)
    report = cauchy_riemann_check(holo)
    assert report.passed
    assert not report.residual1.terms and not report.residual2.terms

    conjugate = ComplexExtension(S("x1", 2, 6), S("-1*x2", 2, 6), 6)
    report = cauchy_riemann_check(conjugate)
    assert not report.passed
    assert report.residual1.same_data(S("2", 2, 6))
    assert report.checked_degree == 5


def test_extension_serialization():
    ext = holomorphic_extension(S("x1^2 + x1^3", 1, 8))
    doc = exported(ext, ["guaranteed_degree", "u", "v"])
    assert doc["u"] == ext.u.to_dict() and doc["v"] == ext.v.to_dict()
    report = exported(cauchy_riemann_check(ext),
                      ["checked_degree", "passed", "residual1", "residual2"])
    assert report["passed"] is True
    assert report["checked_degree"] == ext.guaranteed_degree - 1
