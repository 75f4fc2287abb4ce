import contextlib
import io
import json
import os
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbcert import analyzer, cli, poly, published, recursion
from scbcert.arith import ArithmeticDomainError, IntervalScalar, Sign
from scbcert.methods import Method, catalog, char_poly_mu
from scbcert.recursion import (
    MultipleRootError,
    closed_form,
    eval_mu,
    eval_mu_interval,
    eval_tau,
    first_negative_mu,
    mu_gamma_numerators,
    mu_prefix,
    mu_signs,
    rational_closed_form,
    run_mu_signs,
    tail_certificate,
    tau_prefix,
)

ALL_NAMES = (
    "ab1", "ab2", "ab3", "ab4",
    "bdf1", "bdf2", "bdf3", "bdf4", "bdf5", "bdf6",
    "ebdf3", "ebdf4", "ebdf5",
)


def window_cases(rng, per_kind):
    """Seeded (kind, method, gamma) triples: b0 = 0 at gamma > 0; a zero
    characteristic root at gamma > 0, forced by a_k = gamma*b_k; and gamma = 0
    with a_k = 0 and rho(1) = 0, so that the root at 1 stays while the
    closed form starts past n = 0."""
    out = []
    for kind in ("b0 = 0", "zero root", "tau"):
        for _ in range(per_kind):
            k = rng.randint(2, 4)
            a = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k)]
            b = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(k + 1)]
            g = F(rng.randint(1, 20), rng.randint(1, 10))
            if kind == "b0 = 0":
                b[0] = F(0)
            elif kind == "zero root":
                a[-1] = g * b[-1]
            else:
                g = F(0)
                a[-1] = F(0)
                a[0] = 1 - sum(a[1:])
            out.append((kind, Method(k, tuple(a), tuple(b)), g))
    return out


class TestExactEvaluation:
    def test_mu_examples(self):
        assert eval_mu(catalog("bdf1"), F(1), 2) == F(1, 8)
        assert eval_mu(catalog("bdf2"), F(1, 2), 3) == F(1, 4)
        assert eval_mu(catalog("ab2"), F(4, 9), 1) == F(3, 2)

    def test_tau_examples(self):
        assert eval_tau(catalog("ebdf3"), 3) == F(1212, 1331)
        assert eval_tau(catalog("ebdf4"), 4) == F(366516, 390625)
        assert eval_tau(catalog("bdf2"), -5) == 0
        assert eval_mu(catalog("bdf2"), F(1, 3), -2) == 0

    def test_mu_at_zero_equals_tau(self):
        for name in ALL_NAMES:
            m = catalog(name)
            assert mu_prefix(m, F(0), 200) == tau_prefix(m, 200)

    def test_ab1_tau_constant_one(self):
        taus = tau_prefix(catalog("ab1"), 5)
        assert taus == [F(0), F(1), F(1), F(1), F(1), F(1)]

    def test_bdf1_closed_form(self):
        rng = random.Random(3)
        m = catalog("bdf1")
        for _ in range(100):
            g = F(rng.randint(1, 1000), rng.randint(1, 1000))
            mus = mu_prefix(m, g, 50)
            for n in range(51):
                assert mus[n] == 1 / (g + 1) ** (n + 1)

    def test_bdf2_half_closed_form(self):
        mus = mu_prefix(catalog("bdf2"), F(1, 2), 120)
        for n in range(121):
            assert mus[n] == F(n + 1, 2 ** (n + 1))

    def test_ab2_four_ninths_closed_form(self):
        mus = mu_prefix(catalog("ab2"), F(4, 9), 60)
        for n in range(1, 61):
            assert mus[n] == F(3) ** (1 - n) * (2**n - 4 * (-1) ** n) / 4

    def test_first_negative_matches_fraction_prefix(self):
        rng = random.Random(5)
        # b0 < 0 makes 1 + gamma*b0 negative for gamma > 3: alternating scale
        custom = Method(2, (F(1, 2), F(1, 2)), (F(-1, 3), F(1, 5), F(1, 7)))
        cases = [(catalog(name), F(rng.randint(1, 3000), rng.randint(1, 1000)))
                 for name in ALL_NAMES for _ in range(6)]
        cases += [(custom, F(i, 4)) for i in range(1, 50) if i != 12]
        for m, g in cases:
            mus = mu_prefix(m, g, 60)
            expected = next((n for n in range(1, 61) if mus[n] < 0), None)
            assert first_negative_mu(m, g, 60) == expected, (m.name, g)

    def test_first_negative_bdf4_published_witness(self):
        data = published.BDF4_WITNESS_RUN
        n = first_negative_mu(catalog("bdf4"), data["gamma"], data["horizon"])
        assert n == data["negative_indices"][0]
        assert first_negative_mu(catalog("bdf4"), data["gamma"], n - 1) is None


def fraction_mu_prefix(m, gamma, n_max):
    """Reference: mu_0..mu_{n_max} by the recursion itself in Fraction
    arithmetic, a gcd at every step."""
    gamma = F(gamma)
    den = 1 + gamma * m.b0
    if den == 0:
        raise ArithmeticDomainError("1 + gamma*b0 vanishes")
    out = []
    for n in range(n_max + 1):
        acc = m.b[n] if n <= m.k else F(0)
        for j in range(1, min(n, m.k) + 1):
            acc += (m.a[j - 1] - gamma * m.b[j]) * out[n - j]
        out.append(acc / den)
    return out


_small_fraction = st.builds(F, st.integers(-40, 40), st.integers(1, 30))


@st.composite
def _method_and_gamma(draw):
    """A catalog method at a random gamma, or a random custom method whose
    b0 may be negative; then gamma is sometimes a multiple t/b0 of -1/b0,
    so that 1 + gamma*b0 = 1 - t is zero (t = 1) or negative (t > 1)."""
    if draw(st.booleans()):
        m = catalog(draw(st.sampled_from(ALL_NAMES)))
    else:
        k = draw(st.integers(1, 4))
        a = draw(st.lists(_small_fraction, min_size=k, max_size=k))
        b = draw(st.lists(_small_fraction, min_size=k + 1, max_size=k + 1))
        m = Method(k, tuple(a), tuple(b))
    if m.b0 < 0 and draw(st.booleans()):
        t = draw(st.sampled_from([F(1, 2), F(1), F(1), F(3, 2), F(3), F(7)]))
        return m, -t / m.b0
    return m, draw(st.builds(F, st.integers(0, 3000), st.integers(1, 1000)))


def _sign(v):
    return (v > 0) - (v < 0)


class TestIntegerScaledKernel:
    """Every exact entry point against the Fraction recursion."""

    @settings(max_examples=300, deadline=None)
    @given(_method_and_gamma(), st.integers(0, 60))
    def test_against_fraction_recursion(self, case, n_max):
        m, g = case
        taus = fraction_mu_prefix(m, 0, n_max)
        assert tau_prefix(m, n_max) == taus
        assert eval_tau(m, n_max) == taus[-1]
        assert mu_signs(m, F(0), n_max) == [_sign(v) for v in taus]
        if 1 + g * m.b0 == 0:
            for call in (mu_prefix, mu_signs, first_negative_mu, eval_mu):
                with pytest.raises(ArithmeticDomainError):
                    call(m, g, n_max)
            return
        mus = fraction_mu_prefix(m, g, n_max)
        assert mu_prefix(m, g, n_max) == mus
        assert eval_mu(m, g, n_max) == mus[-1]
        assert mu_signs(m, g, n_max) == [_sign(v) for v in mus]
        expected = next((n for n in range(1, n_max + 1) if mus[n] < 0), None)
        assert first_negative_mu(m, g, n_max) == expected

    def test_negative_scale_alternates(self):
        # b0 = -1/3 at gamma = 6: 1 + gamma*b0 = -1, so mu_n = M_n * (-1)^(n+1)
        m = Method(2, (F(1, 2), F(1, 2)), (F(-1, 3), F(1, 5), F(1, 7)))
        mus = fraction_mu_prefix(m, F(6), 40)
        assert any(v < 0 for v in mus[1:]) and any(v > 0 for v in mus[1:])
        assert mu_prefix(m, F(6), 40) == mus
        assert mu_signs(m, F(6), 40) == [_sign(v) for v in mus]

    def test_vanishing_scale_raises(self):
        m = Method(2, (F(1, 2), F(1, 2)), (F(-1, 3), F(1, 5), F(1, 7)))
        for call in (mu_prefix, mu_signs, first_negative_mu, eval_mu):
            with pytest.raises(ArithmeticDomainError):
                call(m, F(3), 5)


GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli_reports.json")


def _golden_cases():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "case",
    _golden_cases(),
    ids=lambda c: "-".join(c["argv"][:1] + c["argv"][2::2]).replace("/", "_"),
)
def test_report_matches_golden(case):
    """check and tau reports, timings aside, are byte-stable: a tail
    certificate, prefix witnesses, the order-0 zero window, the
    multiple-root rational form, complex dominance with and without its
    exact witness, and both existence verdicts."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(case["argv"])
    report = json.loads(out.getvalue())
    del report["timings"]
    assert code == case["exit"]
    assert report == case["report"]


class TestIntervalEvaluation:
    def test_containment_long_run(self):
        rng = random.Random(17)
        for name in ("bdf3", "ab2", "ebdf4"):
            m = catalog(name)
            g = F(rng.randint(1, 9), rng.randint(10, 19))
            exact = mu_prefix(m, g, 2000)
            for n, box in eval_mu_interval(m, g, 2000, 64):
                assert box.contains_fraction(exact[n])

    def test_bdf2_positive_signs(self):
        run = run_mu_signs(catalog("bdf2"), F(1, 2), 100, 64)
        assert not run.negative and not run.unknown

    def test_ab4_negative_witness(self):
        run = run_mu_signs(catalog("ab4"), F(1, 7), 2, 64)
        assert run.first_negative == 2

    def test_interval_gamma_enclosure(self):
        # a fat gamma interval still yields containing enclosures for both ends
        m = catalog("bdf2")
        g = IntervalScalar.from_fractions(F(1, 4), F(1, 3), 64)
        vals = {n: v for n, v in eval_mu_interval(m, g, 50, 64)}
        for gexact in (F(1, 4), F(7, 24), F(1, 3)):
            exact = mu_prefix(m, gexact, 50)
            for n in range(1, 51):
                assert vals[n].contains_fraction(exact[n])


class TestMemberFunctions:
    def test_ab2_numerators(self):
        nums = mu_gamma_numerators(catalog("ab2"), 2)
        # mu_2(g) = 1 - 9g/4 (explicit method: denominator is 1)
        assert nums[2] == [F(-9, 4), F(1)]

    def test_bdf3_numerator_denominator_structure(self):
        m = catalog("bdf3")
        nums = mu_gamma_numerators(m, 6)
        rng = random.Random(23)
        for _ in range(20):
            g = F(rng.randint(0, 50), rng.randint(1, 50))
            den = (1 + g * m.b0) ** 7
            assert eval_mu(m, g, 6) == poly.eval_at(nums[6], g) / den

    def test_bdf3_member_six_vanishes_at_quartic_root(self):
        # the numerator of member 6 is a positive multiple of the published
        # quartic (up to the sign-preserving normalization)
        nums = mu_gamma_numerators(catalog("bdf3"), 6)
        num6 = poly.to_integer_signed(nums[6])
        assert num6 == published.GAMMA_SUP_POLYS["bdf3"]["poly"]


class TestClosedForm:
    def test_ebdf3_tau(self):
        cf = closed_form(catalog("ebdf3"), F(0), 64)
        assert cf.order == 3 and cf.window_start == 1
        reals = [r for r in cf.roots if not r.is_pair]
        pairs = [r for r in cf.roots if r.is_pair]
        assert len(reals) == 1 and reals[0].exact == 1
        assert len(pairs) == 1
        assert pairs[0].box.re.contains_fraction(F(7, 22))
        assert pairs[0].box.modulus().pow_int(2).contains_fraction(F(2, 11))
        for c in cf.coeffs:
            assert c.re.contains_fraction(1) and c.im.contains_fraction(0)

    def test_limit_coefficient_is_one(self):
        # the coefficient of the root at 1 is the residue sigma(1)/rho'(1) = 1,
        # kept exact: the point box [1, 1]
        for name in ALL_NAMES:
            m = catalog(name)
            try:
                cf = closed_form(m, F(0), 64)
            except MultipleRootError:
                continue
            one_idx = next(
                i for i, r in enumerate(cf.roots) if not r.is_pair and r.exact == 1
            )
            c = cf.coeffs[one_idx]
            assert (c.re.lo_fraction(), c.re.hi_fraction()) == (1, 1), name
            assert (c.im.lo_fraction(), c.im.hi_fraction()) == (0, 0), name

    def test_reconstruction_contains_exact(self):
        rng = random.Random(31)
        for name in ("bdf2", "bdf4", "ab3", "ebdf5"):
            m = catalog(name)
            g = F(rng.randint(1, 5), rng.randint(6, 12))
            cf = closed_form(m, g, 64)
            exact = mu_prefix(m, g, 300)
            for n in range(cf.window_start, 301):
                assert cf.reconstruct(n).contains_fraction(exact[n]), (name, n)
        # custom methods whose closed form starts past n = 0 or drops zero
        # characteristic roots
        checked = Counter()
        for kind, m, g in window_cases(random.Random(37), 8):
            try:
                cf = closed_form(m, g, 64)
            except MultipleRootError:
                continue
            if kind != "b0 = 0":
                assert cf.window_start > 0 and cf.order < m.k, (kind, m, g)
            exact = mu_prefix(m, g, cf.window_start + 40)
            for n in range(cf.window_start, cf.window_start + 41):
                assert cf.reconstruct(n).contains_fraction(exact[n]), (kind, m, g, n)
            checked[kind] += 1
        assert min(checked.values()) >= 6 and len(checked) == 3, checked

    def test_multiple_root_detection(self):
        with pytest.raises(MultipleRootError):
            closed_form(catalog("bdf2"), F(1, 2), 64)
        with pytest.raises(MultipleRootError):
            closed_form(catalog("bdf4"), F(7, 12), 64)

    def test_degenerate_order_zero(self):
        cf = closed_form(catalog("ab1"), F(1), 64)
        assert cf.order == 0 and cf.window_start == 2
        assert eval_mu(catalog("ab1"), F(1), 5) == 0

    def test_algebraic_gamma_bdf3(self):
        gstar = poly.isolate_real_roots(published.GAMMA_SUP_POLYS["bdf3"]["poly"])[0]
        cf = closed_form(catalog("bdf3"), gstar, 80)
        reals = [
            (r, c) for r, c in zip(cf.roots, cf.coeffs) if not r.is_pair
        ]
        assert len(reals) == 1
        root, coeff = reals[0]
        assert root.box.re.lo_fraction() <= F("0.500519")
        assert root.box.re.hi_fraction() >= F("0.500518")
        assert coeff.re.lo_fraction() <= F("0.50155510")
        assert coeff.re.hi_fraction() >= F("0.50155509")

    def test_interval_path_matches_exact_path(self):
        # gamma = p/q given as the isolated root of q*x - p goes through the
        # interval-coefficient root certifier; it must find the same root
        # classes as the exact-coefficient path at p/q, with intersecting
        # root and coefficient boxes
        rng = random.Random(61)
        compared = 0
        for name in ALL_NAMES:
            m = catalog(name)
            disc = poly.to_integer(recursion.char_discriminant_gamma_poly(m))
            for _ in range(3):
                g = F(rng.randint(1, 3 * 10**5), rng.randint(10**5, 2 * 10**5))
                char = char_poly_mu(m, g)
                if poly.sign_at_fraction(disc, g) == 0 or char[-1] == 0:
                    continue  # multiple root, or a root at zero
                exact = closed_form(m, g, 64)
                enc = poly.isolate_real_roots([g.denominator, -g.numerator])[0]
                approx = closed_form(m, enc, 64)
                assert (approx.order, approx.window_start) == (exact.order, exact.window_start)
                for is_pair in (False, True):
                    assert sum(r.is_pair is is_pair for r in approx.roots) == sum(
                        r.is_pair is is_pair for r in exact.roots
                    ), (name, g)
                for r, c in zip(exact.roots, exact.coeffs):
                    hits = [
                        i
                        for i, a in enumerate(approx.roots)
                        if a.is_pair is r.is_pair and a.box.intersects(r.box)
                    ]
                    assert len(hits) == 1, (name, g)
                    assert approx.coeffs[hits[0]].intersects(c), (name, g)
                compared += 1
        assert compared >= 36


class TestTailCertificate:
    def test_ebdf3(self):
        cf = closed_form(catalog("ebdf3"), F(0), 64)
        tc = tail_certificate(cf)
        assert tc.n_start == 1
        assert tc.residual_at_start <= F(9, 10)

    def test_ebdf5_finite_checks(self):
        cf = closed_form(catalog("ebdf5"), F(0), 64)
        tc = tail_certificate(cf)
        assert tc.n_start <= 5
        assert tc.residual_at_start <= F(9, 10)
        taus = tau_prefix(catalog("ebdf5"), tc.n_start)
        assert all(taus[n] > 0 for n in range(1, tc.n_start + 1))

    def test_bdf3_near_optimum(self):
        g = F("0.83126")
        cf = closed_form(catalog("bdf3"), g, 64)
        tc = tail_certificate(cf)
        assert tc is not None
        assert tc.n_start <= 93
        mus = mu_prefix(catalog("bdf3"), g, tc.n_start)
        assert all(v >= 0 for v in mus)

    def test_residual_decreases(self):
        cf = closed_form(catalog("ebdf4"), F(0), 64)
        tc = tail_certificate(cf)
        assert tc.residual(tc.n_start + 1) < tc.residual(tc.n_start)
        assert tc.residual(tc.n_start) < tc.dominant_coeff_lb

    def test_complex_dominant_returns_none(self):
        cf = closed_form(catalog("bdf2"), F(6, 10), 64)
        assert tail_certificate(cf) is None


class TestAtAlgebraicOptimum:
    def test_bdf3_member_92_positive_member_6_zero(self):
        quartic = published.GAMMA_SUP_POLYS["bdf3"]["poly"]
        gstar = poly.isolate_real_roots(quartic)[0]
        m = catalog("bdf3")
        # member 6 vanishes exactly at the optimum: its numerator is a
        # multiple of the defining quartic
        nums = mu_gamma_numerators(m, 6)
        num6 = poly.to_integer(nums[6])
        assert poly.divmod_exact(
            [F(c) for c in num6], [F(c) for c in quartic]
        )[1] == []
        # all other members up to 92 are strictly positive there; 92 is tiny
        gi = gstar.refined(F(1, 10**80))
        vals = {n: v for n, v in eval_mu_interval(m, gi.interval(120), 92, 120)}
        for n in range(1, 93):
            if n == 6:
                assert vals[n].contains_fraction(0)
            else:
                assert vals[n].sign() is Sign.POSITIVE, n
        assert vals[92].contains_fraction(F("1.585176e-28")) or (
            vals[92].lo_fraction() < F("1.585177e-28")
            and vals[92].hi_fraction() > F("1.585176e-28")
        )


class TestGammaDiscriminant:
    def test_bdf4_multiple_roots_only_at_7_12(self):
        disc = recursion.char_discriminant_gamma_poly(catalog("bdf4"))
        assert poly.eval_at(disc, F(7, 12)) == 0
        # ... and that is the only vanishing point on the positive axis
        roots = poly.isolate_real_roots(poly.to_integer(disc))
        positive = []
        for e in roots:
            if e.hi <= 0:
                continue
            if poly.sign_at_fraction(list(e.poly), F(0)) == 0 and e.contains(F(0)):
                continue  # the enclosed root is zero itself
            if e.lo <= 0:
                e = poly.refine_away_from_zero(e)
                if e.hi <= 0:
                    continue
            positive.append(e)
        assert len(positive) == 1
        assert positive[0].contains(F(7, 12))

    def test_bdf2_multiple_roots_at_half(self):
        disc = recursion.char_discriminant_gamma_poly(catalog("bdf2"))
        assert poly.eval_at(disc, F(1, 2)) == 0
        assert poly.eval_at(disc, F(1, 3)) != 0

    def test_matches_pointwise_discriminant(self):
        import random as _r

        rng = _r.Random(4)
        for name in ("bdf3", "ab2"):
            m = catalog(name)
            disc = recursion.char_discriminant_gamma_poly(m)
            for _ in range(10):
                g = F(rng.randint(0, 40), rng.randint(1, 9))
                from scbcert.methods import char_poly_mu

                assert poly.eval_at(disc, g) == poly.discriminant(char_poly_mu(m, g))


class TestSequenceCsv:
    def test_tau_rows(self):
        rows = recursion.prefix_csv_rows(recursion.tau_prefix(catalog("ebdf3"), 3))
        assert rows == [
            "n,value,sign",
            "1,18/11,positive",
            "2,126/121,positive",
            "3,1212/1331,positive",
        ]

    def test_mu_rows_signs(self):
        rows = recursion.prefix_csv_rows(recursion.mu_prefix(catalog("ab4"), F(1, 10), 2))
        assert rows[2].endswith(",negative")


class TestRationalClosedForm:
    def test_bdf2_double_root(self):
        form = rational_closed_form(catalog("bdf2"), F(1, 2))
        assert form is not None
        assert form.all_terms_nonnegative()
        assert len(form.parts) == 1
        rho, coeffs = form.parts[0]
        assert rho == F(1, 2)
        for n in range(form.window_start, 40):
            assert form.value(n) == F(n + 1, 2 ** (n + 1))

    @pytest.mark.parametrize("r", [F(5040, 508079), F(55440, 1255501)])
    def test_double_root_large_denominator(self, r):
        # chi = 2 (z - r)^2 at gamma = 1, so mu_n = (n + 1)/2 r^n
        m = Method(2, (4 * r, -2 * r * r), (1, 0, 0))
        start = time.perf_counter()
        v = analyzer.check_scb(m, F(1))
        assert time.perf_counter() - start < 1
        assert v.status is analyzer.Feasibility.FEASIBLE
        form = v.evidence.exact_form
        assert form is not None
        assert form.parts == ((r, (F(1, 2), F(1, 2))),)

    def test_ab1_at_one(self):
        form = rational_closed_form(catalog("ab1"), F(1))
        assert form is not None and form.parts == ()

    def test_irrational_roots_give_none(self):
        assert rational_closed_form(catalog("bdf3"), F(1, 3)) is None
