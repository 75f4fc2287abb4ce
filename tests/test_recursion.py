import contextlib
import io
import json
import math
import os
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scbcert import analyzer, cli, poly, published, recursion
from scbcert.arith import ArithmeticDomainError, ComplexBox, IntervalScalar, Sign
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


def unreduced_scaled(m, gamma, n_max):
    """Reference: E and M_0..M_{n_max} of the integer recurrence with no
    content taken out, so that mu_n = Fraction(M_n, E^(n+1))."""
    gamma = F(gamma)
    p, q = gamma.numerator, gamma.denominator
    L = math.lcm(*(c.denominator for c in m.a + m.b))
    B = [int(L * c) for c in m.b]
    E = q * L + p * B[0]
    C = [q * int(L * a) - p * b for a, b in zip(m.a, B[1:])]
    M = []
    for n in range(n_max + 1):
        acc = q * B[n] * E**n if n <= m.k else 0
        for j in range(1, min(n, m.k) + 1):
            acc += C[j - 1] * E ** (j - 1) * M[n - j]
        M.append(acc)
    return E, M


@st.composite
def _small_method_and_gamma(draw):
    """A random method with small coefficients, zeros among them, and b0
    free, zero or negative; gamma is 0, random, or, for b0 < 0, past -1/b0,
    where 1 + gamma*b0 < 0."""
    k = draw(st.integers(1, 3))
    coeff = st.one_of(st.just(F(0)), _small_fraction)
    a = draw(st.lists(coeff, min_size=k, max_size=k))
    b = draw(st.lists(coeff, min_size=k + 1, max_size=k + 1))
    b[0] = draw(st.sampled_from([b[0], F(0), -abs(b[0]) or F(-1, 3)]))
    m = Method(k, tuple(a), tuple(b))
    if m.b0 < 0 and draw(st.booleans()):
        return m, -draw(st.sampled_from([F(3, 2), F(3), F(7)])) / m.b0
    if draw(st.booleans()):
        return m, F(0)
    return m, draw(st.builds(F, st.integers(0, 3000), st.integers(1, 1000)))


def _assert_canonical(v):
    assert type(v) is F
    assert v.denominator > 0 and math.gcd(v.numerator, v.denominator) == 1
    assert hash(v) == hash(F(v.numerator, v.denominator))


class TestLowestTerms:
    """Exact values are reduced against E alone and built without a second
    normalisation: they must equal Fraction(M_n, E^(n+1)) of the unreduced
    recurrence and be canonical Fractions."""

    @settings(max_examples=200, deadline=None)
    @given(_small_method_and_gamma(), st.integers(0, 40))
    @example((catalog("ab1"), F(1)), 8)  # mu_n = 0 for n >= 2
    @example((Method(2, (F(1, 2), F(1, 2)), (F(-1, 3), F(1, 5), F(1, 7))), F(6)), 30)  # E < 0
    @example((catalog("bdf4"), F(4866, 10000)), 40)
    def test_equals_unreduced_fraction(self, case, n_max):
        m, g = case
        E, M = unreduced_scaled(m, g, n_max)
        expected = [F(v, E ** (n + 1)) for n, v in enumerate(M)]
        got = mu_prefix(m, g, n_max)
        assert [(v.numerator, v.denominator) for v in got] == [
            (v.numerator, v.denominator) for v in expected
        ]
        for v in got:
            _assert_canonical(v)
        last = eval_mu(m, g, n_max)
        _assert_canonical(last)
        assert last == expected[-1]
        assert mu_signs(m, g, n_max) == [_sign(v) for v in expected]
        E0, M0 = unreduced_scaled(m, 0, n_max)
        taus = tau_prefix(m, n_max)
        assert taus == [F(v, E0 ** (n + 1)) for n, v in enumerate(M0)]
        for v in taus:
            _assert_canonical(v)

    def test_content_is_taken_out(self):
        # gamma = 2433/5000 and L = 25: unreduced, E = 5000*25 + 2433*12 = 154196
        assert unreduced_scaled(catalog("bdf4"), F(4866, 10000), 0)[0] == 154196
        E, _nums = recursion._scaled_numerators(catalog("bdf4"), F(4866, 10000))
        assert E == 38549

    def test_lowest_terms_edge_cases(self):
        # each cheap round takes out one factor 2 only, so a high power of 2
        # is left to the full gcd
        assert recursion._lowest_terms(3 << 20, 1 << 30, 2) == (3, 1 << 10)
        v = recursion._coprime_fraction(3, 1 << 10)
        _assert_canonical(v)
        assert v + F(1, 1 << 10) == F(1, 1 << 8)
        # d = (-2)^9 < 0: the sign moves to the numerator
        assert recursion._lowest_terms(5 * 8, -(2**9), -2) == (-5, 2**6)
        assert recursion._lowest_terms(0, 7**5, 7) == (0, 1)
        _assert_canonical(recursion._coprime_fraction(0, 1))


class TestMuSweep:
    """mu_sweep gives the values of the Fraction recursion as lowest-terms
    pairs with a positive denominator, one gamma after another, from the
    method's integers built once."""

    @settings(max_examples=150, deadline=None)
    @given(_small_method_and_gamma(), st.integers(0, 30))
    @example((Method(1, (F(1),), (F(-1), F(2))), F(2)), 12)  # E = -1
    @example((catalog("ab1"), F(1)), 8)  # E = 1, mu_n = 0 for n >= 2
    @example((Method(2, (F(1, 2), F(1, 2)), (F(-1, 3), F(1, 5), F(1, 7))), F(6)), 30)  # E < 0
    # gcd(M_1, E) is 1 at 0, 4 at 1/2 and 2 at 9/14: values are reduced
    # after n = 1 only where it exceeds 1
    @example((catalog("bdf2"), F(1, 2)), 30)
    @example((catalog("ab2"), F(1)), 30)  # M_0 = 0, so gcd(M_1, E) = E
    def test_equals_fraction_recursion(self, case, n_max):
        m, g = case
        grid = [F(0), g, g + F(1, 7)]
        expected = []
        for x in grid:
            try:
                mus = fraction_mu_prefix(m, x, n_max)
                expected.append((x, [(v.numerator, v.denominator) for v in mus]))
            except ArithmeticDomainError:
                with pytest.raises(ArithmeticDomainError):
                    list(recursion.mu_sweep(m, grid, n_max))
                return
        assert list(recursion.mu_sweep(m, grid, n_max)) == expected


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

    # The integer ball kernel rescales its window after every term toward
    # min(P + 32, useful + BALL_GUARD) bits: left when the midpoints fall 32
    # bits short, right when they grow 64 bits past it, never when they are
    # all zero; and it rounds its coefficients to the useful length.  Each
    # path must keep every yielded interval around the exact value.

    @pytest.mark.parametrize("digits", [64, 200])
    def test_containment_decaying(self, digits):
        # mu decays geometrically inside the stability interior, so the
        # window is shifted left many times over the run
        m, g = catalog("bdf3"), F(1, 2)
        exact = mu_prefix(m, g, 1500)
        assert abs(exact[-1]) < F(1, 2**1000)
        for n, box in eval_mu_interval(m, g, 1500, digits):
            assert box.contains_fraction(exact[n]), n

    @pytest.mark.parametrize("digits", [64, 200])
    def test_containment_growing(self, digits):
        # outside the stability interior mu grows, so the window is shifted
        # right with rounding many times over the run
        m, g = catalog("ab2"), F(3)
        assert analyzer.in_stability_interior(m, -g) is False
        exact = mu_prefix(m, g, 600)
        assert abs(exact[-1]) > 2**1000
        for n, box in eval_mu_interval(m, g, 600, digits):
            assert box.contains_fraction(exact[n]), n

    @pytest.mark.parametrize("digits", [64, 200])
    def test_containment_vanishing_window(self, digits):
        # ab1 at gamma = 1 has the zero coefficient 1 - gamma, so mu_n = 0
        # for n >= 2 and the window is all zero from then on
        m, g = catalog("ab1"), F(1)
        exact = mu_prefix(m, g, 200)
        assert exact[1] == 1 and not any(exact[2:])
        boxes = dict(eval_mu_interval(m, g, 200, digits))
        for n, box in boxes.items():
            assert box.contains_fraction(exact[n]), n
        # an all-zero window is never rescaled: its scale stays put, so every
        # zero term gets the same small interval instead of a finer one each
        # time while the integers behind it grow
        assert len({(boxes[n].lo, boxes[n].hi) for n in range(2, 201)}) == 1
        assert boxes[200].width_fraction() < F(1, 2**64)

    @pytest.mark.parametrize("digits", [64, 200])
    def test_containment_algebraic_gamma(self, digits):
        # the bdf3 optimum is a root of a quartic; the enclosure's rational
        # endpoints both lie in the gamma interval the kernel evaluates over
        spec = published.GAMMA_SUP_POLYS["bdf3"]
        enc = min(
            (e for e in poly.isolate_real_roots(spec["poly"]) if e.lo >= 0),
            key=lambda e: e.lo,
        ).refined(F(1, 10 ** (digits + 10)))
        m = catalog("bdf3")
        ends = [mu_prefix(m, enc.lo, 80), mu_prefix(m, enc.hi, 80)]
        for n, box in eval_mu_interval(m, enc, 80, digits):
            for exact in ends:
                assert box.contains_fraction(exact[n]), n

    @settings(max_examples=150, deadline=None)
    @given(
        _method_and_gamma(),
        st.one_of(
            st.tuples(st.integers(1, 80), st.sampled_from([5, 30, 64, 200])),
            # long runs at low precision, where the radius eats the useful
            # bits: about a third of them trim the window (at 5 digits too)
            # and cut the coefficients (from 30 digits)
            st.tuples(st.integers(1, 400), st.sampled_from([5, 30, 64])),
        ),
    )
    def test_containment_random_methods(self, case, run):
        # the catalog and custom methods of the exact kernel's test, with
        # 1 + gamma*b0 of either sign, against the Fraction recursion
        m, g = case
        n_max, digits = run
        try:
            boxes = list(eval_mu_interval(m, g, n_max, digits))
        except ArithmeticDomainError:
            # the enclosure of 1 + gamma*b0 holds zero only when it is
            # zero or tiny against the rounding of gamma*b0
            assert abs(1 + g * m.b0) <= abs(g * m.b0) / 2**10
            return
        mus = fraction_mu_prefix(m, g, n_max)
        for n, box in boxes:
            assert box.contains_fraction(mus[n]), n

    @settings(max_examples=150, deadline=None)
    @given(
        _method_and_gamma(),
        st.one_of(
            st.tuples(st.integers(1, 80), st.sampled_from([5, 30, 64, 200])),
            st.tuples(st.integers(1, 400), st.sampled_from([5, 30, 64])),
        ),
    )
    @example((catalog("bdf4"), F(4866, 10000)), (1500, 600))  # the cut moves many times
    @example((Method(2, (F(1, 2), F(1, 2)), (F(-1, 3), F(1, 5), F(1, 7))), F(6)), (300, 30))
    def test_rational_products_match_the_generic_path(self, case, run):
        # at a rational gamma the kernel forms each sum from the exact
        # coefficients N_j / E; on the same gamma as an interval it takes the
        # plain products.  Both build the same coefficient balls, so every
        # (n, x, r, S) must agree bit for bit, with E < 0 (the second
        # example: 1 + gamma*b0 = -1) as with E > 0.
        m, g = case
        n_max, digits = run
        iv = IntervalScalar.from_fraction(g, digits)
        try:
            P, rational = recursion._mu_balls(m, g, n_max, digits)
        except ArithmeticDomainError:
            with pytest.raises(ArithmeticDomainError):
                recursion._mu_balls(m, iv, n_max, digits)
            return
        P_generic, generic = recursion._mu_balls(m, iv, n_max, digits)
        assert P == P_generic
        assert list(rational) == list(generic)

    def test_ball_signs_match_exact_signs(self):
        # the remark's miniature: 3000 terms of bdf4 just above its optimum,
        # where 1800 digits decide every sign and 1500 do not
        m, g = catalog("bdf4"), F(4866, 10000)
        exact = mu_signs(m, g, 3000)
        run = run_mu_signs(m, g, 3000, 1800)
        assert run.negative == [n for n in range(1, 3001) if exact[n] < 0]
        assert run.negative and not run.unknown
        assert run_mu_signs(m, g, 3000, 1500).unknown

    @pytest.mark.parametrize("digits, n_negative, n_unknown", [(1800, 177, 0), (1500, 91, 326)])
    def test_trimmed_balls_on_the_remark(self, digits, n_negative, n_unknown):
        # by n = 3000 the radius has used up all but about 390 of the 5980
        # bits at 1800 digits, so trimming goes deepest here: every interval
        # still holds the exact value, and the signs run_mu_signs reads off
        # the integer balls are those of the yielded intervals
        m, g = catalog("bdf4"), F(4866, 10000)
        exact = mu_prefix(m, g, 3000)
        boxes = list(eval_mu_interval(m, g, 3000, digits))
        assert [n for n, _ in boxes] == list(range(1, 3001))
        for n, box in boxes:
            assert box.contains_fraction(exact[n]), n
        run = run_mu_signs(m, g, 3000, digits)
        assert run.negative == [n for n, box in boxes if box.sign() is Sign.NEGATIVE]
        assert run.unknown == [n for n, box in boxes if box.sign() is Sign.UNKNOWN]
        assert (len(run.negative), len(run.unknown)) == (n_negative, n_unknown)
        assert run.first_negative == run.negative[0]

    @pytest.mark.parametrize("digits, n_unknown", [(1000, 1218), (600, 1932), (200, 2644)])
    def test_unresolved_counts_on_the_remark(self, digits, n_unknown):
        # between the trimmed runs above and the 50-digit one below, no
        # negative is resolved; the counts pin how fast the radius grows
        run = run_mu_signs(catalog("bdf4"), F(4866, 10000), 3000, digits)
        assert (run.negative, len(run.unknown)) == ([], n_unknown)

    def test_radius_swallowing_every_bit(self):
        # at 50 digits the radius outgrows the midpoints early: the useful
        # length goes negative and the coefficient cut is clamped
        m, g = catalog("bdf4"), F(4866, 10000)
        run = run_mu_signs(m, g, 3000, 50)
        assert (run.negative, len(run.unknown)) == ([], 2912)
        exact = mu_prefix(m, g, 3000)
        for n, box in eval_mu_interval(m, g, 3000, 50):
            assert box.contains_fraction(exact[n]), n


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

    def test_range_reconstruction_contains_exact(self):
        # a range that starts past the window start: the first power is
        # raised there, the rest are running products
        m, g = catalog("bdf4"), F(1, 2)
        cf = closed_form(m, g, 64)
        first, last = cf.window_start + 3, cf.window_start + 60
        exact = mu_prefix(m, g, last)
        vals = cf.reconstruct_range(first, last)
        assert len(vals) == last - first + 1
        for n, v in enumerate(vals, first):
            assert v.contains_fraction(exact[n]), n

    def test_containment_check_raises_each_root_at_most_twice(self, monkeypatch):
        # one power for the residue shift and one at the window start; the
        # 2k + 1 terms of the check advance by products, not new powers
        calls = []
        pow_int = ComplexBox.pow_int

        def counting(self, n):
            calls.append(n)
            return pow_int(self, n)

        monkeypatch.setattr(ComplexBox, "pow_int", counting)
        cf = closed_form(catalog("bdf6"), F(1, 7), 64)
        assert 0 < len(calls) <= 2 * len(cf.roots)

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
