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

from scbcert import analyzer, cli, methods, poly, published, recursion
from scbcert.arith import ArithmeticDomainError, GaussBall
from scbcert.methods import Method, catalog
from scbcert.recursion import (
    MultipleRootError,
    closed_form,
    eval_mu,
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
    where 1 + gamma*b0 < 0.  A random gamma never hits -1/b0 itself, where
    1 + gamma*b0 = 0 and the recurrence is undefined."""
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
    gammas = st.builds(F, st.integers(0, 3000), st.integers(1, 1000))
    return m, draw(gammas.filter(lambda g: 1 + g * m.b0 != 0))


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

    B = recursion._SWEEP_BLOCK
    # lanes of each kind: E < 0 (bdf2 past gamma = -3/2), gcd(M_1, E) > 1
    # (bdf2 at 1/2, ab2 at 1), gamma = 0; ab2 has b0 = 0, so M_0 = 0 there
    SPECIAL = (F(-2), F(1, 2), F(1), F(0), F(-7, 3))

    @pytest.mark.parametrize("name", ["bdf2", "ab2"])
    @pytest.mark.parametrize("n_max", [0, 1, 2, 12])
    @pytest.mark.parametrize("size", [1, B - 1, B, B + 1, 2 * B + 1])
    def test_block_edges_equal_fraction_recursion(self, name, n_max, size):
        m = catalog(name)
        # special lanes at every fifth point and at both ends of every
        # block, the last, partial one included
        B = self.B
        grid = [
            self.SPECIAL[i % len(self.SPECIAL)]
            if i % 5 == 0 or i % B in (0, B - 1) or i == size - 1
            else F(i, 13)
            for i in range(size)
        ]
        expected = [
            (x, [(v.numerator, v.denominator) for v in fraction_mu_prefix(m, x, n_max)])
            for x in grid
        ]
        assert list(recursion.mu_sweep(m, grid, n_max)) == expected

    def test_lane_kinds_are_met(self):
        """The special lanes of the block-edge test are of the kinds named."""
        for name, g, E_sign, coprime in [
            ("bdf2", F(-2), -1, True),
            ("bdf2", F(1, 2), 1, False),
            ("ab2", F(1), 1, False),
            ("bdf2", F(1, 3), 1, True),
        ]:
            E, nums = recursion._scaled_numerators(catalog(name), g)
            M0, M1 = next(nums), next(nums)
            assert (E > 0) - (E < 0) == E_sign
            assert (math.gcd(M1, E) == 1) == coprime
            if name == "ab2":
                assert M0 == 0

    def test_empty_grid(self):
        assert list(recursion.mu_sweep(catalog("bdf3"), [], 5)) == []


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


def ball_bounds(m, gamma, n_max, digits):
    """{n: (lo, hi)} for n = 1..n_max: the ball kernel's (x, r, S) for mu_n
    as the exact bounds (x - r)/2^S and (x + r)/2^S; S goes negative on
    growing runs."""
    _P, balls = recursion._mu_balls(m, gamma, n_max, digits)
    return {n: (F(x - r) / F(2) ** S, F(x + r) / F(2) ** S) for n, x, r, S in balls}


def assert_contained(bounds, exact):
    for n, (lo, hi) in bounds.items():
        assert lo <= exact[n] <= hi, n


class TestIntervalEvaluation:
    def test_containment_long_run(self):
        rng = random.Random(17)
        for name in ("bdf3", "ab2", "ebdf4"):
            m = catalog(name)
            g = F(rng.randint(1, 9), rng.randint(10, 19))
            exact = mu_prefix(m, g, 2000)
            assert_contained(ball_bounds(m, g, 2000, 64), exact)

    def test_bdf2_positive_signs(self):
        run = run_mu_signs(catalog("bdf2"), F(1, 2), 100, 64)
        assert not run.negative and not run.unknown

    def test_ab4_negative_witness(self):
        run = run_mu_signs(catalog("ab4"), F(1, 7), 2, 64)
        assert run.first_negative == 2

    # The integer ball kernel takes its midpoints from the exact recurrence
    # and its radii from the rounded coefficient balls, and rescales its
    # window after every term toward min(P + 32, useful + BALL_GUARD) bits:
    # left when the midpoints fall 32 bits short, right when they grow 64
    # bits past it, never when they are all zero.  Each path must keep every
    # yielded ball around the exact value.

    @pytest.mark.parametrize("digits", [64, 200])
    def test_containment_decaying(self, digits):
        # mu decays geometrically inside the stability interior, so the
        # window is shifted left many times over the run
        m, g = catalog("bdf3"), F(1, 2)
        exact = mu_prefix(m, g, 1500)
        assert abs(exact[-1]) < F(1, 2**1000)
        assert_contained(ball_bounds(m, g, 1500, digits), exact)

    @pytest.mark.parametrize("digits", [64, 200])
    def test_containment_growing(self, digits):
        # outside the stability interior mu grows, so the window is shifted
        # right with rounding many times over the run
        m, g = catalog("ab2"), F(3)
        assert analyzer.in_stability_interior(m, -g) is False
        exact = mu_prefix(m, g, 600)
        assert abs(exact[-1]) > 2**1000
        bounds = ball_bounds(m, g, 600, digits)
        assert_contained(bounds, exact)
        # mu outgrew 2^P, so the shared scale 2^-S went past 1
        _P, balls = recursion._mu_balls(m, g, 600, digits)
        assert min(S for _n, _x, _r, S in balls) < 0

    @pytest.mark.parametrize("digits", [64, 200])
    def test_containment_vanishing_window(self, digits):
        # ab1 at gamma = 1 has the zero coefficient 1 - gamma, so mu_n = 0
        # for n >= 2 and the window is all zero from then on
        m, g = catalog("ab1"), F(1)
        exact = mu_prefix(m, g, 200)
        assert exact[1] == 1 and not any(exact[2:])
        bounds = ball_bounds(m, g, 200, digits)
        assert_contained(bounds, exact)
        # an all-zero window is never rescaled: its scale stays put, so every
        # zero term gets the same small ball instead of a finer one each
        # time while the integers behind it grow
        assert len({bounds[n] for n in range(2, 201)}) == 1
        lo, hi = bounds[200]
        assert hi - lo < F(1, 2**64)

    @settings(max_examples=150, deadline=None)
    @given(
        _method_and_gamma(),
        st.one_of(
            st.tuples(st.integers(1, 80), st.sampled_from([5, 30, 64, 200])),
            # long runs at low precision, where the radius eats the useful
            # bits: about a third of them trim the window (at 5 digits too)
            st.tuples(st.integers(1, 400), st.sampled_from([5, 30, 64])),
        ),
    )
    @example((catalog("bdf4"), F(4866, 10000)), (1500, 600))  # trimmed many times
    @example((Method(2, (F(1, 2), F(1, 2)), (F(-1, 3), F(1, 5), F(1, 7))), F(6)), (300, 30))  # E < 0
    def test_containment_random_methods(self, case, run):
        # the catalog and custom methods of the exact kernel's test, with
        # 1 + gamma*b0 of either sign, against the Fraction recursion
        m, g = case
        n_max, digits = run
        try:
            bounds = ball_bounds(m, g, n_max, digits)
        except ArithmeticDomainError:
            # the enclosure of 1 + gamma*b0 holds zero only when it is
            # zero or tiny against the rounding of gamma*b0
            assert abs(1 + g * m.b0) <= abs(g * m.b0) / 2**10
            return
        assert_contained(bounds, fraction_mu_prefix(m, g, n_max))

    @pytest.mark.parametrize(
        "m, g",
        [
            (catalog("bdf4"), F(4866, 10000)),
            (Method(1, (F(1),), (F(-1), F(2))), F(2)),  # E = -1
            (Method(2, (F(1, 2), F(1, 2)), (F(-1, 3), F(1, 5), F(1, 7))), F(6)),  # E < 0
        ],
    )
    def test_midpoints_follow_the_exact_recurrence(self, m, g):
        # each midpoint is the exact recurrence on the window's midpoints,
        # rounded half up, whatever the sign of E:
        # x_n = floor((sum_j N_j x_(n-j) + F_n 2^S) / E + 1/2).  Checked up
        # to the first right shift, since a left shift keeps the window exact
        E, N, Fn = recursion._scaled_coefficients(m.integers, g)
        P, balls = recursion._mu_balls(m, g, 40, 64)

        def nearest(num):
            return math.floor(F(num, E) + F(1, 2))

        xs, prev = [nearest(Fn[0] << P)], P
        for n, x, _r, S in balls:
            if S < prev:
                break
            xs, prev = [v << (S - prev) for v in xs], S
            num = sum(N[j - 1] * xs[n - j] for j in range(1, min(n, m.k) + 1))
            assert x == nearest(num + (Fn[n] << S if n <= m.k else 0)), n
            xs.append(x)
        assert len(xs) > 20

    def test_midpoint_scale_past_one_within_the_first_k_terms(self):
        # 1 + gamma*b0 = -2^-20 / 3 makes mu outgrow 2^(P + 32) by n = 3,
        # so the shared scale 2^-S goes past 1 while the inhomogeneous term
        # F_4 still enters: it is added exactly, at scale 2^-S
        m = Method(4, (F(9), F(-9), F(9), F(1)), (F(-1, 3), F(9), F(9), F(9), F(9)))
        g = 3 + F(1, 2**20)
        _P, balls = recursion._mu_balls(m, g, 8, 10)
        scales = {n: S for n, _x, _r, S in balls}
        assert scales[4] < 0
        assert_contained(ball_bounds(m, g, 8, 10), mu_prefix(m, g, 8))

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
        # bits at 1800 digits, so trimming goes deepest here: every ball
        # still holds the exact value, and the signs run_mu_signs reads off
        # the integer balls are those of their exact bounds
        m, g = catalog("bdf4"), F(4866, 10000)
        exact = mu_prefix(m, g, 3000)
        bounds = ball_bounds(m, g, 3000, digits)
        assert list(bounds) == list(range(1, 3001))
        assert_contained(bounds, exact)
        run = run_mu_signs(m, g, 3000, digits)
        assert run.negative == [n for n, (lo, hi) in bounds.items() if hi < 0]
        assert run.unknown == [n for n, (lo, hi) in bounds.items() if lo <= 0 <= hi]
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
        # length goes negative, and the window keeps BALL_GUARD bits of radius
        m, g = catalog("bdf4"), F(4866, 10000)
        run = run_mu_signs(m, g, 3000, 50)
        assert (run.negative, len(run.unknown)) == ([], 2912)
        assert_contained(ball_bounds(m, g, 3000, 50), mu_prefix(m, g, 3000))


class TestMemberFunctions:
    def test_ab2_numerators(self):
        nums = mu_gamma_numerators(catalog("ab2"), 2)
        # mu_2(g) = 1 - 9g/4; the method is explicit, so E(g) = L = 2 and
        # M_2 = 2^3 mu_2
        assert nums[2] == [-18, 8]

    def test_bdf3_numerator_denominator_structure(self):
        # every catalog method: mu_n = M_n(g) / E(g)^(n+1) with
        # E(g) = L + L*b0*g, at random rationals g of either sign
        rng = random.Random(23)
        for name in ALL_NAMES:
            m = catalog(name)
            nums = mu_gamma_numerators(m, 8)
            assert all(type(c) is int for num in nums for c in num)
            L = math.lcm(*(c.denominator for c in m.a + m.b))
            for _ in range(6):
                g = F(rng.randint(-50, 50), rng.randint(1, 50))
                E = L + L * m.b0 * g
                if E == 0:
                    continue
                for n in range(9):
                    assert eval_mu(m, g, n) == poly.eval_at(nums[n], g) / E ** (n + 1), (name, g, n)

    def test_bdf3_member_six_vanishes_at_quartic_root(self):
        # the numerator of member 6 is a positive multiple of the published
        # quartic
        nums = mu_gamma_numerators(catalog("bdf3"), 6)
        num6 = poly.primitive_signed(nums[6])
        assert num6 == published.GAMMA_SUP_POLYS["bdf3"]["poly"]


_B0_NEGATIVE = Method(2, (F(1, 2), F(1, 2)), (F(-1, 3), F(1, 5), F(1, 7)), name="b0<0")


class TestIntegerPolynomials:
    """The integer characteristic polynomial chi_g = [E, -C_1, ..., -C_k]
    against rho + g*sigma, built here from the method's Fractions and from
    its integer generating polynomials."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(ALL_NAMES + ("b0<0",)),
        st.fractions(min_value=-20, max_value=20, max_denominator=1000),
    )
    @example("b0<0", F(0))
    @example("b0<0", F(6))  # E < 0
    @example("b0<0", F(3))  # E = 0
    @example("bdf2", F(-3, 2))  # E = 0
    @example("ab3", F(1, 3))  # a root at zero
    def test_chi_is_a_multiple_of_rho_plus_gamma_sigma(self, name, g):
        m = _B0_NEGATIVE if name == "b0<0" else catalog(name)
        oracle = [1 + g * m.b0] + [-a + g * b for a, b in zip(m.a, m.b[1:])]
        ints = m.integers
        if oracle[0] == 0:
            with pytest.raises(ArithmeticDomainError):
                recursion._scaled_coefficients(ints, g)
            return
        E, C, F_ = recursion._scaled_coefficients(ints, g)
        chi = [E] + [-c for c in C]
        assert all(type(c) is int for c in chi + F_) and E != 0
        assert all(c * oracle[0] == o * E for c, o in zip(chi, oracle))
        # F_n / E = b_n / (1 + g*b0): the inhomogeneous terms on chi's scale
        assert all(f * oracle[0] == b * E for f, b in zip(F_, m.b))
        gp = methods.generating_polys(m)
        sigma = [0] * (len(gp.rho) - len(gp.sigma)) + list(gp.sigma)
        # and against L*rho + g*L*sigma from the integer generating polynomials
        assert all(c * (gp.rho[0] + g * sigma[0]) == (r + g * s) * E
                   for c, r, s in zip(chi, gp.rho, sigma))
        if g < 0:
            with pytest.raises(methods.MethodError):
                recursion._characteristic(m, g)
            return
        stripped, scaled_F = recursion._characteristic(m, g)
        sign = 1 if E > 0 else -1
        assert stripped[0] > 0 and stripped[-1] != 0
        assert stripped + [0] * (len(chi) - len(stripped)) == [sign * c for c in chi]
        assert scaled_F == [sign * f for f in F_]


class TestClosedForm:
    def test_ebdf3_tau(self):
        cf = closed_form(catalog("ebdf3"), F(0), 64)
        assert cf.order == 3 and cf.window_start == 1
        reals = [r for r in cf.roots if not r.is_pair]
        pairs = [r for r in cf.roots if r.is_pair]
        assert len(reals) == 1 and reals[0].ball == GaussBall(1, 0, 0, 0)
        assert len(pairs) == 1
        lo, hi = pairs[0].ball.re_bounds()
        assert lo <= F(7, 22) <= hi
        lo, hi = pairs[0].ball.modulus_bounds()
        assert lo * lo <= F(2, 11) <= hi * hi
        for c in cf.coeffs:
            assert c.contains(1)

    def test_limit_coefficient_is_one(self):
        # the coefficient of the root at 1 is the residue sigma(1)/rho'(1) = 1,
        # kept exact: a ball of radius 0 about 1
        for name in ALL_NAMES:
            m = catalog(name)
            try:
                cf = closed_form(m, F(0), 64)
            except MultipleRootError:
                continue
            one_idx = next(
                i for i, r in enumerate(cf.roots) if r.ball == GaussBall(1, 0, 0, 0)
            )
            c = cf.coeffs[one_idx]
            assert c.r == c.y == 0 and c.re_bounds() == (1, 1), name

    def test_reconstruction_contains_exact(self):
        rng = random.Random(31)
        for name in ("bdf2", "bdf4", "ab3", "ebdf5"):
            m = catalog(name)
            g = F(rng.randint(1, 5), rng.randint(6, 12))
            cf = closed_form(m, g, 64)
            exact = mu_prefix(m, g, 300)
            for n in range(cf.window_start, 301):
                assert cf.reconstruct_range(n, n)[0].contains(exact[n]), (name, n)
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
                assert cf.reconstruct_range(n, n)[0].contains(exact[n]), (kind, m, g, n)
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
            assert v.contains(exact[n]) and v.y == 0, n

    def test_containment_check_raises_each_root_at_most_twice(self, monkeypatch):
        # the residue's shift is a factor of its polynomials, so the only
        # power is the one at the window start; the 2k + 1 terms of the
        # check advance by products, not new powers
        calls = []
        power = GaussBall.pow

        def counting(self, n, prec):
            calls.append(n)
            return power(self, n, prec)

        monkeypatch.setattr(GaussBall, "pow", counting)
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
        # a rational gamma within 1e-30 of the bdf3 optimum, a root of a quartic
        gstar = poly.isolate_real_roots(published.GAMMA_SUP_POLYS["bdf3"]["poly"])[0]
        cf = closed_form(catalog("bdf3"), gstar.refined(F(1, 10**30)).lo, 80)
        reals = [
            (r, c) for r, c in zip(cf.roots, cf.coeffs) if not r.is_pair
        ]
        assert len(reals) == 1
        root, coeff = reals[0]
        lo, hi = root.ball.re_bounds()
        assert lo <= F("0.500519") and hi >= F("0.500518")
        lo, hi = coeff.re_bounds()
        assert lo <= F("0.50155510") and hi >= F("0.50155509")


class TestDominantSign:
    """Each outcome of ClosedForm.dominant_sign at 64 digits, on cases whose
    roots and coefficients are known by hand; only sign 1 gives a tail
    certificate."""

    @pytest.mark.parametrize(
        "m, g, sign",
        [
            # a positive real root dominates with a positive coefficient
            (catalog("bdf3"), F(83, 100), 1),
            # chi = z + 1/20: the only root is negative
            (catalog("ab1"), F(21, 20), -1),
            # chi = (z - 1/2)(z - 1/4) and mu = x(1 - x)/((1 - x/2)(1 - x/4)):
            # the dominant root 1/2 carries the coefficient -4
            (Method(2, (F(7, 4), F(-9, 8)), (F(0), F(1), F(-1))), F(1), -1),
            # a dominant conjugate pair with a coefficient clear of 0
            (catalog("bdf4"), F(1, 2), 0),
            # chi = z^2 - 6/77: the roots +-sqrt(6/77) tie in modulus
            (Method(2, (F(1, 2), F(1, 2)), (F(1, 3), F(1, 5), F(1, 7))), F(5, 2), None),
            # chi = (z - 1/2)(z - 1/4) and mu = 4^(1-n): the dominant root
            # 1/2 has the coefficient 0, an exact ball that holds no sign
            (Method(2, (F(7, 4), F(-5, 8)), (F(0), F(1), F(-1, 2))), F(1), None),
        ],
    )
    def test_outcomes(self, m, g, sign):
        cf = closed_form(m, g, 64)
        assert cf.dominant_sign() == sign
        assert (tail_certificate(cf) is not None) == (sign == 1)


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
        at_start = recursion.tail_residual(tc.terms, tc.n_start)
        assert recursion.tail_residual(tc.terms, tc.n_start + 1) < at_start
        assert at_start < tc.dominant_coeff_lb

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
        assert poly.degree(poly.divexact(nums[6], quartic)) == 0
        # at the two rational ends of a 1e-80 enclosure of the optimum,
        # member 6 has opposite certified signs, every other member up to
        # 92 is certified positive, and member 92 is tiny
        gi = gstar.refined(F(1, 10**80))
        six = []
        for end in (gi.lo, gi.hi):
            bounds = ball_bounds(m, end, 92, 120)
            lo, hi = bounds[6]
            assert lo > 0 or hi < 0, end
            six.append(1 if lo > 0 else -1)
            for n in range(1, 93):
                if n != 6:
                    assert bounds[n][0] > 0, (end, n)
            lo, hi = bounds[92]
            assert lo <= F("1.585176e-28") <= hi or (
                lo < F("1.585177e-28") and hi > F("1.585176e-28")
            )
        assert sorted(six) == [-1, 1]


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
