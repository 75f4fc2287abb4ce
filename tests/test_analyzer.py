import random
import sys
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scbcert import analyzer, arith, methods, poly, published, recursion
from scbcert.analyzer import (
    Existence,
    Feasibility,
    InfeasibleComplexDominance,
    InfeasibleStability,
    InfeasibleWitness,
    Mechanism,
    check_scb,
    crossover,
    gamma_sup,
    in_stability_interior,
    scb_exists,
    verify_against_poly,
)
from scbcert.methods import Method, catalog, generating_polys, validate


def near_unit_method(e):
    """rho = (z - 1)(z - r) with r = 1 - 10^-e and sigma(1) = 1 - r, so that
    tau_n = 1 - r^n: separating r from 1 in the closed form takes far more
    than 64 digits."""
    eps = F(1, 10**e)
    r = 1 - eps
    return Method(k=2, a=(1 + r, -r), b=(F(0), eps, F(0)), name="near-unit")


class TestStabilityInterior:
    def test_examples(self):
        assert in_stability_interior(catalog("bdf3"), F(-2)) is True
        assert in_stability_interior(catalog("ab1"), F(-1)) is True
        assert in_stability_interior(catalog("ab3"), F(-84, 529)) is True
        assert in_stability_interior(catalog("ab1"), F(-2)) is False

    def test_bdf_left_halfline(self):
        rng = random.Random(8)
        for name in ("bdf1", "bdf2", "bdf3", "bdf4", "bdf5", "bdf6"):
            m = catalog(name)
            for _ in range(8):
                g = F(rng.randint(1, 300), rng.randint(100, 200))
                assert in_stability_interior(m, -g) is True, (name, g)

    def test_degenerate_leading_coefficient(self):
        # lambda = 1/b0 makes the damped polynomial degenerate
        m = catalog("bdf1")
        assert in_stability_interior(m, F(1)) is False


class TestCheckScb:
    def test_bdf2_at_half(self):
        v = check_scb(catalog("bdf2"), F(1, 2))
        assert v.status is Feasibility.FEASIBLE
        assert v.evidence.exact_form is not None  # double root: exact route

    def test_bdf1_large(self):
        # mu_n = (1 + gamma)^-(n+1): where the root 1/(1 + gamma) is a binary
        # fraction, the residue coefficient (the same number) stays exact
        for gamma, exact_root in ((F(10**6), None), (F(6, 10), F(5, 8)), (F(22, 10), F(5, 16))):
            v = check_scb(catalog("bdf1"), gamma)
            assert v.status is Feasibility.FEASIBLE
            tail = v.evidence.tail
            assert tail is not None
            if exact_root is not None:
                assert tail.dominant_root_lb == tail.dominant_root_ub == exact_root
                assert tail.dominant_coeff_lb == exact_root

    def test_ab4_witness(self):
        v = check_scb(catalog("ab4"), F(1, 10))
        assert v.status is Feasibility.INFEASIBLE
        assert isinstance(v.evidence, InfeasibleWitness)
        assert v.evidence.n == 2 and v.evidence.exact

    def test_witness_soundness(self):
        # whenever a witness is reported at rational gamma, the exact value
        # is negative
        for name, g in (("ab4", F(1, 3)), ("ab2", F(1, 2)), ("bdf3", F(9, 10))):
            v = check_scb(catalog(name), g)
            if isinstance(v.evidence, InfeasibleWitness):
                assert recursion.eval_mu(catalog(name), g, v.evidence.n) < 0

    def test_stability_violation(self):
        # explicit Euler beyond the stability interval: damped root leaves
        # the closed unit disk before any sign violation can be certified
        v = check_scb(catalog("ab1"), F(5, 2))
        assert v.status is Feasibility.INFEASIBLE
        # mu_n = (1-g)^(n-1) alternates; witness n=2 is also legitimate
        assert isinstance(v.evidence, (InfeasibleStability, InfeasibleWitness))

    def test_feasible_below_bdf3_optimum(self):
        v = check_scb(catalog("bdf3"), F(83, 100))
        assert v.status is Feasibility.FEASIBLE
        assert v.evidence.tail is not None
        assert v.evidence.tail.n_start <= 93

    def test_infeasible_above_bdf3_optimum(self):
        # just above the optimum the first negative member is the sixth (the
        # optimum is its smallest root); farther out earlier members dip first
        v = check_scb(catalog("bdf3"), F(83127, 100000))
        assert v.status is Feasibility.INFEASIBLE
        assert isinstance(v.evidence, InfeasibleWitness)
        assert v.evidence.n == 6

    def test_complex_dominance_far_from_witness(self):
        # just above the bdf4 optimum the dips appear only after ~10^4 terms:
        # with a short horizon the pair-dominance certificate must stand in
        v = check_scb(catalog("bdf4"), F(4863, 10000), horizon=40)
        assert v.status is Feasibility.INFEASIBLE
        assert isinstance(v.evidence, InfeasibleComplexDominance)

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(analyzer.AnalyzerError):
            check_scb(catalog("bdf2"), F(0))

    def test_negative_dominant_root_exact_witness(self):
        # characteristic roots 9/10 and -19/20 at gamma = 1: the dominant
        # term alternates in sign, and the first negative term (n = 21) lies
        # past the 16-term exact prefix but inside the default horizon 32
        m = methods.Method(2, (F(11, 20), F(401, 200)), (F(0), F(3, 5), F(23, 20)))
        assert methods.char_poly_mu(m, F(1)) == [F(1), F(1, 20), F(-171, 200)]
        v = check_scb(m, F(1))
        assert v.status is Feasibility.INFEASIBLE
        assert v.evidence == InfeasibleWitness(21, "negative integer-scaled numerator", True)
        assert recursion.eval_mu(m, F(1), 21) < 0
        assert recursion.first_negative_mu(m, F(1), 20) is None


class TestAb3AtOptimum:
    def test_feasible_with_root_ordering(self):
        # at 84/529 the three characteristic roots satisfy
        # rho1 < 0 < rho2 < rho3 with |rho1| < rho3/2 and rho2 < rho3/4,
        # and the dominant coefficient exceeds 1
        from scbcert.recursion import closed_form, tail_certificate

        m = catalog("ab3")
        g = F(84, 529)
        v = check_scb(m, g)
        assert v.status is Feasibility.FEASIBLE
        cf = closed_form(m, g, 64)
        assert all(not r.is_pair for r in cf.roots)
        ordered = sorted(
            zip(cf.roots, cf.coeffs), key=lambda rc: rc[0].box.re.mid_fraction()
        )
        r1, r2, r3 = (rc[0].box.re for rc in ordered)
        assert r1.hi_fraction() < 0 < r2.lo_fraction()
        assert r2.hi_fraction() < r3.lo_fraction()
        r1_abs_ub = max(abs(r1.lo_fraction()), abs(r1.hi_fraction()))
        assert r1_abs_ub < r3.lo_fraction() / 2
        assert r2.hi_fraction() < r3.lo_fraction() / 4
        c3 = ordered[2][1]
        assert c3.re.lo_fraction() > 1
        tc = tail_certificate(cf)
        assert tc is not None and tc.n_start <= 3
        # the second member vanishes exactly at the optimum
        assert recursion.eval_mu(m, g, 2) == 0


class TestDegenerateParameters:
    def test_bdf4_at_discriminant_zero(self):
        # multiple characteristic roots at 7/12: the closed-form route is
        # unavailable, but a witness scan still certifies infeasibility
        v = check_scb(catalog("bdf4"), F(7, 12))
        assert v.status is Feasibility.INFEASIBLE
        assert isinstance(v.evidence, InfeasibleWitness)

    def test_two_circle_roots_method(self):
        # rho = z^2 - 1 carries the extra circle root -1: the existence
        # corollary is silent, and the negative axis is outside the
        # stability interior
        ms = Method(
            k=2, a=(F(0), F(1)), b=(F(1, 3), F(4, 3), F(1, 3)), name="milne-simpson"
        )
        assert validate(ms).ok
        assert analyzer._only_circle_root_is_one(list(generating_polys(ms).rho)) is False
        ve = scb_exists(ms)
        assert ve.status is Existence.INCONCLUSIVE
        assert ve.only_circle_root_is_one is False
        vc = check_scb(ms, F(1, 10))
        assert vc.status is Feasibility.INFEASIBLE
        assert isinstance(vc.evidence, InfeasibleStability)


    @pytest.mark.parametrize("horizon", [1, 2])
    def test_order_zero_scans_up_to_the_window(self, horizon):
        # a_j = gamma*b_j at gamma = 2: the closed form has order 0 and
        # mu_n = 0 from n = 3 on, but mu_2 = -1/8 lies past a prefix scan
        # that the horizon cuts short
        m = Method(2, (F(4, 3), F(-1, 3)), (F(1, 6), F(2, 3), F(-1, 6)))
        assert validate(m).ok
        assert recursion.closed_form(m, F(2)).order == 0
        v = check_scb(m, F(2), horizon=horizon)
        assert v.status is Feasibility.INFEASIBLE
        assert v.evidence == InfeasibleWitness(2, "-1/8", True)


class TestPrecisionUsed:
    """digits_used is the highest rung of the ladder that ran, or its first
    rung min(digits, 64, digits_cap) when none did; never digits itself."""

    def test_start_above_64_reports_the_rung(self):
        # bdf4 at 1/2 is decided by complex dominance at the first rung
        v = check_scb(catalog("bdf4"), F(1, 2), digits=100)
        assert isinstance(v.evidence, InfeasibleComplexDominance)
        assert v.digits_used == 64

    def test_cap_below_the_start_is_the_one_rung(self, monkeypatch):
        rungs = []
        closed_form = recursion.closed_form

        def recording(m, gamma, digits):
            rungs.append(digits)
            return closed_form(m, gamma, digits)

        monkeypatch.setattr(recursion, "closed_form", recording)
        v = check_scb(catalog("bdf4"), F(1, 2), digits=100, digits_cap=10)
        assert rungs == [10] and v.digits_used == 10

    def test_no_rung_run_reports_the_first(self):
        # decided by the stability test before any closed form
        v = check_scb(catalog("ab2"), F(3), digits=100)
        assert isinstance(v.evidence, InfeasibleStability)
        assert v.digits_used == 64


class TestScbExists:
    def test_ebdf_family(self):
        for name in ("ebdf3", "ebdf4", "ebdf5"):
            v = scb_exists(catalog(name))
            assert v.status is Existence.EXISTS
            assert v.only_circle_root_is_one is True
            assert v.evidence.tail is not None

    def test_ab4(self):
        v = scb_exists(catalog("ab4"))
        assert v.status is Existence.NOT_EXISTS
        assert v.evidence.n == 2

    def test_ebdf3_kernel_passes(self, monkeypatch):
        # one exact pass for the tau signs (n0 included) and one for the
        # closed form's starting values; the tail needs no further terms
        passes = []
        kernel = recursion._scaled_numerators

        def counting(m, gamma):
            passes.append(gamma)
            return kernel(m, gamma)

        monkeypatch.setattr(recursion, "_scaled_numerators", counting)
        v = scb_exists(catalog("ebdf3"))
        assert v.status is Existence.EXISTS and v.n0 == 1
        assert len(passes) == 2

    @pytest.mark.parametrize("e", [40, 60])
    def test_near_unit_root_climbs_the_ladder(self, e):
        m = near_unit_method(e)
        assert validate(m).ok
        try:
            first_rung = recursion.tail_certificate(recursion.closed_form(m, F(0), 64))
        except recursion.EnclosureError:
            first_rung = None
        assert first_rung is None  # 64 digits do not separate r from 1 enough
        v = scb_exists(m)
        assert v.status is Existence.EXISTS
        assert v.only_circle_root_is_one is True
        assert v.evidence.tail is not None

    def test_exhausted_ladder_reports_the_cap(self):
        v = scb_exists(near_unit_method(80), digits_cap=128)
        assert v.status is Existence.INCONCLUSIVE
        assert v.evidence.digits == 128

    def test_whole_catalog_consistent(self):
        for name in methods.catalog_names():
            v = scb_exists(catalog(name))
            if name == "ab4":
                assert v.status is Existence.NOT_EXISTS
            else:
                assert v.status is Existence.EXISTS, name


class TestCrossover:
    def test_bdf4_window(self):
        cb = crossover(catalog("bdf4"), F(0), F(7, 12), tol=F(1, 10**6))
        assert cb is not None
        v = F("0.486220284043")
        assert cb.lo - F(1, 10**12) <= v <= cb.hi + F(1, 10**12)

    def test_bdf5_window(self):
        cb = crossover(catalog("bdf5"), F(0), F(1), tol=F(1, 10**6))
        v = F("0.304213712525")
        assert cb.lo - F(1, 10**12) <= v <= cb.hi + F(1, 10**12)

    def test_bdf6_window(self):
        cb = crossover(catalog("bdf6"), F(0), F(37, 60), tol=F(1, 10**6))
        v = F("0.131359487166")
        assert cb.lo - F(1, 10**12) <= v <= cb.hi + F(1, 10**12)

    def test_no_bracket(self):
        # ab2 has two real characteristic roots for every positive gamma:
        # no complex pair ever dominates, so no crossover exists
        assert crossover(catalog("ab2"), F(1, 100), F(3, 2)) is None

    def test_side_ordering_certified(self):
        # on each side of the bracket the dominance ordering is certified
        m = catalog("bdf4")
        cb = crossover(m, F(0), F(7, 12), tol=F(1, 10**4))
        assert analyzer._dominance_gap_sign(m, cb.lo, 64, 4096) == 1
        assert analyzer._dominance_gap_sign(m, cb.hi, 64, 4096) == -1


def dominance_evidence(name, gamma):
    """check_scb's complex-dominance evidence from the closed form at 64
    digits, or None when no conjugate pair dominates."""
    cf = recursion.closed_form(catalog(name), gamma)
    di = cf.dominant_index()
    assert di is not None
    return analyzer._complex_dominance(cf, di) if cf.roots[di].is_pair else None


class TestComplexDominance:
    def test_bdf2_above_half(self):
        assert dominance_evidence("bdf2", F(6, 10)) is not None
        # a negative term inside the horizon is reported first
        v = check_scb(catalog("bdf2"), F(6, 10))
        assert v.status is Feasibility.INFEASIBLE
        assert isinstance(v.evidence, InfeasibleWitness)

    def test_bdf4_at_half(self):
        assert dominance_evidence("bdf4", F(1, 2)) is not None
        # the residue formula keeps the pair coefficient near the working
        # precision (an interval solve of the starting values gave 2.3e-60)
        v = check_scb(catalog("bdf4"), F(1, 2))
        assert isinstance(v.evidence, InfeasibleComplexDominance)
        assert v.digits_used == 64
        lo, hi = map(F, v.evidence.coeff_modulus)
        assert 0 < lo and hi - lo < F(1, 10**61)

    def test_bdf3_at_half_absent(self):
        assert dominance_evidence("bdf3", F(1, 2)) is None
        assert check_scb(catalog("bdf3"), F(1, 2)).status is Feasibility.FEASIBLE


class TestGammaSup:
    def test_ab1(self):
        r = gamma_sup(catalog("ab1"), F(1, 10**9))
        assert r.lo <= F(1) <= r.hi
        assert r.hi - r.lo <= F(1, 10**9)
        assert r.mechanism is Mechanism.SIMPLE_ROOT and r.mechanism_index == 2
        assert r.cert_lo.status is Feasibility.FEASIBLE
        assert r.cert_hi.status is Feasibility.INFEASIBLE

    def test_mechanism_matches_evidence(self):
        r = gamma_sup(catalog("ab2"), F(1, 10**6))
        if r.mechanism is Mechanism.SIMPLE_ROOT:
            assert isinstance(r.cert_hi.evidence, InfeasibleWitness)
            assert r.cert_hi.evidence.n == r.mechanism_index
        else:
            assert isinstance(r.cert_hi.evidence, InfeasibleComplexDominance)

    def test_monotone_bracket_invariant(self):
        r = gamma_sup(catalog("bdf2"), F(1, 10**6))
        assert r.lo < r.hi
        assert r.cert_lo.gamma <= r.lo
        assert r.cert_hi.gamma == r.hi

    def test_bdf1_unbounded(self):
        r = gamma_sup(catalog("bdf1"), F(1, 10**6))
        assert r.mechanism is Mechanism.UNBOUNDED
        assert r.hi is None
        assert r.ladder and r.ladder[-1] >= F(2**20)

    def test_ab4_none_positive(self):
        r = gamma_sup(catalog("ab4"), F(1, 10**6))
        assert r.mechanism is Mechanism.NONE_POSITIVE
        assert r.none_positive.witness_n == 2

    def test_bdf4_call_and_rung_counts(self, monkeypatch):
        # each rung of the one precision ladder builds exactly one closed
        # form; the pinned counts guard against extra ladders or calls
        counts = Counter()

        def rebind(fn, key, per_item=False):
            if per_item:
                def counting(*args, **kwargs):
                    for item in fn(*args, **kwargs):
                        counts[key] += 1
                        yield item
            else:
                def counting(*args, **kwargs):
                    counts[key] += 1
                    return fn(*args, **kwargs)

            # wherever a module binds the name, as perfbench/trace.py does
            for name, mod in list(sys.modules.items()):
                if name.startswith("scbcert.") and mod is not None:
                    for attr, obj in list(vars(mod).items()):
                        if obj is fn:
                            monkeypatch.setattr(mod, attr, counting)

        rebind(analyzer.check_scb, "check_scb")
        rebind(recursion.closed_form, "closed_form")
        rebind(arith.precision_ladder, "rungs", per_item=True)
        # seeds reach interval Newton at their full precision, so every root
        # certifies at the first trial box: one newton_certify per root
        rebind(poly.newton_root, "newton_root")
        rebind(poly.newton_certify, "newton_certify")
        r = gamma_sup(catalog("bdf4"), F(1, 10**9))
        assert r.mechanism is Mechanism.CROSSOVER
        assert counts["rungs"] == counts["closed_form"]
        assert counts["newton_certify"] == counts["newton_root"]
        # guesses decide 26 of the 28 bisection steps: check_scb runs at the
        # two infeasible halving points 1 and 1/2 and at the two open steps,
        # which are the reported endpoints; the feasible bracket point 1/4 is
        # guessed
        assert (r.guessed_steps, r.certified_steps) == (26, 2)
        assert dict(counts) == {
            "check_scb": 4, "closed_form": 3, "rungs": 3, "newton_root": 9, "newton_certify": 9,
        }


def _unguided(monkeypatch):
    monkeypatch.setattr(analyzer, "_guess_feasible", lambda m, gamma, horizon: None)


class TestGuidedBisection:
    """gamma_sup's bisection is steered by uncertified guesses; only the
    reported endpoints are certified, and a wrong guess costs a rerun."""

    @pytest.mark.parametrize("name", methods.catalog_names())
    def test_guided_equals_fully_certified(self, name, monkeypatch):
        guided = gamma_sup(catalog(name), F(1, 10**9))
        _unguided(monkeypatch)
        certified = gamma_sup(catalog(name), F(1, 10**9))
        assert guided == certified
        assert repr(guided) == repr(certified)
        assert certified.guessed_steps == 0
        # no fallback: each step is decided once
        assert guided.guessed_steps + guided.certified_steps == certified.certified_steps

    @pytest.mark.parametrize(
        "name, at",
        [
            ("bdf4", None), ("ab3", None), ("bdf3", None),
            ("ab4", None),  # at 1: the halving that ends in NONE_POSITIVE
            ("bdf6", F(1, 8)),  # the bracket's feasible point
            ("bdf1", analyzer.UNBOUNDED_CAP),  # the top of the doubling ladder
        ],
        ids=["bdf4", "ab3", "bdf3", "ab4", "bdf6-at-eighth", "bdf1-at-cap"],
    )
    def test_lying_guess_falls_back(self, name, at, monkeypatch):
        # the first guess given, or the one at gamma = at, is flipped
        honest = gamma_sup(catalog(name), F(1, 10**9))
        real_guess = analyzer._guess_feasible
        flipped = []

        def lying(m, gamma, horizon):
            guess = real_guess(m, gamma, horizon)
            if guess is not None and not flipped and at in (None, gamma):
                flipped.append(gamma)
                return not guess
            return guess

        monkeypatch.setattr(analyzer, "_guess_feasible", lying)
        r = gamma_sup(catalog(name), F(1, 10**9))
        assert flipped
        assert r == honest and repr(r) == repr(honest)
        if honest.hi is not None:  # a bisected bracket
            assert honest.guessed_steps > 0
            # the fallback rerun certified every bisection step once more
            steps = honest.guessed_steps + honest.certified_steps
            assert r.certified_steps >= steps
            assert r.cert_lo.gamma == r.lo and r.cert_hi.gamma == r.hi

    def test_bdf1_certifies_only_the_cap(self, monkeypatch):
        # every rung of the doubling ladder is guessed feasible; only
        # lo = UNBOUNDED_CAP is certified, and the report is the unguided one
        calls = []
        real_check = analyzer.check_scb

        def spy(m, gamma, *args):
            calls.append(gamma)
            return real_check(m, gamma, *args)

        monkeypatch.setattr(analyzer, "check_scb", spy)
        guided = gamma_sup(catalog("bdf1"), F(1, 10**9))
        assert calls == [analyzer.UNBOUNDED_CAP]
        _unguided(monkeypatch)
        certified = gamma_sup(catalog("bdf1"), F(1, 10**9))
        assert len(calls) == 1 + 21
        assert guided == certified and repr(guided) == repr(certified)
        assert guided.ladder == certified.ladder == tuple(F(2**i) for i in range(21))

    def test_near_double_root_is_left_to_check_scb(self, monkeypatch):
        # chi = (z - 7/10)(z - 7/10 - 10^-11) at gamma = 1: doubles see a
        # conjugate pair there, so without the separation guard the guess
        # would say infeasible where check_scb certifies feasible
        delta = F(1, 10**11)
        m = Method(k=2, a=(F(14, 10) + delta, F(51, 100) - F(7, 10) * delta),
                   b=(F(0), F(0), F(1)), name="near-double")
        assert check_scb(m, F(1)).status is Feasibility.FEASIBLE
        assert analyzer._guess_feasible(m, F(1), None) is None
        monkeypatch.setattr(analyzer, "GUESS_SEPARATION", 0.0)
        assert analyzer._guess_feasible(m, F(1), None) is False

    def test_endpoints_certified_at_the_reported_points(self, monkeypatch):
        verdicts = []
        real_check = analyzer.check_scb

        def spy(m, gamma, *args):
            v = real_check(m, gamma, *args)
            verdicts.append(v)
            return v

        monkeypatch.setattr(analyzer, "check_scb", spy)
        r = gamma_sup(catalog("bdf6"), F(1, 10**9))
        assert r.cert_lo in verdicts and r.cert_hi in verdicts
        assert (r.cert_lo.gamma, r.cert_lo.status) == (r.lo, Feasibility.FEASIBLE)
        assert (r.cert_hi.gamma, r.cert_hi.status) == (r.hi, Feasibility.INFEASIBLE)
        assert r.guessed_steps > 0


class TestSquarefreeRootEngine:
    def test_closed_forms_skip_the_general_enclosure(self):
        # an exact gamma's closed form has passed the discriminant test, so
        # its roots go straight to the one enclosure engine, enclose_roots,
        # and every catalog verdict on the grid is decided
        for name in methods.catalog_names():
            m = catalog(name)
            for i in range(1, 31):
                v = check_scb(m, F(i, 10))
                assert v.status is not Feasibility.INCONCLUSIVE, (name, i)
            assert scb_exists(m).status is not Existence.INCONCLUSIVE, name


class TestVerifyAgainstPoly:
    def test_refuted_wrong_poly(self):
        r = gamma_sup(catalog("bdf3"), F(1, 10**6))
        assert verify_against_poly(r, [1, 0, -2], "smallest") == "refuted"

    def test_confirmed_published(self):
        r = gamma_sup(catalog("ab3"), F(1, 10**9))
        entry = published.GAMMA_SUP_POLYS["ab3"]
        assert verify_against_poly(r, entry["poly"], entry["selector"]) == "confirmed"

    def test_selector_mismatch(self):
        r = gamma_sup(catalog("ab3"), F(1, 10**9))
        # the bdf3 quartic has four real roots: "unique" must refute
        assert (
            verify_against_poly(r, published.GAMMA_SUP_POLYS["bdf3"]["poly"], "unique")
            == "refuted"
        )


_root = st.builds(F, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def _poly_and_bracket(draw):
    """An integer polynomial with chosen rational roots, one of them possibly
    repeated, times x^2 + c with c > 0; and a bracket [lo, hi] whose
    endpoints may be roots."""
    roots = draw(st.lists(_root, max_size=4))
    if roots and draw(st.booleans()):
        roots += [draw(st.sampled_from(roots))] * draw(st.integers(1, 2))
    c = draw(st.builds(F, st.integers(1, 20), st.integers(1, 6)))
    sign = draw(st.sampled_from([1, -1]))
    p = [sign * c.denominator, 0, sign * c.numerator]
    for r in roots:
        p = poly.mul(p, [r.denominator, -r.numerator])
    lo = draw(st.sampled_from(roots + [draw(_root)]))
    above = [r for r in roots if r > lo]
    if above and draw(st.booleans()):
        hi = draw(st.sampled_from(above))
    else:
        hi = lo + draw(st.builds(F, st.integers(1, 24), st.integers(1, 6)))
    return p, lo, hi


def _isolation_verdict(p, lo, hi, selector):
    """verify_against_poly by isolating every real root: the smallest one is
    designated, and each root is placed inside or outside [lo, hi]."""
    encs = poly.isolate_real_roots(p)
    wanted = {"unique": 1, "smaller": 2, "smallest": len(encs)}[selector]
    if not encs or len(encs) != wanted:
        return "refuted"

    def in_closed(enc):
        if any(poly.sign_at_fraction(list(enc.poly), x) == 0 and enc.contains(x) for x in (lo, hi)):
            return True  # the isolated root is the endpoint itself
        while True:
            if lo <= enc.lo and enc.hi <= hi:
                return True
            if enc.hi <= lo or enc.lo >= hi:
                return False
            enc = poly.refine(enc, enc.width() / 4)

    inside = [i for i, enc in enumerate(encs) if in_closed(enc)]
    return "confirmed" if inside == [0] else "refuted"


class TestVerifyAgainstPolyCounts:
    """verify_against_poly's three Sturm counts give the verdict of isolating
    every real root."""

    @settings(max_examples=300, deadline=None)
    @given(_poly_and_bracket())
    @example(([1, -5, 7, -3], F(1), F(2)))  # (x - 1)^2 (x - 3), lo the double root
    @example(([1, -5, 7, -3], F(0), F(1)))  # hi the double root
    @example(([1, 0, 1], F(-1), F(1)))  # no real root
    def test_equals_isolation(self, case):
        p, lo, hi = case
        r = analyzer.GammaSupResult("poly", Mechanism.CROSSOVER, lo=lo, hi=hi)
        for selector in ("unique", "smaller", "smallest"):
            assert verify_against_poly(r, p, selector) == _isolation_verdict(p, lo, hi, selector)

    def test_double_root_at_lo_confirmed(self):
        # every Sturm term vanishes at a double root: the counts there use
        # the signs just right of it
        r = analyzer.GammaSupResult("poly", Mechanism.CROSSOVER, lo=F(1), hi=F(2))
        p = [1, -5, 7, -3]  # (x - 1)^2 (x - 3)
        assert poly.count_real_roots(p, F(1), F(2)) == 0
        assert poly.count_real_roots(p, F(0), F(1)) == 1
        assert verify_against_poly(r, p, "smaller") == "confirmed"
        assert verify_against_poly(r, p, "smallest") == "confirmed"
        assert verify_against_poly(r, p, "unique") == "refuted"
