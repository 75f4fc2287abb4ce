"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <id>: PASS/FAIL` line (visible with -s or
in captured output) and asserts both the mathematical claims and the stated
runtime budget.
"""

import functools
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from scbcert import methods, poly, published, recursion
from scbcert.analyzer import (
    Existence,
    Feasibility,
    Mechanism,
    check_scb,
    crossover,
    gamma_sup,
    scb_exists,
)
from scbcert.methods import catalog
from scbcert.recursion import closed_form, mu_prefix, run_mu_signs, tau_prefix


@contextmanager
def criterion(label: str, budget_seconds: float):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print("ACCEPTANCE {}: FAIL ({:.1f}s)".format(label, time.time() - t0))
        raise
    elapsed = time.time() - t0
    print("ACCEPTANCE {}: PASS ({:.1f}s)".format(label, elapsed))
    assert elapsed <= budget_seconds, "runtime budget exceeded"


def ulp(text: str) -> F:
    return F(1, 10 ** len(text.split(".")[1])) if "." in text else F(1)


def encloses_printed(lo: F, hi: F, text: str) -> bool:
    v = F(text)
    u = ulp(text)
    return lo - u <= v <= hi + u


@pytest.fixture(scope="module")
def bdf_gamma_sup_results():
    out = {}
    for name in ("bdf2", "bdf3", "bdf4", "bdf5", "bdf6"):
        out[name] = gamma_sup(catalog(name), F(1, 10**7))
    return out


def test_criterion_1_ab_exact_values():
    """Optimal coefficients of the explicit Adams family."""
    with criterion("1 (explicit Adams optimal values)", 60):
        expected = {"ab1": F(1), "ab2": F(4, 9), "ab3": F(84, 529)}
        for name, value in expected.items():
            r = gamma_sup(catalog(name), F(1, 10**9))
            assert r.lo is not None and r.hi is not None
            assert r.hi - r.lo <= F(1, 10**9)
            assert r.lo - F(1, 10**9) <= value <= r.hi, name
            assert r.poly_check == "confirmed"
        r4 = gamma_sup(catalog("ab4"), F(1, 10**9))
        assert r4.mechanism is Mechanism.NONE_POSITIVE


def test_criterion_2_bdf_values(bdf_gamma_sup_results):
    """Optimal coefficients of the implicit family, confirmed against the
    published defining polynomials with the published root selectors."""
    with criterion("2 (implicit family optimal values)", 900):
        approx = {
            "bdf2": "0.5",
            "bdf3": "0.831264155297",
            "bdf4": "0.486220284043",
            "bdf5": "0.304213712525",
            "bdf6": "0.131359487166",
        }
        for name, text in approx.items():
            r = bdf_gamma_sup_results[name]
            assert r.hi - r.lo <= F(1, 10**6), name
            assert encloses_printed(r.lo, r.hi, text), name
            assert r.poly_check == "confirmed", name


def test_criterion_3_bdf1_unbounded():
    """Implicit Euler: feasible at every tested coefficient."""
    with criterion("3 (implicit Euler unbounded)", 10):
        m = catalog("bdf1")
        for g in (F(1), F(10**3), F(10**6)):
            v = check_scb(m, g)
            assert v.status is Feasibility.FEASIBLE, g
        r = gamma_sup(m, F(1, 10**6))
        assert r.mechanism is Mechanism.UNBOUNDED
        assert r.ladder


def test_criterion_4_ebdf_positivity():
    """Existence certificates for the explicit extrapolated methods, with
    tail residuals within the published 9/10 margin."""
    with criterion("4 (extrapolated family existence)", 60):
        for name in ("ebdf3", "ebdf4", "ebdf5"):
            v = scb_exists(catalog(name))
            assert v.status is Existence.EXISTS, name
            tail = v.evidence.tail
            assert tail is not None
            assert tail.residual_at_start <= F(9, 10), name


def test_criterion_5_high_precision_sign_pattern():
    """The 16000-digit certified sign pattern of the damped sequence just
    above the bdf4 optimum, and the insufficiency of 15000 digits."""
    with criterion("5 (high-precision sign pattern)", 1800):
        data = published.BDF4_WITNESS_RUN
        m = catalog("bdf4")
        run = run_mu_signs(m, data["gamma"], data["horizon"], data["digits"])
        assert run.negative == list(data["negative_indices"])
        assert not run.unknown
        run_low = run_mu_signs(
            m, data["gamma"], data["horizon"], data["insufficient_digits"]
        )
        assert run_low.unknown, "expected unresolved signs at the lower precision"
        # the feasibility test over the same horizon reports the first
        # negative index as its witness
        v = check_scb(m, data["gamma"], horizon=data["horizon"], digits=data["digits"])
        assert v.status is Feasibility.INFEASIBLE
        assert v.evidence.n == data["negative_indices"][0]


def test_criterion_6_mechanism_attribution(bdf_gamma_sup_results):
    """Mechanism tags: simple-root for bdf3 (with the non-sharp crossover
    bracketed at 5/6, strictly above the optimum), crossover for the rest."""
    with criterion("6 (mechanism attribution)", 300):
        for name, r in bdf_gamma_sup_results.items():
            assert r.mechanism is Mechanism(published.MECHANISM[name]), name
        r3 = bdf_gamma_sup_results["bdf3"]
        assert r3.mechanism_index == published.SIMPLE_ROOT_INDEX["bdf3"]
        cb = crossover(catalog("bdf3"), r3.hi, F(3, 2), tol=F(1, 10**7))
        assert cb is not None
        x = published.BDF3_CROSSOVER
        assert x - F(1, 10**6) <= cb.lo and cb.hi <= x + F(1, 10**6)
        assert cb.lo > r3.hi  # the crossover bound is not sharp here


def test_criterion_7_closed_form_fixtures():
    """Root and coefficient enclosures at the optimal parameter contain the
    published approximations to their printed digits.  The closed form is
    taken at a rational gamma within 1e-30 of the algebraic optimum."""
    with criterion("7 (closed-form fixtures)", 300):
        for name, data in published.CLOSED_FORM_AT_OPTIMUM.items():
            gstar = poly.isolate_real_roots(published.GAMMA_SUP_POLYS[name]["poly"])[0]
            cf = closed_form(catalog(name), gstar.refined(F(1, 10**30)).lo, 80)
            for (r_re, r_im), (c_re, c_im) in zip(data["roots"], data["coeffs"]):
                assert _some_class_matches(cf, r_re, r_im, c_re, c_im), (
                    name,
                    r_re,
                    r_im,
                )
            # the dominant coefficient enclosure contains the printed value
            c1 = data["c1"]
            assert any(
                _box_contains(c, c1, "0")
                for rec, c in zip(cf.roots, cf.coeffs)
                if not rec.is_pair
            ), name


def _box_contains(box, re_s: str, im_s: str) -> bool:
    v_re, v_im = F(re_s), F(im_s)
    u_re, u_im = ulp(re_s), ulp(im_s)
    return (
        box.re.lo_fraction() - u_re <= v_re <= box.re.hi_fraction() + u_re
        and box.im.lo_fraction() - u_im <= v_im <= box.im.hi_fraction() + u_im
    )


def _some_class_matches(cf, r_re, r_im, c_re, c_im) -> bool:
    for rec, c in zip(cf.roots, cf.coeffs):
        if _box_contains(rec.box, r_re, r_im) and _box_contains(c, c_re, c_im):
            return True
    return False


def test_criterion_8_identity_suites():
    """Exact identities, interval containment, and root-analysis properties."""
    with criterion("8 (identity and property suites)", 300):
        # undamped specialization: mu at zero equals tau, every catalog method
        for name in methods.catalog_names():
            m = catalog(name)
            assert mu_prefix(m, F(0), 200) == tau_prefix(m, 200), name

        # exact closed forms
        rng = random.Random(2026)
        m1 = catalog("bdf1")
        for _ in range(100):
            g = F(rng.randint(1, 999), rng.randint(1, 999))
            mus = mu_prefix(m1, g, 50)
            assert all(mus[n] == 1 / (g + 1) ** (n + 1) for n in range(51))
        mus = mu_prefix(catalog("bdf2"), F(1, 2), 100)
        assert all(mus[n] == F(n + 1, 2 ** (n + 1)) for n in range(101))
        mus = mu_prefix(catalog("ab2"), F(4, 9), 60)
        assert all(
            mus[n] == F(3) ** (1 - n) * (2**n - 4 * (-1) ** n) / 4 for n in range(1, 61)
        )

        # interval containment across 2000-term runs
        for name in ("bdf4", "ab3"):
            m = catalog(name)
            g = F(rng.randint(1, 9), rng.randint(10, 29))
            exact = mu_prefix(m, g, 2000)
            _P, balls = recursion._mu_balls(m, g, 2000, 64)
            for n, x, r, S in balls:
                assert F(x - r) / F(2) ** S <= exact[n] <= F(x + r) / F(2) ** S, n

        # root-count conservation and Sturm consistency on 500 random polys
        for _ in range(500):
            deg = rng.randint(1, 8)
            p = [rng.randint(-9, 9) for _ in range(deg + 1)]
            if p[0] == 0:
                p[0] = 1
            factors = poly.yun_squarefree(p)
            sf = functools.reduce(poly.mul, (q for q, _ in factors), [1])
            chain = poly.sturm_chain(sf)
            total = poly.sturm_variations_inf(chain, False) - poly.sturm_variations_inf(
                chain, True
            )
            encs = poly.isolate_real_roots(p)
            assert len(encs) == total
            croots = [
                (is_pair, mult)
                for q, mult in factors
                for _, is_pair in poly.enclose_roots(q, F(1, 10**4), 64)
            ]
            assert sum(mult * (2 if is_pair else 1) for is_pair, mult in croots) == deg


def test_criterion_9_monotonicity_grid():
    """Feasible verdicts form a prefix of the parameter grid."""
    with criterion("9 (monotonicity grid)", 300):
        m = catalog("bdf3")
        verdicts = []
        for i in range(1, 9):
            v = check_scb(m, F(i, 10))
            verdicts.append(v.status is Feasibility.FEASIBLE)
        # all of these lie below the optimum, so the prefix is the whole grid
        assert all(verdicts)
        first_false = verdicts.index(False) if False in verdicts else len(verdicts)
        assert all(verdicts[:first_false]) and not any(verdicts[first_false:])
