import functools
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mpmath

from scbcert import analyzer, methods, poly
from scbcert.poly import RootCondition

BDF3_QUARTIC = [5184, -539352, 4277340, -7093698, 3248425]
BDF4_QUINTIC = [147456, -4065024, 97751296, -178921248, 146499984, -39945535]


def printed_in(enc, text):
    v = F(text)
    ulp = F(1, 10 ** len(text.split(".")[1])) if "." in text else F(1)
    return enc.lo - ulp <= v <= enc.hi + ulp


class TestIsolateRealRoots:
    def test_bdf3_quartic(self):
        encs = poly.isolate_real_roots(BDF3_QUARTIC)
        assert len(encs) == 4
        smallest = poly.refine(encs[0], F(1, 10**12))
        assert printed_in(smallest, "0.831264155297")
        # the other three zeros
        assert printed_in(poly.refine(encs[1], F(1, 10**5)), "1.22747")
        assert printed_in(poly.refine(encs[2], F(1, 10**5)), "6.42689")
        assert printed_in(poly.refine(encs[3], F(1, 10**3)), "95.556")

    def test_bdf4_quintic(self):
        encs = poly.isolate_real_roots(BDF4_QUINTIC)
        assert len(encs) == 1
        assert printed_in(poly.refine(encs[0], F(1, 10**12)), "0.486220284043")

    def test_x_squared_minus_four(self):
        encs = poly.isolate_real_roots([1, 0, -4])
        assert len(encs) == 2
        assert poly.refine(encs[0], F(1, 100)).contains(F(-2)) or encs[0].contains(F(-2))
        assert poly.refine(encs[1], F(1, 100)).contains(F(2)) or encs[1].contains(F(2))

    def test_rational_root_exact_hit(self):
        # (2x - 1)(x - 3): bisection midpoints land on roots
        p = poly.mul([2, -1], [1, -3])
        encs = poly.isolate_real_roots(p)
        assert len(encs) == 2
        assert encs[0].contains(F(1, 2))
        assert encs[1].contains(F(3))

    def test_multiplicities(self):
        # (x-1)^2 (x+2)
        p = poly.mul(poly.mul([1, -1], [1, -1]), [1, 2])
        encs = poly.isolate_real_roots(p)
        mults = sorted((e.multiplicity for e in encs))
        assert mults == [1, 2]

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            poly.isolate_real_roots([])


class TestRefine:
    def test_bdf3_to_1e15(self):
        enc = poly.isolate_real_roots(BDF3_QUARTIC)[0]
        r = poly.refine(enc, F(1, 10**15))
        assert r.width() <= F(1, 10**15)
        assert r.lo >= enc.lo and r.hi <= enc.hi
        assert printed_in(r, "0.831264155297")

    def test_linear_half(self):
        enc = poly.isolate_real_roots([2, -1])[0]
        r = poly.refine(enc, F(1, 10**9))
        assert r.contains(F(1, 2))
        assert r.width() <= F(1, 10**9)

    def test_bdf6_degree18(self):
        from scbcert.published import GAMMA_SUP_POLYS

        p = GAMMA_SUP_POLYS["bdf6"]["poly"]
        encs = poly.isolate_real_roots(p)
        assert len(encs) == 2
        r = poly.refine(encs[0], F(1, 10**12))
        assert printed_in(r, "0.131359487166")


def squarefree(p):
    """Squarefree part of the integer polynomial p: its Yun factors multiplied."""
    return functools.reduce(poly.mul, (q for q, _ in poly.yun_squarefree(p)), [1])


def all_root_classes(p, width, digits=64):
    """(box, is_pair, multiplicity) for every distinct root of p, a conjugate
    pair once by its upper box: enclose_roots on each Yun factor."""
    out = []
    for q, mult in poly.yun_squarefree(poly.to_integer(p)):
        out += [(box, is_pair, mult) for box, is_pair in poly.enclose_roots(q, width, digits)]
    return out


def on_real_line(box):
    """The box's imaginary part is the point 0."""
    return box.im.lo_fraction() == box.im.hi_fraction() == 0


def holds(box, re, im=0):
    return box.re.contains_fraction(re) and box.im.contains_fraction(im)


def root_count(classes):
    """Roots counted with multiplicity, two for each conjugate pair."""
    return sum(mult * (2 if is_pair else 1) for _, is_pair, mult in classes)


class TestEncloseAllRoots:
    def test_ebdf3_cubic(self):
        # 11 z^3 - 18 z^2 + 9 z - 2 = (z-1)(11 z^2 - 7 z + 2)
        classes = all_root_classes([F(11), F(-18), F(9), F(-2)], F(1, 10**7))
        assert root_count(classes) == 3
        reals = [box for box, is_pair, _ in classes if not is_pair]
        pairs = [box for box, is_pair, _ in classes if is_pair]
        assert len(reals) == 1 and len(pairs) == 1
        assert reals[0].re.contains_fraction(1)
        for box in pairs:
            m = box.modulus()
            # modulus enclosure within (sqrt(2/11) - 1e-6, sqrt(2/11) + 1e-6)
            assert m.pow_int(2).contains_fraction(F(2, 11))
            assert m.width_fraction() < F(2, 10**6)

    def test_ebdf5_quartic_moduli(self):
        classes = all_root_classes([F(137), F(-163), F(137), F(-63), F(12)], F(1, 10**7))
        assert root_count(classes) == 4
        assert all(is_pair for _, is_pair, _ in classes)
        assert all(box.modulus().hi_fraction() <= F(71, 100) for box, _, _ in classes)

    def test_z2_minus_one(self):
        classes = all_root_classes([F(1), F(0), F(-1)], F(1, 100))
        boxes = [box for box, _, _ in classes]
        vals = sorted(box.re.mid_fraction() for box in boxes)
        assert any(box.re.contains_fraction(-1) for box in boxes)
        assert root_count(classes) == 2 and len(classes) == 2 and vals[0] < 0 < vals[1]

    def test_conjugate_symmetry_and_count(self):
        rng = random.Random(42)
        for _ in range(40):
            deg = rng.randint(1, 6)
            p = [F(rng.randint(-9, 9)) for _ in range(deg + 1)]
            p[0] = F(rng.randint(1, 9))
            classes = all_root_classes(p, F(1, 10**4))
            assert root_count(classes) == deg
            # a pair is listed once, by a box strictly above the real axis
            for box, is_pair, _ in classes:
                if is_pair:
                    assert box.im.lo_fraction() > 0
                else:
                    assert on_real_line(box)

    def test_multiple_roots(self):
        # (z^2+1)^2 (z-1/2)
        sq = poly.mul([F(1), F(0), F(1)], [F(1), F(0), F(1)])
        p = poly.mul(sq, [F(1), F(-1, 2)])
        classes = all_root_classes(p, F(1, 10**5))
        assert root_count(classes) == 5
        per_root = [mult for _, is_pair, mult in classes for _ in range(2 if is_pair else 1)]
        assert sorted(per_root) == [1, 2, 2]


# Root layouts with known exact roots, drawn as (integer factor, roots): each
# root is (re, im) with im >= 0, one entry per real root or conjugate pair.
_TINY = F(1, 10**20)
_point = st.tuples(st.integers(-40, 40), st.integers(1, 40)).map(lambda pq: F(*pq))
_simple_real = _point.map(lambda a: ([a.denominator, -a.numerator], [(a, 0)]))
# (z - a)(z - a - 10^-20)
_close_reals = _point.map(
    lambda a: (
        poly.mul([a.denominator, -a.numerator], poly.to_integer([1, -a - _TINY])),
        [(a, 0), (a + _TINY, 0)],
    )
)
# (z - a)^2 + 10^-40: the pair a +- i 10^-20
_thin_pair = _point.map(
    lambda a: (poly.to_integer([1, -2 * a, a * a + _TINY * _TINY]), [(a, _TINY)])
)
_zero_root = st.just(([1, 0], [(F(0), 0)]))
_layout = st.lists(
    st.one_of(_simple_real, _close_reals, _thin_pair, _zero_root),
    min_size=1,
    max_size=4,
    unique_by=lambda f: f[1][0][0],  # distinct real parts keep the product squarefree
)


def _real_roots_in(p, lo, hi):
    """Distinct real roots of p in the closed interval [lo, hi], by Sturm."""
    return poly.count_real_roots(p, lo, hi) + (poly.sign_at_fraction(p, lo) == 0)


def _check_against_sturm(p, digits=64):
    """enclose_roots on the squarefree integer polynomial p against Sturm
    counting; returns the root classes for further checks."""
    width = F(1, 10**30)
    classes = poly.enclose_roots(p, width, digits)
    real = [box for box, is_pair in classes if not is_pair]
    assert len(real) == poly.count_real_roots(p)
    for box in real:
        assert on_real_line(box) and box.width_fraction() <= width
        assert _real_roots_in(p, box.re.lo_fraction(), box.re.hi_fraction()) == 1
    for box, is_pair in classes:
        if is_pair:
            assert box.im.lo_fraction() > 0 and box.width_fraction() <= width
    assert len(real) + 2 * (len(classes) - len(real)) == poly.degree(p)
    return classes


class TestRootEngine:
    def test_seed_keeps_its_precision(self):
        # a 200-digit seed must reach Newton whole, not rounded to a double
        with mpmath.workdps(200):
            x, neg = mpmath.mpf(1) / 3, mpmath.mpf(-2) / 3
        assert poly._mpf_fraction(x) == F(x.man, 2 ** -x.exp)
        assert abs(poly._mpf_fraction(x) - F(1, 3)) < F(1, 10**199)
        assert abs(poly._mpf_fraction(neg) + F(2, 3)) < F(1, 10**199)

    @settings(max_examples=150, deadline=None)
    @given(_layout)
    # doubles split this pair into two real seeds from which polyroots
    # does not converge; mpmath's own start does
    @example([
        ([1, 0], [(F(0), 0)]),
        (poly.to_integer([1, F(8, 5), F(16, 25) + _TINY * _TINY]), [(F(-4, 5), _TINY)]),
    ])
    def test_known_roots_against_sturm(self, layout):
        p = [1]
        roots = []
        for factor, rs in layout:
            p = poly.mul(p, factor)
            roots += rs
        classes = _check_against_sturm(poly.primitive(p))
        assert len(classes) == len(roots)
        for re, im in roots:
            holders = [
                is_pair for box, is_pair in classes if holds(box, re, im)
            ]
            assert holders == [im > 0], (re, im)

    def test_huge_roots_are_scaled_before_seeding(self):
        # the double-precision pass overflows on these as they stand;
        # _approx_roots seeds and polishes the roots scaled by 2^-e instead
        big = 10**60
        p = poly.mul(poly.mul([1, -big], [1, -2 * big]), [1, -3 * big])
        for q, n_classes in ((p, 3), ([1, 0, 10**200], 1)):
            assert poly._float_seeds([F(c) for c in q]) is None
            assert len(poly.enclose_roots(q, F(1, 10**30), 256)) == n_classes

    def test_coefficient_overflow_is_scaled_away(self):
        # the constant term, about 7.2e314, is past the largest double, and
        # polyroots' absolute tolerance never stops on roots near 10^52
        # unless they are scaled to modulus about 1 first
        p = [1]
        for j in range(1, 7):
            p = poly.mul(p, [1, -j * 10**52])
        assert poly._float_seeds([F(c) for c in p]) is None
        # 10^-6 is about 10^-58 of the roots: as fine as 64 digits go
        for digits, width in ((64, F(1, 10**6)), (200, F(1, 10**30))):
            classes = poly.enclose_roots(p, width, digits)
            assert len(classes) == 6
            for j, (box, is_pair) in enumerate(sorted(classes, key=lambda c: c[0].re.lo_fraction()), 1):
                assert not is_pair and holds(box, j * 10**52)
                assert box.width_fraction() <= width

    @pytest.mark.parametrize(
        "roots",
        [[j * 10**52 for j in range(1, 7)], [j * 10**40 + 7 for j in range(1, 4)]],
        ids=["j*10^52", "j*10^40+7"],
    )
    def test_width_is_relative_past_the_huge_bound(self, roots):
        # an absolute 10^-30 is finer than 64 digits reach on roots this
        # large; past HUGE_ROOT_BOUND the width counts relative to 2^e
        p = [1]
        for r in roots:
            p = poly.mul(p, [1, -r])
        assert poly.cauchy_bound(p) > poly.HUGE_ROOT_BOUND
        scaled = F(1, 10**30) * 2 ** poly._root_scale_exponent([F(c) for c in p])
        classes = poly.enclose_roots(p, F(1, 10**30), 64)
        assert len(classes) == len(roots)
        for r in roots:
            (box,) = [box for box, _ in classes if holds(box, r)]
            assert on_real_line(box) and box.width_fraction() <= scaled
        # 2^e is Fujiwara's bound, within a few bits of the largest root
        assert max(roots) * F(1, 10**30) <= scaled < max(roots) * F(16, 10**30)

    def test_scaling_leaves_small_bounds_alone(self, monkeypatch):
        # below HUGE_ROOT_BOUND the roots come from the unscaled polynomial
        monkeypatch.setattr(poly, "_root_scale_exponent", lambda p: 1 / 0)
        p = [F(c) for c in poly.mul([1, -(2**60)], [1, 0, 1])]
        assert poly.cauchy_bound(p) <= poly.HUGE_ROOT_BOUND
        assert len(poly._approx_roots(p, 30)) == 3

    def test_cluster_beside_a_pair(self):
        # (7z - 3)(z - 3/7 - 10^-20)(z^2 + 1): two reals 10^-20 apart
        a = F(3, 7)
        p = poly.mul(poly.mul([7, -3], poly.to_integer([1, -a - _TINY])), [1, 0, 1])
        assert poly._float_seeds([F(c) for c in p]) is not None
        classes = _check_against_sturm(poly.primitive(p))
        assert len(classes) == 3

    def test_catalog_characteristic_polynomials(self):
        rng = random.Random(20261018)
        for name in methods.catalog_names():
            m = methods.catalog(name)
            for _ in range(6):
                g = F(rng.randint(1, 300), rng.randint(1, 100))
                p = squarefree(poly.to_integer(methods.char_poly_mu(m, g)))
                _check_against_sturm(p)


class TestRootCondition:
    def test_bdf2_rho(self):
        # oracle: exact factorization (z-1)(z-1/3)
        rho = poly.mul([F(1), F(-1)], [F(1), F(-1, 3)])
        assert rho == [F(1), F(-4, 3), F(1, 3)]
        assert poly.root_condition(rho) is RootCondition.SATISFIED

    def test_double_root_on_circle(self):
        assert poly.root_condition([F(1), F(-2), F(1)]) is RootCondition.VIOLATED

    def test_strict(self):
        assert poly.root_condition([F(1), F(0), F(-1, 4)]) is RootCondition.SATISFIED_STRICTLY

    def test_outside(self):
        assert poly.root_condition([F(1), F(0), F(-4)]) is RootCondition.VIOLATED
        # (z - 2)(2z - 1): inversion-related roots off the circle
        p = poly.mul([F(1), F(-2)], [F(2), F(-1)])
        assert poly.root_condition(p) is RootCondition.VIOLATED

    def test_simple_circle_pair(self):
        # z^2 - z + 1: roots exp(+-i pi/3), simple, on the circle
        assert poly.root_condition([F(1), F(-1), F(1)]) is RootCondition.SATISFIED
        # (z^2 - 1)(2z - 1): circle roots 1 and -1 beside 1/2
        p = poly.mul([F(1), F(0), F(-1)], [F(2), F(-1)])
        assert poly.root_condition(p) is RootCondition.SATISFIED

    def test_constructed_oracle(self):
        """Random products with known root layout vs the decision procedure."""
        rng = random.Random(99)
        for _ in range(60):
            factors = []
            worst = 0  # 0 strict, 1 on-circle simple, 2 violated
            n_factors = rng.randint(1, 3)
            for _ in range(n_factors):
                kind = rng.choice(["inside", "on_real", "on_pair", "outside"])
                if kind == "inside":
                    r = F(rng.randint(-9, 9), 10)
                    factors.append([F(1), -r])
                elif kind == "on_real":
                    r = rng.choice([F(1), F(-1)])
                    factors.append([F(1), -r])
                    worst = max(worst, 1)
                elif kind == "on_pair":
                    c = F(rng.randint(-9, 9), 10)  # cos in (-1, 1)
                    factors.append([F(1), -2 * c, F(1)])
                    worst = max(worst, 1)
                else:
                    r = F(rng.randint(11, 30), 10)
                    factors.append([F(1), -r])
                    worst = 2
            p = [F(1)]
            for f in factors:
                p = poly.mul(p, f)
            # repeated on-circle factors are violations
            seen = {}
            for f in map(tuple, factors):
                seen[f] = seen.get(f, 0) + 1
            for f, cnt in seen.items():
                if cnt > 1 and poly.root_condition(list(f)) is RootCondition.SATISFIED:
                    worst = 2
            got = poly.root_condition(p)
            expect = {
                0: RootCondition.SATISFIED_STRICTLY,
                1: RootCondition.SATISFIED,
                2: RootCondition.VIOLATED,
            }[worst]
            assert got is expect, (factors, got, expect)


def _linear(p, q):
    """q z - p: the single root p/q."""
    return [F(q), F(-p)]


# Factors with known root moduli, drawn as (layout, integer factor).  A layout
# is "inside", "circle" (simple roots of modulus 1) or "outside" (at least one
# root of modulus > 1).  The circle factors have pairwise distinct roots.
# The quartic ones are the cyclotomic polynomials Phi_5, Phi_8, Phi_10, Phi_12.
CIRCLE_FACTORS = [
    [1, -1],
    [1, 1],
    [1, 0, 1],
    [1, -1, 1],
    [1, 1, 1],
    [1, 1, 1, 1, 1],
    [1, 0, 0, 0, 1],
    [1, -1, 1, -1, 1],
    [1, 0, -1, 0, 1],
]

_ratio = st.tuples(st.integers(-40, 40), st.integers(1, 40))
_inside_real = _ratio.filter(lambda pq: abs(pq[0]) < pq[1]).map(lambda pq: _linear(*pq))
_outside_real = _ratio.filter(lambda pq: abs(pq[0]) > pq[1]).map(lambda pq: _linear(*pq))
# (q z - p)(p z - q): roots p/q and q/p, neither on the circle; and
# (d z^2 + b z + c)(c z^2 + b z + d) with b^2 < 4dc: conjugate pairs of
# modulus^2 c/d and d/c
_reciprocal_pair = st.one_of(
    st.tuples(st.integers(1, 40), st.integers(1, 40), st.sampled_from([1, -1]))
    .filter(lambda t: t[0] != t[1])
    .map(lambda t: poly.mul(_linear(t[2] * t[0], t[1]), _linear(t[2] * t[1], t[0]))),
    st.tuples(st.integers(1, 30), st.integers(1, 30), st.integers(-60, 60))
    .filter(lambda t: t[0] != t[1] and t[2] * t[2] < 4 * t[0] * t[1])
    .map(lambda t: poly.mul([F(t[0]), F(t[2]), F(t[1])], [F(t[1]), F(t[2]), F(t[0])])),
)
# d z^2 + b z + c with b^2 < 4dc: a conjugate pair of modulus^2 c/d < 1
_inside_pair = (
    st.tuples(st.integers(1, 30), st.integers(1, 30), st.integers(-60, 60))
    .filter(lambda t: t[0] < t[1] and t[2] * t[2] < 4 * t[0] * t[1])
    .map(lambda t: [F(t[1]), F(t[2]), F(t[0])])
)
_factor = st.one_of(
    st.tuples(st.just("inside"), st.one_of(_inside_real, _inside_pair, st.just([F(1), F(0)]))),
    st.tuples(st.just("circle"), st.sampled_from(CIRCLE_FACTORS).map(lambda f: [F(c) for c in f])),
    st.tuples(st.just("outside"), st.one_of(_outside_real, _reciprocal_pair)),
)


class TestSchurCohn:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_factor, min_size=1, max_size=5))
    def test_known_root_layout(self, factors):
        p = [F(1)]
        for _layout, f in factors:
            p = poly.mul(p, f)
        layouts = [layout for layout, _f in factors]
        circle = [tuple(f) for layout, f in factors if layout == "circle"]
        assert poly.all_roots_strictly_inside(p) is all(x == "inside" for x in layouts)
        if "outside" in layouts or len(set(circle)) < len(circle):
            expect = RootCondition.VIOLATED
        elif circle:
            expect = RootCondition.SATISFIED
        else:
            expect = RootCondition.SATISFIED_STRICTLY
        assert poly.root_condition(p) is expect

    def test_zero_constant_term_keeps_alignment(self):
        # z (z^2 - 4): the reversed polynomial has a leading zero
        assert not poly.all_roots_strictly_inside([F(1), F(0), F(-4), F(0)])
        # z^2 (2z - 1)
        assert poly.all_roots_strictly_inside([F(2), F(-1), F(0), F(0)])

    def test_decisions_use_no_enclosures(self, monkeypatch):
        def no_enclosures(*args, **kwargs):
            raise AssertionError("stability decided through a root enclosure")

        def no_sturm(*args, **kwargs):
            raise AssertionError("unit-circle question decided through a Sturm chain")

        monkeypatch.setattr(poly, "enclose_roots", no_enclosures)
        grid = [F(i, 8) for i in range(1, 41)]
        for name in methods.catalog_names():
            m = methods.catalog(name)
            assert methods.validate(m).ok, name
            answers = {analyzer.in_stability_interior(m, -g) for g in grid}
            assert {type(a) for a in answers} == {bool}
            assert True in answers, name

        monkeypatch.setattr(poly, "pseudo_sturm_chain", no_sturm)
        circle = {}
        # rho = (z - 1)(z^2 + 1): the circle roots +-i beside 1
        custom = methods.Method(3, (1, -1, 1), (0, 2, 0, 0))
        for name in methods.catalog_names() + ["custom"]:
            m = custom if name == "custom" else methods.catalog(name)
            assert methods.validate(m).ok, name
            circle[name] = analyzer._only_circle_root_is_one(
                list(methods.generating_polys(m).rho)
            )
        # ab3's rho = z^3 - z^2 has a double root at zero
        assert circle["ab3"] is True
        assert circle["custom"] is False


class TestDiscriminant:
    def test_quadratic(self):
        # x^2 + bx + c -> b^2 - 4c
        assert poly.discriminant([F(1), F(3), F(5)]) == 9 - 20
        assert poly.discriminant([F(1), F(-7), F(2)]) == 49 - 8

    def test_double_root(self):
        assert poly.discriminant([F(1), F(-2), F(1)]) == 0

    def test_resultant_vs_common_root(self):
        p = poly.mul([F(1), F(-2)], [F(1), F(5)])
        q = poly.mul([F(1), F(-2)], [F(1), F(1)])
        assert poly.resultant(p, q) == 0
        q2 = [F(1), F(1)]
        assert poly.resultant(p, q2) != 0


class TestSturmConsistency:
    def test_sturm_counts_match_isolation(self):
        rng = random.Random(20260810)
        for _ in range(500):
            deg = rng.randint(1, 8)
            p = [rng.randint(-9, 9) for _ in range(deg + 1)]
            if p[0] == 0:
                p[0] = 1
            sf = squarefree(p)
            if poly.degree(sf) < 1:
                continue
            chain = poly.sturm_chain(sf)
            total = poly.sturm_variations_inf(chain, False) - poly.sturm_variations_inf(
                chain, True
            )
            encs = poly.isolate_real_roots(p)
            assert len(encs) == total


class TestUnitCircleRoots:
    """Circle roots of a squarefree p via u = gcd(p, p*) and Cohn's theorem:
    the roots of the self-inversive u lie on the circle iff those of u' lie
    strictly inside."""

    @staticmethod
    def _circle_part(p):
        u = poly.gcd_int_poly(p, poly.reverse(p))
        if poly.degree(u) < 1 or not poly._schur_cohn_inside(poly.derivative(u)):
            return [1]
        return u

    def test_cyclotomic_quadratic(self):
        u = self._circle_part([1, -1, 1])
        assert poly.degree(u) == 2
        assert poly.sign_at_fraction(u, F(1)) != 0
        assert poly.sign_at_fraction(u, F(-1)) != 0

    def test_mixed(self):
        # (z-1)(z+1)(z - 1/2) cleared: (z^2-1)(2z-1)
        p = poly.mul([1, 0, -1], [2, -1])
        u = self._circle_part(p)
        assert poly.degree(u) == 2
        assert poly.sign_at_fraction(u, F(1)) == 0
        assert poly.sign_at_fraction(u, F(-1)) == 0

    def test_reciprocal_pair_not_counted(self):
        # (z-2)(z-1/2) cleared: roots are inversion-related but off the circle
        p = poly.mul([1, -2], [2, -1])
        assert poly.degree(poly.gcd_int_poly(p, poly.reverse(p))) == 2
        assert poly.degree(self._circle_part(p)) == 0


class TestDivisionAndGcd:
    def test_divmod(self):
        a = [F(1), F(0), F(-1)]
        q, r = poly.divmod_exact(a, [F(1), F(-1)])
        assert q == [F(1), F(1)] and r == []

    def test_gcd(self):
        a = poly.mul([1, -1], [1, 2])
        b = poly.mul([1, -1], [3, 5])
        assert poly.gcd_int_poly(a, b) == [1, -1]

    def test_yun(self):
        # (x-1)^3 (x+2)^2 (x-5)
        p = [1]
        for f, m in (([1, -1], 3), ([1, 2], 2), ([1, -5], 1)):
            for _ in range(m):
                p = poly.mul(p, f)
        decomp = dict(
            (tuple(q), i) for q, i in poly.yun_squarefree(p)
        )
        assert decomp == {(1, -5): 1, (1, 2): 2, (1, -1): 3}
