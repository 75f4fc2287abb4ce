import functools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mpmath
from mpmath.libmp import to_rational

from scbcert import analyzer, methods, poly, recursion
from scbcert.poly import RootCondition

def to_integer(a):
    """Clear denominators: the primitive integer polynomial with the roots
    of the rational polynomial a."""
    a = [F(x) for x in a]
    den = math.lcm(*(c.denominator for c in a))
    return poly.primitive([int(c * den) for c in a])


def char_poly(m, g):
    """The integer characteristic polynomial chi_g, roots at zero stripped."""
    return recursion._characteristic(m, g)[0]


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
    """(ball, is_pair, multiplicity) for every distinct root of p, a conjugate
    pair once by its upper ball: enclose_roots on each Yun factor."""
    out = []
    for q, mult in poly.yun_squarefree(to_integer(p)):
        out += [(ball, is_pair, mult) for ball, is_pair in poly.enclose_roots(q, width, digits)]
    return out


def on_real_line(ball):
    """The ball's centre is real."""
    return ball.y == 0


def holds(ball, re, im=0):
    return ball.contains(re, im)


def diameter(ball):
    return F(2 * ball.r) / F(2) ** ball.s


def conjugate(ball):
    return ball._replace(y=-ball.y)


def root_count(classes):
    """Roots counted with multiplicity, two for each conjugate pair."""
    return sum(mult * (2 if is_pair else 1) for _, is_pair, mult in classes)


class TestEncloseAllRoots:
    def test_ebdf3_cubic(self):
        # 11 z^3 - 18 z^2 + 9 z - 2 = (z-1)(11 z^2 - 7 z + 2)
        classes = all_root_classes([F(11), F(-18), F(9), F(-2)], F(1, 10**7))
        assert root_count(classes) == 3
        reals = [ball for ball, is_pair, _ in classes if not is_pair]
        pairs = [ball for ball, is_pair, _ in classes if is_pair]
        assert len(reals) == 1 and len(pairs) == 1
        assert holds(reals[0], 1)
        for ball in pairs:
            lo, hi = ball.modulus_bounds()
            # modulus enclosure within (sqrt(2/11) - 1e-6, sqrt(2/11) + 1e-6)
            assert lo * lo <= F(2, 11) <= hi * hi
            assert hi - lo < F(2, 10**6)

    def test_ebdf5_quartic_moduli(self):
        classes = all_root_classes([F(137), F(-163), F(137), F(-63), F(12)], F(1, 10**7))
        assert root_count(classes) == 4
        assert all(is_pair for _, is_pair, _ in classes)
        assert all(ball.modulus_bounds()[1] <= F(71, 100) for ball, _, _ in classes)

    def test_z2_minus_one(self):
        classes = all_root_classes([F(1), F(0), F(-1)], F(1, 100))
        balls = sorted((ball for ball, _, _ in classes), key=lambda ball: ball.re_bounds()[0])
        assert any(holds(ball, -1) for ball in balls)
        assert root_count(classes) == 2 and len(classes) == 2
        assert balls[0].re_bounds()[1] < 0 < balls[1].re_bounds()[0]

    def test_conjugate_symmetry_and_count(self):
        rng = random.Random(42)
        for _ in range(40):
            deg = rng.randint(1, 6)
            p = [F(rng.randint(-9, 9)) for _ in range(deg + 1)]
            p[0] = F(rng.randint(1, 9))
            classes = all_root_classes(p, F(1, 10**4))
            assert root_count(classes) == deg
            # a pair is listed once, by a disk strictly above the real axis
            for ball, is_pair, _ in classes:
                if is_pair:
                    assert ball.y > ball.r
                else:
                    assert on_real_line(ball)

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
        poly.mul([a.denominator, -a.numerator], to_integer([1, -a - _TINY])),
        [(a, 0), (a + _TINY, 0)],
    )
)
# (z - a)^2 + 10^-40: the pair a +- i 10^-20
_thin_pair = _point.map(
    lambda a: (to_integer([1, -2 * a, a * a + _TINY * _TINY]), [(a, _TINY)])
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
    real = [ball for ball, is_pair in classes if not is_pair]
    assert len(real) == poly.count_real_roots(p)
    for ball in real:
        assert on_real_line(ball) and diameter(ball) <= width
        assert _real_roots_in(p, *ball.re_bounds()) == 1
    for ball, is_pair in classes:
        if is_pair:
            assert ball.y > ball.r and diameter(ball) <= width
    assert len(real) + 2 * (len(classes) - len(real)) == poly.degree(p)
    return classes


def _check_residues(m, g):
    """Every coefficient ball of closed_form at 64 digits holds the residue
    z^(order-1) B(1/z) / chi'(z) at the root in its class, computed apart
    with mpmath at 120 digits from polyroots' own roots."""
    try:
        cf = recursion.closed_form(m, g, 64)
    except recursion.MultipleRootError:
        return
    # (1 + g b0) z^k - sum_j (a_j - g b_j) z^(k-j), built apart from the
    # package, on the scale of B(x) = sum_n b_n x^n
    char = [1 + g * m.b0] + [-(a - g * b) for a, b in zip(m.a, m.b[1:])]
    while len(char) > 1 and char[-1] == 0:
        char.pop()
    n_b = recursion._n_inhomogeneous(m)
    with mpmath.workdps(120):

        def mp(q):
            return mpmath.mpf(q.numerator) / q.denominator

        ref = mpmath.polyroots([mp(c) for c in char], maxsteps=500, extraprec=300)
        dchi = [mp(c) for c in poly.derivative(char)]
        for rec, c in zip(cf.roots, cf.coeffs):
            (z,) = [
                z for z in ref
                if rec.ball.contains(*(F(*to_rational(x._mpf_)) for x in (z.real, z.imag)))
            ]
            res = sum(mp(m.b[n]) * z ** (cf.order - 1 - n) for n in range(n_b + 1))
            res /= mpmath.polyval(dchi, z)
            re, im = (F(*to_rational(mpmath.mpf(x)._mpf_)) for x in (res.real, res.imag))
            assert c.contains(re, im), (m.name, g, z)

class TestRootEngine:
    def test_seed_keeps_its_precision(self):
        # a 200-digit seed must reach the Newton polish whole, not rounded to
        # a double; a double seed is taken exactly
        with mpmath.workdps(200):
            z, x = mpmath.mpc(1, -2) / 3, mpmath.mpf(-2) / 3
        prec = 700
        (a, b), (c, d) = poly._fixed_seeds([z, x], prec)
        for got, want in ((a, F(1, 3)), (b, F(-2, 3)), (c, F(-2, 3))):
            assert abs(F(got, 2**prec) - want) < F(1, 10**199)
        assert d == 0
        assert poly._fixed_seeds([0.1 - 0.5j], 80) == [(int(F(0.1) * 2**80), -(2**79))]

    @settings(max_examples=150, deadline=None)
    @given(_layout)
    # doubles split this pair into two real seeds from which polyroots
    # does not converge; mpmath's own start does
    @example([
        ([1, 0], [(F(0), 0)]),
        (to_integer([1, F(8, 5), F(16, 25) + _TINY * _TINY]), [(F(-4, 5), _TINY)]),
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
                is_pair for ball, is_pair in classes if holds(ball, re, im)
            ]
            assert holders == [im > 0], (re, im)

    def test_huge_roots_are_scaled_before_seeding(self):
        # the double-precision pass overflows on these as they stand;
        # enclose_roots seeds, polishes and certifies the roots scaled by
        # 2^-e instead
        big = 10**60
        p = poly.mul(poly.mul([1, -big], [1, -2 * big]), [1, -3 * big])
        for q, n_classes in ((p, 3), ([1, 0, 10**200], 1)):
            assert poly._float_seeds(q) is None
            assert len(poly.enclose_roots(q, F(1, 10**30), 256)) == n_classes

    def test_coefficient_overflow_is_scaled_away(self):
        # the constant term, about 7.2e314, is past the largest double, and
        # polyroots' absolute tolerance never stops on roots near 10^52
        # unless they are scaled to modulus about 1 first
        p = [1]
        for j in range(1, 7):
            p = poly.mul(p, [1, -j * 10**52])
        assert poly._float_seeds(p) is None
        # 10^-6 is about 10^-58 of the roots: as fine as 64 digits go
        for digits, width in ((64, F(1, 10**6)), (200, F(1, 10**30))):
            classes = poly.enclose_roots(p, width, digits)
            assert len(classes) == 6
            for j, (ball, is_pair) in enumerate(sorted(classes, key=lambda c: c[0].re_bounds()), 1):
                assert not is_pair and holds(ball, j * 10**52)
                assert diameter(ball) <= width

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
        scaled = F(1, 10**30) * 2 ** poly._root_scale_exponent(p)
        classes = poly.enclose_roots(p, F(1, 10**30), 64)
        assert len(classes) == len(roots)
        for r in roots:
            (ball,) = [ball for ball, _ in classes if holds(ball, r)]
            assert on_real_line(ball) and diameter(ball) <= scaled
        # 2^e is Fujiwara's bound, within a few bits of the largest root
        assert max(roots) * F(1, 10**30) <= scaled < max(roots) * F(16, 10**30)

    def test_scaling_leaves_small_bounds_alone(self, monkeypatch):
        # below HUGE_ROOT_BOUND the roots come from the unscaled polynomial
        monkeypatch.setattr(poly, "_root_scale_exponent", lambda p: 1 / 0)
        p = poly.mul([1, -(2**60)], [1, 0, 1])
        assert poly.cauchy_bound(p) <= poly.HUGE_ROOT_BOUND
        classes = poly.enclose_roots(p, F(1, 10**30), 64)
        assert [is_pair for _, is_pair in classes] == [False, True]
        assert holds(classes[0][0], 2**60) and holds(classes[1][0], 0, 1)

    def test_cluster_beside_a_pair(self):
        # (7z - 3)(z - 3/7 - 10^-20)(z^2 + 1): two reals 10^-20 apart
        a = F(3, 7)
        p = poly.mul(poly.mul([7, -3], to_integer([1, -a - _TINY])), [1, 0, 1])
        assert poly._float_seeds(p) is not None
        classes = _check_against_sturm(poly.primitive(p))
        assert len(classes) == 3

    def test_catalog_characteristic_polynomials(self):
        rng = random.Random(20261018)
        for name in methods.catalog_names():
            m = methods.catalog(name)
            for _ in range(6):
                g = F(rng.randint(1, 300), rng.randint(1, 100))
                p = squarefree(char_poly(m, g))
                _check_against_sturm(p)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(methods.catalog_names()),
        st.fractions(min_value=F(1, 1000), max_value=3, max_denominator=10**6),
    )
    def test_catalog_roots_against_polyroots(self, name, g):
        # an independent path: mpmath.polyroots at 120 digits from its own
        # start; every root lies in exactly one disk and every disk holds one
        p = squarefree(char_poly(methods.catalog(name), g))
        classes = _check_against_sturm(p)
        balls = [ball for ball, _ in classes]
        balls += [conjugate(ball) for ball, is_pair in classes if is_pair]
        with mpmath.workdps(120):
            ref = mpmath.polyroots([mpmath.mpf(c) for c in p], maxsteps=500, extraprec=300)
        assert len(ref) == len(balls)
        for z in ref:
            re, im = (F(*to_rational(x._mpf_)) for x in (z.real, z.imag))
            assert sum(holds(ball, re, im) for ball in balls) == 1, (name, g, z)
        _check_residues(methods.catalog(name), g)


    def test_width_bounds_the_diameter(self):
        # the root 1/3 of 3z - 1 is not dyadic, so its disk has a radius
        # r > 0: a width between r and 2r is refused, 2r itself accepted
        [(ball, _)] = poly.enclose_roots([3, -1], F(1, 10**30), 64)
        assert ball.r > 0 and holds(ball, F(1, 3))
        with pytest.raises(poly.EnclosureError):
            poly.enclose_roots([3, -1], diameter(ball) * 3 / 4, 64)
        assert poly.enclose_roots([3, -1], diameter(ball), 64) == [(ball, False)]

    def test_dyadic_roots_get_point_boxes(self):
        # ab1 at gamma = 1/2 and bdf1 at 3/5 have the roots 1/2 and 5/8: the
        # tail certificates keep them exact only through radius-0 disks
        for name, g, root in (("ab1", F(1, 2), F(1, 2)), ("bdf1", F(3, 5), F(5, 8))):
            p = char_poly(methods.catalog(name), g)
            [(ball, is_pair)] = poly.enclose_roots(p, F(1, 10**32), 64)
            assert not is_pair and on_real_line(ball) and ball.r == 0
            assert ball.re_bounds() == (root, root)
        # Newton's rounded steps land on a dyadic root among others too
        p = poly.mul(poly.mul([4, -3], [2, -1]), [1, 1, 1])
        reals = [ball for ball, is_pair in poly.enclose_roots(p, F(1, 10**32), 64) if not is_pair]
        assert [ball.re_bounds() for ball in reals] == [
            (F(1, 2), F(1, 2)), (F(3, 4), F(3, 4))
        ]

    def test_disk_test_needs_distinct_centres(self):
        one = 1 << 64
        # z^2 - 1 at its roots: two point disks; the same centre twice, or an
        # upper centre on the axis (its own mirror), is never certified
        assert poly._gerschgorin_disks([1, 0, -1], [(-one, 0), (one, 0)], [], 64) == [
            (-one, 0, 0), (one, 0, 0)
        ]
        assert poly._gerschgorin_disks([1, 0, -1], [(one, 0), (one, 0)], [], 64) is None
        assert poly._gerschgorin_disks([1, 0, -1], [(3 * one, 0), (3 * one, 0)], [], 64) is None
        assert poly._gerschgorin_disks([1, 0, 5, 0, 4], [], [(0, one), (0, one)], 64) is None
        assert poly._gerschgorin_disks([1, 0, 1], [], [(one, 0)], 64) is None
        # distinct centres 2^-64 apart: the point disk at 1 lies in the disk
        # about the other centre, D(-1, 2 + 2^-64)
        assert poly._gerschgorin_disks([1, 0, -1], [(one, 0), (one + 1, 0)], [], 64) is None

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-18, 18), min_size=1, max_size=4, unique=True),
        st.lists(st.integers(-24, 24), min_size=4, max_size=4),
    )
    @example([1], [0])  # 3z - 1: with n = 1 the rounding cover is the whole radius
    def test_disks_hold_one_root_each(self, thirds, offsets):
        # the roots k/3 are not dyadic, so the rounded disk centres miss
        # them; centres are the roots at scale 2^-4, moved by offsets/16,
        # so they can coincide, cross or stray; whatever is certified
        # holds one root
        q = functools.reduce(poly.mul, ([3, -k] for k in thirds), [1])
        reals = [((k << 4) // 3 + o, 0) for k, o in zip(thirds, offsets)]
        disks = poly._gerschgorin_disks(q, reals, [], 4)
        if disks is None:
            return
        for x, y, rad in disks:
            assert y == 0
            assert sum((3 * x - (k << 4)) ** 2 <= 9 * rad**2 for k in thirds) == 1

    def test_seeds_doubles_cannot_split_come_from_polyroots(self, monkeypatch):
        # the close reals (z - 3/7)(z - 3/7 - 10^-20) and the thin pair beside
        # 0 of the @example above: their double seeds do not certify, and
        # mpmath's seeds go through the same polish and disk test
        calls = []
        approx = poly._approx_roots
        monkeypatch.setattr(poly, "_approx_roots", lambda *a: calls.append(a[0]) or approx(*a))
        a = F(3, 7)
        close = poly.mul([7, -3], to_integer([1, -a - _TINY]))
        thin = poly.mul([1, 0], to_integer([1, F(8, 5), F(16, 25) + _TINY * _TINY]))
        for p, n_classes in ((close, 2), (thin, 2)):
            calls.clear()
            assert len(_check_against_sturm(p)) == n_classes
            assert len(calls) == 1
        # coincident double seeds, as if _float_seeds let them through, reach
        # the disk test, which refuses them; the fallback still certifies
        monkeypatch.setattr(poly, "_float_seeds", lambda p: [0.5 + 0j] * (len(p) - 1))
        for p in (close, thin, [1, 0, -1]):
            calls.clear()
            _check_against_sturm(p)
            assert len(calls) == 1


class TestRootCondition:
    def test_bdf2_rho(self):
        # oracle: exact factorization (z-1)(z-1/3)
        rho = poly.mul([1, -1], [3, -1])
        assert rho == [3, -4, 1]
        assert poly.root_condition(rho) is RootCondition.SATISFIED

    def test_double_root_on_circle(self):
        assert poly.root_condition([1, -2, 1]) is RootCondition.VIOLATED

    def test_strict(self):
        assert poly.root_condition([4, 0, -1]) is RootCondition.SATISFIED_STRICTLY

    def test_outside(self):
        assert poly.root_condition([1, 0, -4]) is RootCondition.VIOLATED
        # (z - 2)(2z - 1): inversion-related roots off the circle
        p = poly.mul([1, -2], [2, -1])
        assert poly.root_condition(p) is RootCondition.VIOLATED

    def test_simple_circle_pair(self):
        # z^2 - z + 1: roots exp(+-i pi/3), simple, on the circle
        assert poly.root_condition([1, -1, 1]) is RootCondition.SATISFIED
        # (z^2 - 1)(2z - 1): circle roots 1 and -1 beside 1/2
        p = poly.mul([1, 0, -1], [2, -1])
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
                    factors.append(to_integer([1, -r]))
                elif kind == "on_real":
                    r = rng.choice([1, -1])
                    factors.append([1, -r])
                    worst = max(worst, 1)
                elif kind == "on_pair":
                    c = F(rng.randint(-9, 9), 10)  # cos in (-1, 1)
                    factors.append(to_integer([1, -2 * c, 1]))
                    worst = max(worst, 1)
                else:
                    r = F(rng.randint(11, 30), 10)
                    factors.append(to_integer([1, -r]))
                    worst = 2
            p = [1]
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
    return [q, -p]


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
    .map(lambda t: poly.mul([t[0], t[2], t[1]], [t[1], t[2], t[0]])),
)
# d z^2 + b z + c with b^2 < 4dc: a conjugate pair of modulus^2 c/d < 1
_inside_pair = (
    st.tuples(st.integers(1, 30), st.integers(1, 30), st.integers(-60, 60))
    .filter(lambda t: t[0] < t[1] and t[2] * t[2] < 4 * t[0] * t[1])
    .map(lambda t: [t[1], t[2], t[0]])
)
_factor = st.one_of(
    st.tuples(st.just("inside"), st.one_of(_inside_real, _inside_pair, st.just([1, 0]))),
    st.tuples(st.just("circle"), st.sampled_from(CIRCLE_FACTORS)),
    st.tuples(st.just("outside"), st.one_of(_outside_real, _reciprocal_pair)),
)


class TestSchurCohn:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_factor, min_size=1, max_size=5))
    def test_known_root_layout(self, factors):
        p = [1]
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
        assert not poly.all_roots_strictly_inside([1, 0, -4, 0])
        # z^2 (2z - 1)
        assert poly.all_roots_strictly_inside([2, -1, 0, 0])

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
        # x^2 + bx + c -> b^2 - 4c, and a x^2 + bx + c -> b^2 - 4ac
        assert poly.discriminant([1, 3, 5]) == 9 - 20
        assert poly.discriminant([1, -7, 2]) == 49 - 8
        assert poly.discriminant([3, -7, 2]) == 49 - 24
        # a^(2n-2) prod (r_i - r_j)^2 for 2(z - 1)(z - 2)(z + 1): 2^4 * 36
        assert poly.discriminant(poly.mul([2, -4], [1, 0, -1])) == 576

    def test_double_root(self):
        assert poly.discriminant([1, -2, 1]) == 0

    def test_resultant_vs_common_root(self):
        p = poly.mul([1, -2], [1, 5])
        q = poly.mul([1, -2], [1, 1])
        assert poly.resultant(p, q) == 0
        # prod over the roots 2, -5 of p of q2 = 3z + 1: 7 * (-14)
        assert poly.resultant(p, [3, 1]) == -98


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
        if poly.degree(u) < 1 or not poly.all_roots_strictly_inside(poly.derivative(u)):
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
        assert poly.divexact([1, 0, -1], [1, -1]) == [1, 1]
        assert poly.divexact([6, 1, -1], [3, -1]) == [2, 1]
        assert poly.divexact([], [2, 1]) == []
        # z^2 + 1 = (z - 1)(z + 1) + 2; 2z + 1 over 3z - 1 and 3z over 2z
        # have no integer quotient; z - 1 over z^2 leaves z - 1
        cases = (([1, 0, 1], [1, -1]), ([2, 1], [3, -1]), ([3, 0], [2, 0]), ([1, -1], [1, 0, 0]))
        for a, b in cases:
            with pytest.raises(ValueError):
                poly.divexact(a, b)

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
