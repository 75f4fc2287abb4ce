import random
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_rational, round_ceiling, round_floor, to_rational

from scbcert.arith import (
    ArithmeticDomainError,
    GaussBall,
    IntervalScalar,
    digits_to_bits,
    parse_exact,
    precision_ladder,
)


def bounds(iv):
    """The exact endpoints of an interval."""
    return tuple(F(*to_rational(v)) for v in (iv.lo, iv.hi))


def contains(iv, q):
    lo, hi = bounds(iv)
    return lo <= q <= hi


def interval(lo, hi, digits):
    """[lo, hi] rounded outward to the working precision."""
    bits = digits_to_bits(digits)
    lo, hi = F(lo), F(hi)
    return IntervalScalar(
        from_rational(lo.numerator, lo.denominator, bits, round_floor),
        from_rational(hi.numerator, hi.denominator, bits, round_ceiling),
        bits,
    )


class TestParseExact:
    def test_decimal_is_exact(self):
        assert parse_exact("0.48625") == F(48625, 100000)

    def test_fraction_form(self):
        assert parse_exact("84/529") == F(84, 529)

    def test_scientific(self):
        assert parse_exact("1e-9") == F(1, 10**9)


class TestIntervalBasics:
    def test_third_width(self):
        x = IntervalScalar.from_fraction(F(1, 3), 30)
        lo, hi = bounds(x)
        assert lo <= F(1, 3) <= hi
        assert hi - lo < F(1, 10**28)

    def test_two_sqrt_two_elevenths(self):
        # oracle: 60-digit evaluation of 2*sqrt(2/11), enclosed as the
        # modulus of (7 + i sqrt(39))/11
        oracle = F("0.852802865422441737193750929735357505561496064256679482473764")
        z = ball(F(7, 11), SQRT39 / 11, F(1, 10**30), 200)
        lo, hi = z.modulus_bounds()
        assert F(85, 100) < lo and hi < F(86, 100)
        assert lo <= oracle <= hi + F(1, 10**45)

    def test_x_minus_x_contains_zero(self):
        x = IntervalScalar.from_fraction(F(22, 7), 20)
        assert contains(x.sub(x), 0)

    def test_division_through_zero(self):
        a = IntervalScalar.from_fraction(1, 20)
        b = interval(-1, 1, 20)
        with pytest.raises(ArithmeticDomainError):
            a.div(b)

    def test_width_shrinks_with_precision(self):
        widths = []
        for digits in (15, 30, 60, 120):
            x = IntervalScalar.from_fraction(F(1, 3), digits)
            lo, hi = bounds(x.mul(x).add(x).div(x.sub(IntervalScalar.exact_int(1, digits))))
            widths.append(hi - lo)
        assert all(w2 < w1 for w1, w2 in zip(widths, widths[1:]))

    def test_digits_to_bits(self):
        assert digits_to_bits(16000) == 53151

    def test_precision_ladder(self):
        assert list(precision_ladder(64, 600)) == [64, 128, 256, 512, 600]


rationals = st.fractions(
    min_value=F(-50), max_value=F(50), max_denominator=97
)



@st.composite
def nested_intervals(draw):
    a = draw(rationals)
    b = draw(rationals)
    lo, hi = min(a, b), max(a, b)
    pad_lo = draw(rationals.map(abs))
    pad_hi = draw(rationals.map(abs))
    inner = interval(lo, hi, 30)
    outer = interval(lo - pad_lo, hi + pad_hi, 30)
    return inner, outer


@settings(max_examples=120, deadline=None)
@given(nested_intervals(), nested_intervals(), st.sampled_from(["add", "sub", "mul", "div"]))
def test_inclusion_monotonicity(xy, uv, op):
    x, X = xy
    y, Y = uv
    if op == "div" and Y.contains_zero():
        return
    small = bounds(getattr(x, op)(y))
    big = bounds(getattr(X, op)(Y))
    assert big[0] <= small[0]
    assert small[1] <= big[1]


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        q = F(rng.randint(-40, 40), rng.randint(1, 30))
        return ("leaf", q)
    op = rng.choice(["add", "sub", "mul", "div"])
    return (op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def _eval_exact(node):
    if node[0] == "leaf":
        return node[1]
    a, b = _eval_exact(node[1]), _eval_exact(node[2])
    if node[0] == "add":
        return a + b
    if node[0] == "sub":
        return a - b
    if node[0] == "mul":
        return a * b
    if b == 0:
        raise ZeroDivisionError
    return a / b


def _eval_interval(node, digits):
    if node[0] == "leaf":
        return IntervalScalar.from_fraction(node[1], digits)
    a = _eval_interval(node[1], digits)
    b = _eval_interval(node[2], digits)
    return getattr(a, node[0])(b)


def test_random_expression_containment():
    """1000 random expression trees of depth <= 6: the exact rational result
    lies inside the interval result at several precisions."""
    rng = random.Random(20260810)
    checked = 0
    while checked < 1000:
        tree = _random_expr(rng, rng.randint(1, 6))
        try:
            exact = _eval_exact(tree)
        except ZeroDivisionError:
            continue
        for digits in (12, 30, 64):
            try:
                box = _eval_interval(tree, digits)
            except ArithmeticDomainError:
                # divisor interval straddles zero at this precision; the
                # operation is undefined for intervals even if the exact
                # division exists
                continue
            assert contains(box, exact)
        checked += 1


def test_exact_rational_embedding_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        q = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        x = IntervalScalar.from_fraction(q, 40)
        y = x.add(IntervalScalar.exact_int(0, 40)).mul(IntervalScalar.exact_int(1, 40))
        assert contains(y, q)


# Gaussian-integer balls, checked against exact Gaussian-rational arithmetic.


def ball(re, im=0, rad=0, s=64):
    """A ball at scale 2^-s holding re + i im and every point within rad of
    it: the centre is rounded to the scale and the radius widened to match."""
    unit = F(2) ** -s
    x, y = (round(F(v) / unit) for v in (re, im))
    cover = abs(x * unit - F(re)) + abs(y * unit - F(im))
    return GaussBall(x, y, -(-(F(rad) + cover) // unit), s)


def point(b, t):
    """A point of the ball: its centre moved by the fraction t = (u, v),
    |t| <= 1, of its radius."""
    unit = F(2) ** -b.s
    return (b.x + t[0] * b.r) * unit, (b.y + t[1] * b.r) * unit


def holds(b, re, im=0):
    return b.contains(re, im)


def modulus_holds(b, sq):
    """The modulus bounds of b enclose sqrt(sq)."""
    lo, hi = b.modulus_bounds()
    return lo * lo <= sq <= hi * hi


small = st.fractions(min_value=F(-9), max_value=F(9), max_denominator=50)
radii = st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=F(1, 8), max_denominator=64))
# directions (u, v) with u^2 + v^2 <= 1: a point of the disk, its rim included
directions = st.sampled_from(
    [(F(0), F(0)), (F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1)),
     (F(3, 5), F(4, 5)), (F(-4, 5), F(3, 5)), (F(1, 2), F(-1, 2))]
)
balls = st.builds(ball, small, small, radii, st.integers(-4, 80))


class TestPowAndAbs:
    # the interval cases of power, reciprocal and absolute value, on real balls

    def test_pow_even_straddle(self):
        # [-2, 3] as the ball 1/2 +- 5/2: its square holds 0 and 9
        p = ball(F(1, 2), 0, F(5, 2), 30).pow(2, 100)
        assert p.re_bounds()[0] <= 0 and holds(p, 9) and holds(p, 0)

    def test_pow_negative_exponent(self):
        # a negative power is a quotient: 1 over [2, 3] holds 1/2 and 1/3
        p = GaussBall(1, 0, 0, 0).div(ball(F(5, 2), 0, F(1, 2), 30), 100)
        assert holds(p, F(1, 2)) and holds(p, F(1, 3))

    def test_abs(self):
        lo, hi = ball(F(-5, 2), 0, F(1, 2), 30).modulus_bounds()
        assert (lo, hi) == (2, 3)


SQRT39 = F(isqrt(39 * 10**60), 10**30)  # within 10^-30 below sqrt(39)


class TestComplexBox:
    """Complex balls: the disks the closed forms compute on."""

    def test_mul(self):
        p = ball(1, 2).mul(ball(3, -1), 100)
        assert (p.x, p.y, p.r) == (5 << p.s, 5 << p.s, 0)

    def test_div_roundtrip(self):
        z, w = ball(F(7, 22), F(3, 5), s=140), ball(F(-2, 3), F(1, 7), s=140)
        assert holds(z.mul(w, 140).div(w, 140), F(7, 22), F(3, 5))

    def test_modulus(self):
        lo, hi = ball(3, 4, s=140).modulus_bounds()
        assert lo == hi == 5

    def test_modulus_of_unit_root(self):
        # (7 + i sqrt(39))/22 has modulus sqrt(2/11); sqrt(39) to 30 digits
        z = ball(F(7, 22), SQRT39 / 22, F(1, 10**30), 200)
        assert modulus_holds(z, F(2, 11))

    def test_pow_int(self):
        i = ball(0, 1, s=30)
        i4 = i.pow(4, 60)
        assert i4.r == 0 and i4.re_bounds() == (1, 1) and holds(i4, 1)
        assert holds(i.pow(2, 60), -1) and i.pow(0, 60) == GaussBall(1, 0, 0, 0)


class TestGaussBall:
    def test_quotient_through_zero(self):
        with pytest.raises(ArithmeticDomainError):
            ball(1).div(ball(F(1, 2), 0, F(1, 2)), 64)

    @settings(max_examples=300, deadline=None)
    @given(balls, balls, directions, directions, st.sampled_from([8, 30, 100]))
    @example(ball(F(1, 3)), ball(F(-2, 7), F(1, 5)), (F(0), F(0)), (F(0), F(0)), 8)
    # radius-0 operands whose results are rounded by nearly a unit in both
    # coordinates: a trim that rounds down misses the product, a quotient
    # rounded toward 0 misses the quotient
    @example(
        ball(F(-9, 4), F(131, 16), 0, 5), ball(F(7, 8), F(23, 4), 0, 40),
        (F(0), F(0)), (F(0), F(0)), 8,
    )
    @example(
        ball(1, F(5, 8), 0, 5), ball(F(23, 16), F(-79, 16), 0, 10),
        (F(0), F(0)), (F(0), F(0)), 8,
    )
    def test_operations_against_exact(self, z, w, t, u, prec):
        # every operation holds its exact result at every pair of points of
        # its operands, radius-0 balls included, and its readers bound that
        # point's real part and modulus
        (a, b), (c, d) = point(z, t), point(w, u)
        # product
        assert holds(z.mul(w, prec), a * c - b * d, a * d + b * c)
        # quotient, unless the divisor's disk may hold 0
        n = c * c + d * d
        try:
            q = z.div(w, prec)
        except ArithmeticDomainError:
            lo, _hi = w.modulus_bounds()
            assert lo == 0
        else:
            assert n and holds(q, (a * c + b * d) / n, (b * c - a * d) / n)
        # integer power
        k = (z.x + z.y) % 6
        pr, pi = F(1), F(0)
        for _ in range(k):
            pr, pi = pr * a - pi * b, pr * b + pi * a
        assert holds(z.pow(k, prec), pr, pi)
        # real-part and modulus bounds
        lo, hi = z.re_bounds()
        assert lo <= a <= hi
        assert modulus_holds(z, a * a + b * b)
        # polynomial value: the residue's numerator and divisor
        p = [3, -1, 0, 7, -2]
        vr, vi = F(0), F(0)
        for coeff in p:
            vr, vi = vr * a - vi * b + coeff, vr * b + vi * a
        assert holds(z.poly_value(p, prec), vr, vi)

    def test_exact_results_keep_radius_zero(self):
        # trimming widens the radius only when it cuts a bit of the centre,
        # so the root 1 of tau's closed form and its coefficient 1 stay points
        z = GaussBall(3 << 200, 0, 0, 200)
        q = z.div(GaussBall(3, 0, 0, 0), 64)
        assert q.r == 0 and q.re_bounds() == (1, 1)
        assert z.mul(z, 64).r == 0 and z.mul(z, 64).re_bounds() == (9, 9)
        # a cut bit costs one unit, at the scale after the cut
        w = GaussBall((3 << 200) + 1, 0, 0, 200).mul(GaussBall(1, 0, 0, 0), 64)
        assert w.r == 1 and holds(w, 3 + F(1, 2**200))
