import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbcert.arith import (
    ArithmeticDomainError,
    ComplexBox,
    IntervalScalar,
    Sign,
    digits_to_bits,
    parse_exact,
    precision_ladder,
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
        assert x.contains_fraction(F(1, 3))
        assert x.width_fraction() < F(1, 10**28)

    def test_two_sqrt_two_elevenths(self):
        # oracle: 60-digit evaluation of 2*sqrt(2/11)
        oracle = F("0.852802865422441737193750929735357505561496064256679482473764")
        x = IntervalScalar.from_fraction(F(2, 11), 50).sqrt()
        y = IntervalScalar.from_fraction(2, 50).mul(x)
        assert F(85, 100) < y.lo_fraction() and y.hi_fraction() < F(86, 100)
        assert y.lo_fraction() <= oracle <= y.hi_fraction() + F(1, 10**45)

    def test_x_minus_x_contains_zero(self):
        x = IntervalScalar.from_fraction(F(22, 7), 20)
        assert x.sub(x).contains_fraction(0)

    def test_division_through_zero(self):
        a = IntervalScalar.from_fraction(1, 20)
        b = IntervalScalar.from_fractions(-1, 1, 20)
        with pytest.raises(ArithmeticDomainError):
            a.div(b)

    def test_signs(self):
        assert IntervalScalar.from_fractions(F(1, 10), F(2, 10), 20).sign() is Sign.POSITIVE
        assert IntervalScalar.from_fractions(-3, -1, 20).sign() is Sign.NEGATIVE
        tiny = IntervalScalar.from_fractions(F(-1, 10**9), F(1, 10**9), 20)
        assert tiny.sign() is Sign.UNKNOWN

    def test_width_shrinks_with_precision(self):
        widths = []
        for digits in (15, 30, 60, 120):
            x = IntervalScalar.from_fraction(F(1, 3), digits)
            y = x.mul(x).add(x).sqrt()
            widths.append(y.width_fraction())
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
    inner = IntervalScalar.from_fractions(lo, hi, 30)
    outer = IntervalScalar.from_fractions(lo - pad_lo, hi + pad_hi, 30)
    return inner, outer


@settings(max_examples=120, deadline=None)
@given(nested_intervals(), nested_intervals(), st.sampled_from(["add", "sub", "mul", "div"]))
def test_inclusion_monotonicity(xy, uv, op):
    x, X = xy
    y, Y = uv
    if op == "div" and Y.contains_zero():
        return
    small = getattr(x, op)(y)
    big = getattr(X, op)(Y)
    assert big.lo_fraction() <= small.lo_fraction()
    assert small.hi_fraction() <= big.hi_fraction()


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
            assert box.contains_fraction(exact)
        checked += 1


def test_exact_rational_embedding_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        q = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        x = IntervalScalar.from_fraction(q, 40)
        y = x.add(IntervalScalar.exact_int(0, 40)).mul(IntervalScalar.exact_int(1, 40))
        assert y.contains_fraction(q)


class TestPowAndAbs:
    def test_pow_even_straddle(self):
        x = IntervalScalar.from_fractions(-2, 3, 30)
        p = x.pow_int(2)
        assert p.lo_fraction() <= 0 and p.contains_fraction(9) and p.contains_fraction(0)

    def test_pow_negative_exponent(self):
        x = IntervalScalar.from_fractions(2, 3, 30)
        p = x.pow_int(-1)
        assert p.contains_fraction(F(1, 2)) and p.contains_fraction(F(1, 3))

    def test_abs(self):
        x = IntervalScalar.from_fractions(-3, -2, 30)
        assert x.abs().contains_fraction(F(5, 2))


class TestComplexBox:
    def test_mul(self):
        z = ComplexBox.from_fractions(1, 2, 30)
        w = ComplexBox.from_fractions(3, -1, 30)
        p = z.mul(w)
        assert p.re.contains_fraction(5) and p.im.contains_fraction(5)

    def test_div_roundtrip(self):
        z = ComplexBox.from_fractions(F(7, 22), F(3, 5), 40)
        w = ComplexBox.from_fractions(F(-2, 3), F(1, 7), 40)
        assert z.mul(w).div_smith(w).contains_point(F(7, 22), F(3, 5))

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(rationals, min_size=8, max_size=8),
        st.lists(st.fractions(0, 1, max_denominator=7), min_size=4, max_size=4),
    )
    def test_div_smith_contains_every_quotient(self, ends, t):
        # the quotient of any point of one box by any point of the other
        # lies in the result (wide boxes may fail to divide instead)
        lo = [min(ends[i], ends[i + 1]) for i in range(0, 8, 2)]
        hi = [max(ends[i], ends[i + 1]) for i in range(0, 8, 2)]
        Z, W = (
            ComplexBox(
                IntervalScalar.from_fractions(lo[i], hi[i], 30),
                IntervalScalar.from_fractions(lo[i + 1], hi[i + 1], 30),
            )
            for i in (0, 2)
        )
        try:
            Q = Z.div_smith(W)
        except ArithmeticDomainError:
            return
        a, b, x, y = (lo[i] + ti * (hi[i] - lo[i]) for i, ti in enumerate(t))
        d = x * x + y * y
        assert Q.contains_point((a * x + b * y) / d, (b * x - a * y) / d)

    def test_modulus(self):
        z = ComplexBox.from_fractions(3, 4, 40)
        mod = z.modulus()
        assert mod.contains_fraction(5)
        assert mod.width_fraction() < F(1, 10**30)

    def test_modulus_of_unit_root(self):
        # (7 + i sqrt(39))/22 has modulus sqrt(2/11)
        s39 = IntervalScalar.from_fraction(39, 60).sqrt()
        z = ComplexBox(
            IntervalScalar.from_fraction(F(7, 22), 60),
            s39.div(IntervalScalar.from_fraction(22, 60)),
        )
        msq = z.abs_sq()
        assert msq.contains_fraction(F(2, 11))

    def test_pow_int(self):
        z = ComplexBox.from_fractions(0, 1, 30)
        assert z.pow_int(4).contains_point(1, 0)
        assert z.pow_int(2).contains_point(-1, 0)
