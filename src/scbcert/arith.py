"""Exact rationals, Gaussian-integer balls, and the intervals that set up
the sequence kernel.

Every certified inequality in this package is decided in exact rational
arithmetic (``fractions.Fraction``), on integer balls, or on the
directed-rounding intervals that build the sequence kernel's coefficient
balls.  A ball (``GaussBall``) is a disk with a Gaussian-integer centre and
an integer radius at a power-of-two scale; every operation is exact on the
integers and rounds once, into the radius, so the result holds every
product, quotient or value of the points of its inputs.  Its readers return
exact Fraction bounds.  Interval endpoints are mpmath ``libmp`` raw mpf
tuples; each operation rounds the lower endpoint toward -inf and the upper
endpoint toward +inf.

Working precision is specified in decimal digits and converted to bits with
ceil(digits * log2(10)); binary endpoints keep certificates bit-reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterator, NamedTuple, Sequence, Tuple, Union

from mpmath.libmp import (
    from_int,
    from_rational,
    fzero,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_mul,
    mpf_sub,
    round_ceiling,
    round_floor,
)

RationalLike = Union[Fraction, int]

DEFAULT_DIGITS = 64
DEFAULT_DIGITS_CAP = 20000

# 33219281/10^7 is a slight over-approximation of log2(10).
_LOG2_10_NUM = 33219281
_LOG2_10_DEN = 10**7


class ArithmeticDomainError(ZeroDivisionError):
    """Raised for undefined interval or ball operations (division through 0)."""


def digits_to_bits(digits: int) -> int:
    if digits < 1:
        raise ValueError("precision must be at least 1 digit")
    return (digits * _LOG2_10_NUM + _LOG2_10_DEN - 1) // _LOG2_10_DEN


def precision_ladder(start: int = DEFAULT_DIGITS, cap: int = DEFAULT_DIGITS_CAP) -> Iterator[int]:
    """Yield working precisions (decimal digits), doubling up to the cap."""
    if start < 1:
        raise ValueError("starting precision must be positive")
    p = start
    while p < cap:
        yield p
        p *= 2
    yield cap


def parse_exact(text: str) -> Fraction:
    """Parse 'p/q', integer, or decimal strings as exact rationals.

    Decimal strings are converted exactly (e.g. '0.48625' -> 48625/100000
    reduced), never through binary floating point.
    """
    return Fraction(text.strip())


def fraction_str(q: Fraction) -> str:
    """Exact text of a rational, 'p/q' or 'p' when q = 1, as parse_exact reads
    it; a Fraction is used as it is, anything else is converted first."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return ratio_str(q.numerator, q.denominator)


def ratio_str(num: int, den: int) -> str:
    """fraction_str of num/den, given in lowest terms with den > 0."""
    return str(num) if den == 1 else f"{num}/{den}"


def _fraction_to_mpf(q: Fraction, bits: int, rnd: str):
    return from_rational(q.numerator, q.denominator, bits, rnd)


def _mpf_min(a, b):
    return a if mpf_cmp(a, b) <= 0 else b


def _mpf_max(a, b):
    return a if mpf_cmp(a, b) >= 0 else b


class IntervalScalar:
    """Closed interval [lo, hi] with directed-rounded binary endpoints: the
    coefficients of the sequence kernel at a working precision.

    Immutable; all operations return new intervals satisfying the containment
    invariant.  ``bits`` is the working precision used for rounding the
    endpoints of derived values.
    """

    __slots__ = ("lo", "hi", "bits")

    def __init__(self, lo, hi, bits: int):
        if mpf_cmp(lo, hi) > 0:
            raise ValueError("interval endpoints out of order")
        self.lo = lo
        self.hi = hi
        self.bits = bits

    @classmethod
    def from_fraction(cls, q: RationalLike, digits: int = DEFAULT_DIGITS) -> "IntervalScalar":
        q = Fraction(q)
        bits = digits_to_bits(digits)
        return cls(
            _fraction_to_mpf(q, bits, round_floor),
            _fraction_to_mpf(q, bits, round_ceiling),
            bits,
        )

    @classmethod
    def exact_int(cls, n: int, digits: int = DEFAULT_DIGITS) -> "IntervalScalar":
        v = from_int(n)
        return cls(v, v, digits_to_bits(digits))

    def contains_zero(self) -> bool:
        return mpf_cmp(self.lo, fzero) <= 0 and mpf_cmp(self.hi, fzero) >= 0

    def _bits_with(self, other: "IntervalScalar") -> int:
        return max(self.bits, other.bits)

    def add(self, other: "IntervalScalar") -> "IntervalScalar":
        bits = self._bits_with(other)
        return IntervalScalar(
            mpf_add(self.lo, other.lo, bits, round_floor),
            mpf_add(self.hi, other.hi, bits, round_ceiling),
            bits,
        )

    def sub(self, other: "IntervalScalar") -> "IntervalScalar":
        bits = self._bits_with(other)
        return IntervalScalar(
            mpf_sub(self.lo, other.hi, bits, round_floor),
            mpf_sub(self.hi, other.lo, bits, round_ceiling),
            bits,
        )

    def _category(self) -> int:
        # 1: >= 0, -1: <= 0, 0: straddles
        if mpf_cmp(self.lo, fzero) >= 0:
            return 1
        if mpf_cmp(self.hi, fzero) <= 0:
            return -1
        return 0

    def mul(self, other: "IntervalScalar") -> "IntervalScalar":
        bits = self._bits_with(other)
        ca, cb = self._category(), other._category()
        al, ah, bl, bh = self.lo, self.hi, other.lo, other.hi
        if ca == 1:
            if cb == 1:
                lo, hi = (al, bl), (ah, bh)
            elif cb == -1:
                lo, hi = (ah, bl), (al, bh)
            else:
                lo, hi = (ah, bl), (ah, bh)
        elif ca == -1:
            if cb == 1:
                lo, hi = (al, bh), (ah, bl)
            elif cb == -1:
                lo, hi = (ah, bh), (al, bl)
            else:
                lo, hi = (al, bh), (al, bl)
        else:
            if cb == 1:
                lo, hi = (al, bh), (ah, bh)
            elif cb == -1:
                lo, hi = (ah, bl), (al, bl)
            else:
                lo = None
                hi = None
        if lo is not None:
            return IntervalScalar(
                mpf_mul(lo[0], lo[1], bits, round_floor),
                mpf_mul(hi[0], hi[1], bits, round_ceiling),
                bits,
            )
        # both straddle zero: two candidates on each side
        lo1 = mpf_mul(al, bh, bits, round_floor)
        lo2 = mpf_mul(ah, bl, bits, round_floor)
        hi1 = mpf_mul(al, bl, bits, round_ceiling)
        hi2 = mpf_mul(ah, bh, bits, round_ceiling)
        return IntervalScalar(_mpf_min(lo1, lo2), _mpf_max(hi1, hi2), bits)

    def div(self, other: "IntervalScalar") -> "IntervalScalar":
        bits = self._bits_with(other)
        cb = other._category()
        if cb == 0 or other.contains_zero():
            raise ArithmeticDomainError("division by interval containing zero")
        al, ah, bl, bh = self.lo, self.hi, other.lo, other.hi
        ca = self._category()
        if cb == 1:
            if ca == 1:
                lo, hi = (al, bh), (ah, bl)
            elif ca == -1:
                lo, hi = (al, bl), (ah, bh)
            else:
                lo, hi = (al, bl), (ah, bl)
        else:
            if ca == 1:
                lo, hi = (ah, bh), (al, bl)
            elif ca == -1:
                lo, hi = (ah, bl), (al, bh)
            else:
                lo, hi = (ah, bh), (al, bh)
        return IntervalScalar(
            mpf_div(lo[0], lo[1], bits, round_floor),
            mpf_div(hi[0], hi[1], bits, round_ceiling),
            bits,
        )


# bits an integer ball keeps below its radius: a centre is kept to about
# (useful + BALL_GUARD) bits, useful = bitlen(centre) - bitlen(radius)
BALL_GUARD = 96


def _dyadic(v: int, s: int) -> Fraction:
    """v * 2^-s exactly."""
    return Fraction(v, 1 << s) if s >= 0 else Fraction(v << -s)


def _ceil_sqrt(n: int) -> int:
    """The least integer at least sqrt(n), n >= 0."""
    return isqrt(n - 1) + 1 if n else 0


def _round_div(n: int, d: int) -> Tuple[int, bool]:
    """n / d (d > 0) rounded to the nearest integer, and whether exactly."""
    q, rem = divmod(n, d)
    return q + (2 * rem >= d), rem == 0


def _trimmed(x: int, y: int, r: int, s: int, prec: int) -> "GaussBall":
    """The ball (x, y, r, s) with its centre cut to at most prec bits, and to
    BALL_GUARD bits below the radius once the radius grows.  A shift right
    by d bits rounds each coordinate to the nearest, off by 1/2 at most, so
    the radius becomes r / 2^d rounded up, plus 1 unless no bit of the
    centre was cut."""
    d = max(max(abs(x), abs(y)).bit_length() - prec, r.bit_length() - BALL_GUARD)
    if d <= 0:
        return GaussBall(x, y, r, s)
    h = 1 << (d - 1)
    cut = (x | y) & ((1 << d) - 1)
    return GaussBall((x + h) >> d, (y + h) >> d, -(-r >> d) + (cut != 0), s - d)


class GaussBall(NamedTuple):
    """The closed disk of radius r * 2^-s about (x + iy) * 2^-s, for integers
    x, y, r >= 0 and s of either sign; y = 0 for a real ball.

    Each operation is exact on the integers and then trimmed once
    (``_trimmed``), so its result holds the result of every choice of
    points of its operands (Johansson, "Arb", IEEE TC 2017, keeps
    midpoints alike).  ``prec`` caps the bits of a result's centre.
    """

    x: int
    y: int
    r: int
    s: int

    def _mag(self) -> int:
        """An integer at least |x + iy|."""
        return _ceil_sqrt(self.x * self.x + self.y * self.y)

    def add(self, other: "GaussBall") -> "GaussBall":
        """The sum, exactly, at the finer of the two scales."""
        a, b = (self, other) if self.s >= other.s else (other, self)
        d = a.s - b.s
        return GaussBall(a.x + (b.x << d), a.y + (b.y << d), a.r + (b.r << d), a.s)

    def mul(self, other: "GaussBall", prec: int) -> "GaussBall":
        """The product: (a + u)(b + v) - ab = av + bu + uv for |u| <= ra and
        |v| <= rb, so the radius is |a| rb + |b| ra + ra rb."""
        a, b = self, other
        return _trimmed(
            a.x * b.x - a.y * b.y,
            a.x * b.y + a.y * b.x,
            a._mag() * b.r + b._mag() * a.r + a.r * b.r,
            a.s + b.s,
            prec,
        )

    def div(self, other: "GaussBall", prec: int) -> "GaussBall":
        """The quotient; raises ArithmeticDomainError when the divisor's disk
        may hold 0.  (a + u)/(b + v) - a/b = (bu - av) / (b (b + v)), so the
        radius is (ra |b| + |a| rb) / (|b| (|b| - rb)), rounded up, plus 1
        for the rounded centre a conj(b) / |b|^2 unless it is exact."""
        a, b = self, other
        nb = b.x * b.x + b.y * b.y
        lb = isqrt(nb)  # |b| rounded down
        if lb <= b.r:
            raise ArithmeticDomainError("division by a ball that may hold zero")
        # the quotient's centre gets about prec bits at the scale 2^-(k + sa - sb)
        k = prec - max(abs(a.x), abs(a.y), a.r).bit_length() + lb.bit_length()
        nx, ny = a.x * b.x + a.y * b.y, a.y * b.x - a.x * b.y
        nr = a.r * _ceil_sqrt(nb) + a._mag() * b.r
        dx, dr = nb, lb * (lb - b.r)
        if k >= 0:
            nx, ny, nr = nx << k, ny << k, nr << k
        else:
            dx, dr = dx << -k, dr << -k
        qx, ex = _round_div(nx, dx)
        qy, ey = _round_div(ny, dx)
        return _trimmed(qx, qy, -(-nr // dr) + (not (ex and ey)), k + a.s - b.s, prec)

    def pow(self, n: int, prec: int) -> "GaussBall":
        """The n-th power (n >= 0), by squaring."""
        out, base = GaussBall(1, 0, 0, 0), self
        while n:
            if n & 1:
                out = out.mul(base, prec)
            n >>= 1
            if n:
                base = base.mul(base, prec)
        return out

    def poly_value(self, p: Sequence[int], prec: int) -> "GaussBall":
        """p over the ball, for an integer polynomial p (descending): the
        exact value at the centre c, and the radius P(|c| + r) - P(|c|),
        where P has the coefficients |p_i|; each Taylor coefficient of p at
        c is at most that of P at |c| in modulus, so the radius bounds
        |p(c + u) - p(c)| for |u| <= r."""
        x, y, r, s = self
        if s < 0:
            x, y, r, s = x << -s, y << -s, r << -s, 0
        # p(c) 2^(deg p * s) by Horner's rule, exactly
        fr, fi = p[0], 0
        for i, c in enumerate(p[1:], 1):
            fr, fi = fr * x - fi * y + (c << (i * s)), fr * y + fi * x
        rad = 0
        if r:
            m = _ceil_sqrt(x * x + y * y)
            lo = hi = abs(p[0])
            for i, c in enumerate(p[1:], 1):
                c = abs(c) << (i * s)
                lo, hi = lo * m + c, hi * (m + r) + c
            rad = hi - lo
        return _trimmed(fr, fi, rad, (len(p) - 1) * s, prec)

    def re_bounds(self) -> Tuple[Fraction, Fraction]:
        """Exact bounds on the real part over the disk."""
        return _dyadic(self.x - self.r, self.s), _dyadic(self.x + self.r, self.s)

    def modulus_bounds(self) -> Tuple[Fraction, Fraction]:
        """Exact bounds on the modulus over the disk: the integer square root
        of |x + iy|^2 rounded outward, then -r and +r (the lower bound not
        below 0)."""
        n = self.x * self.x + self.y * self.y
        return (
            _dyadic(max(isqrt(n) - self.r, 0), self.s),
            _dyadic(_ceil_sqrt(n) + self.r, self.s),
        )

    def contains(self, re: RationalLike, im: RationalLike = 0) -> bool:
        """Whether the disk holds the point re + i im, decided exactly."""
        re, im = Fraction(re), Fraction(im)
        d = re.denominator * im.denominator
        a, b = re.numerator * im.denominator, im.numerator * re.denominator
        x, y, r = self.x * d, self.y * d, self.r * d
        if self.s >= 0:
            a, b = a << self.s, b << self.s
        else:
            x, y, r = x << -self.s, y << -self.s, r << -self.s
        return (a - x) ** 2 + (b - y) ** 2 <= r * r
