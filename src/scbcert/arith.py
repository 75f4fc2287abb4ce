"""Exact rationals and directed-rounding interval arithmetic.

Every certified inequality in this package is ultimately decided either in
exact rational arithmetic (``fractions.Fraction``) or in interval arithmetic
with outward-rounded binary endpoints.  Interval endpoints are mpmath ``libmp``
raw mpf tuples; each operation rounds the lower endpoint toward -inf and the
upper endpoint toward +inf, so every result interval contains the exact result
for any points of the input intervals.

Working precision is specified in decimal digits and converted to bits with
ceil(digits * log2(10)); binary endpoints keep certificates bit-reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Union

from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    fone,
    from_int,
    from_rational,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_mul,
    mpf_neg,
    mpf_pow_int,
    mpf_sqrt,
    mpf_sub,
    round_ceiling,
    round_floor,
    to_str,
)

Rational = Fraction
RationalLike = Union[Fraction, int]

DEFAULT_DIGITS = 64
DEFAULT_DIGITS_CAP = 20000

# 33219281/10^7 is a slight over-approximation of log2(10).
_LOG2_10_NUM = 33219281
_LOG2_10_DEN = 10**7


class ArithmeticDomainError(ZeroDivisionError):
    """Raised for undefined interval operations (e.g. division through 0)."""


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
    return str(num) if den == 1 else "{}/{}".format(num, den)


def _mpf_to_fraction(x) -> Fraction:
    if x == fzero:
        return Fraction(0)
    if x in (finf, fninf, fnan):
        raise OverflowError("non-finite interval endpoint")
    sign, man, exp, _bc = x
    man = int(man)
    if sign:
        man = -man
    if exp >= 0:
        return Fraction(man << exp)
    return Fraction(man, 1 << (-exp))


def _fraction_to_mpf(q: Fraction, bits: int, rnd: str):
    return from_rational(q.numerator, q.denominator, bits, rnd)


def _mpf_min(a, b):
    return a if mpf_cmp(a, b) <= 0 else b


def _mpf_max(a, b):
    return a if mpf_cmp(a, b) >= 0 else b


class IntervalScalar:
    """Closed interval [lo, hi] with directed-rounded binary endpoints.

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

    # -- construction -----------------------------------------------------

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
    def from_fractions(
        cls, lo: RationalLike, hi: RationalLike, digits: int = DEFAULT_DIGITS
    ) -> "IntervalScalar":
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        bits = digits_to_bits(digits)
        return cls(
            _fraction_to_mpf(lo, bits, round_floor),
            _fraction_to_mpf(hi, bits, round_ceiling),
            bits,
        )

    @classmethod
    def exact_int(cls, n: int, digits: int = DEFAULT_DIGITS) -> "IntervalScalar":
        v = from_int(n)
        return cls(v, v, digits_to_bits(digits))

    # -- views ------------------------------------------------------------

    @property
    def digits(self) -> int:
        return max(1, (self.bits * _LOG2_10_DEN) // _LOG2_10_NUM)

    def lo_fraction(self) -> Fraction:
        return _mpf_to_fraction(self.lo)

    def hi_fraction(self) -> Fraction:
        return _mpf_to_fraction(self.hi)

    def width_fraction(self) -> Fraction:
        return self.hi_fraction() - self.lo_fraction()

    def contains_fraction(self, q: RationalLike) -> bool:
        q = Fraction(q)
        return self.lo_fraction() <= q <= self.hi_fraction()

    def contains_zero(self) -> bool:
        return mpf_cmp(self.lo, fzero) <= 0 and mpf_cmp(self.hi, fzero) >= 0

    def __repr__(self) -> str:
        d = min(self.digits, 17)
        return "[{}, {}]".format(to_str(self.lo, d), to_str(self.hi, d))

    # -- arithmetic -------------------------------------------------------

    def _bits_with(self, other: "IntervalScalar") -> int:
        return max(self.bits, other.bits)

    def __neg__(self) -> "IntervalScalar":
        return IntervalScalar(mpf_neg(self.hi), mpf_neg(self.lo), self.bits)

    def add(self, other: "IntervalScalar") -> "IntervalScalar":
        bits = self._bits_with(other)
        return IntervalScalar(
            mpf_add(self.lo, other.lo, bits, round_floor),
            mpf_add(self.hi, other.hi, bits, round_ceiling),
            bits,
        )

    __add__ = add

    def sub(self, other: "IntervalScalar") -> "IntervalScalar":
        bits = self._bits_with(other)
        return IntervalScalar(
            mpf_sub(self.lo, other.hi, bits, round_floor),
            mpf_sub(self.hi, other.lo, bits, round_ceiling),
            bits,
        )

    __sub__ = sub

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

    __mul__ = mul

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

    __truediv__ = div

    def abs(self) -> "IntervalScalar":
        c = self._category()
        if c == 1:
            return self
        if c == -1:
            return -self
        return IntervalScalar(fzero, _mpf_max(mpf_abs(self.lo), mpf_abs(self.hi)), self.bits)

    def mag(self):
        """Upper bound for |x| over the interval (raw mpf)."""
        return _mpf_max(mpf_abs(self.lo), mpf_abs(self.hi))

    def mig(self):
        """Lower bound for |x| over the interval (raw mpf)."""
        if self._category() == 0 or self.contains_zero():
            return fzero
        return _mpf_min(mpf_abs(self.lo), mpf_abs(self.hi))

    def sqrt(self) -> "IntervalScalar":
        if mpf_cmp(self.hi, fzero) < 0:
            raise ArithmeticDomainError("sqrt of negative interval")
        lo = self.lo if mpf_cmp(self.lo, fzero) > 0 else fzero
        return IntervalScalar(
            mpf_sqrt(lo, self.bits, round_floor),
            mpf_sqrt(self.hi, self.bits, round_ceiling),
            self.bits,
        )

    def pow_int(self, n: int) -> "IntervalScalar":
        if n < 0:
            return IntervalScalar(fone, fone, self.bits).div(self.pow_int(-n))
        if n == 0:
            return IntervalScalar(fone, fone, self.bits)
        if n == 1:
            return self
        bits = self.bits
        if n % 2 == 1 or self._category() == 1:
            return IntervalScalar(
                mpf_pow_int(self.lo, n, bits, round_floor),
                mpf_pow_int(self.hi, n, bits, round_ceiling),
                bits,
            )
        if self._category() == -1:
            return IntervalScalar(
                mpf_pow_int(self.hi, n, bits, round_floor),
                mpf_pow_int(self.lo, n, bits, round_ceiling),
                bits,
            )
        return IntervalScalar(fzero, mpf_pow_int(self.mag(), n, bits, round_ceiling), bits)



class ComplexBox:
    """Rectangular complex interval (real box x imaginary box)."""

    __slots__ = ("re", "im")

    def __init__(self, re: IntervalScalar, im: IntervalScalar):
        self.re = re
        self.im = im

    @classmethod
    def from_fractions(
        cls, re: RationalLike, im: RationalLike = 0, digits: int = DEFAULT_DIGITS
    ) -> "ComplexBox":
        return cls(
            IntervalScalar.from_fraction(re, digits),
            IntervalScalar.from_fraction(im, digits),
        )

    def __repr__(self) -> str:
        return "({} + {}*i)".format(self.re, self.im)

    def conjugate(self) -> "ComplexBox":
        return ComplexBox(self.re, -self.im)

    def add(self, other: "ComplexBox") -> "ComplexBox":
        return ComplexBox(self.re.add(other.re), self.im.add(other.im))

    __add__ = add

    def sub(self, other: "ComplexBox") -> "ComplexBox":
        return ComplexBox(self.re.sub(other.re), self.im.sub(other.im))

    __sub__ = sub

    def __neg__(self) -> "ComplexBox":
        return ComplexBox(-self.re, -self.im)

    def mul(self, other: "ComplexBox") -> "ComplexBox":
        a, b, c, d = self.re, self.im, other.re, other.im
        return ComplexBox(a.mul(c).sub(b.mul(d)), a.mul(d).add(b.mul(c)))

    __mul__ = mul

    def mul_real(self, r: IntervalScalar) -> "ComplexBox":
        return ComplexBox(self.re.mul(r), self.im.mul(r))

    def abs_sq(self) -> IntervalScalar:
        return self.re.pow_int(2).add(self.im.pow_int(2))

    def div_smith(self, other: "ComplexBox") -> "ComplexBox":
        """Quotient by Smith's formula: the divisor's larger component is
        divided out first, so the divisor's width enters the result about
        once, where num*conj(other)/|other|^2 would count it three times."""
        a, b, x, y = self.re, self.im, other.re, other.im
        if mpf_cmp(x.mig(), y.mig()) >= 0:
            r = y.div(x)
            den = x.add(y.mul(r))
            return ComplexBox(a.add(b.mul(r)).div(den), b.sub(a.mul(r)).div(den))
        r = x.div(y)
        den = y.add(x.mul(r))
        return ComplexBox(a.mul(r).add(b).div(den), b.mul(r).sub(a).div(den))

    def modulus(self) -> IntervalScalar:
        """Outward-rounded enclosure of |z| over the box."""
        bits = max(self.re.bits, self.im.bits)
        lo_sq = IntervalScalar(self.re.mig(), self.re.mig(), bits).pow_int(2).add(
            IntervalScalar(self.im.mig(), self.im.mig(), bits).pow_int(2)
        )
        hi_sq = IntervalScalar(self.re.mag(), self.re.mag(), bits).pow_int(2).add(
            IntervalScalar(self.im.mag(), self.im.mag(), bits).pow_int(2)
        )
        return IntervalScalar(lo_sq.sqrt().lo, hi_sq.sqrt().hi, bits)

    def contains_zero(self) -> bool:
        return self.re.contains_zero() and self.im.contains_zero()

    def width_fraction(self) -> Fraction:
        return max(self.re.width_fraction(), self.im.width_fraction())

    def pow_int(self, n: int) -> "ComplexBox":
        if n < 0:
            raise ValueError("negative power of a complex box")
        digits = max(self.re.digits, self.im.digits)
        acc = ComplexBox.from_fractions(1, 0, digits)
        base = self
        while n:
            if n & 1:
                acc = acc.mul(base)
            base = base.mul(base) if n > 1 else base
            n >>= 1
        return acc
