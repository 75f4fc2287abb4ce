"""Exact polynomial algebra with certified root analysis.

Coefficient lists are kept in descending degree order throughout.  Where an
exact real root is the answer, it is isolated with signed subresultant
(Sturm) chains over the integers and refined by exact rational bisection.
All roots of an integer polynomial, real and complex alike, are enclosed by
one engine, ``enclose_roots``: double-precision Durand-Kerner seeds,
polished by ``mpmath.polyroots`` at the working precision, then rigorously
certified and refined with the interval Newton operator.
Root location relative to the unit circle is decided exactly by one
mechanism, the Schur-Cohn reduction over the integers: membership of the open
unit disk directly, and membership of the circle itself through the gcd with
the reversed polynomial and Cohn's theorem on self-inversive polynomials,
never numerically.
"""

from __future__ import annotations

import cmath
import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, List, Optional, Sequence, Tuple

import mpmath

from .arith import ArithmeticDomainError, ComplexBox, IntervalScalar, digits_to_bits

# ---------------------------------------------------------------------------
# dense coefficient-list helpers (descending order)
# ---------------------------------------------------------------------------


def strip(c: Sequence) -> list:
    i = 0
    while i < len(c) and c[i] == 0:
        i += 1
    return list(c[i:])


def degree(c: Sequence) -> int:
    return len(c) - 1


def is_zero(c: Sequence) -> bool:
    return len(c) == 0


def add(a: Sequence, b: Sequence) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    off = len(a) - len(b)
    for i, x in enumerate(b):
        out[off + i] += x
    return strip(out)


def neg(a: Sequence) -> list:
    return [-x for x in a]


def sub(a: Sequence, b: Sequence) -> list:
    return add(a, neg(b))


def mul(a: Sequence, b: Sequence) -> list:
    if is_zero(a) or is_zero(b):
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return strip(out)


def scale(a: Sequence, s) -> list:
    if s == 0:
        return []
    return [x * s for x in a]


def derivative(a: Sequence) -> list:
    n = degree(a)
    if n <= 0:
        return []
    return strip([a[i] * (n - i) for i in range(n)])


def eval_at(a: Sequence, x):
    acc = x * 0
    for c in a:
        acc = acc * x + c
    return acc


def sign_of(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def sign_at_fraction(a: Sequence[int], q: Fraction) -> int:
    """Exact sign of an integer polynomial at a rational point."""
    a = strip(a)
    if is_zero(a):
        return 0
    p, s = q.numerator, q.denominator
    acc = 0
    spow = 1
    for c in a:
        acc = acc * p + c * spow
        spow *= s
    return sign_of(acc)


def divmod_exact(a: Sequence[Fraction], b: Sequence[Fraction]) -> Tuple[list, list]:
    """Rational polynomial division: a = q*b + r with deg r < deg b."""
    a = strip([Fraction(x) for x in a])
    b = strip([Fraction(x) for x in b])
    if is_zero(b):
        raise ZeroDivisionError("polynomial division by zero")
    db, lb = degree(b), b[0]
    if is_zero(a) or degree(a) < db:
        return [], a
    q = [Fraction(0)] * (degree(a) - db + 1)
    r = list(a)
    while not is_zero(r) and degree(r) >= db:
        shift = degree(r) - db
        f = r[0] / lb
        q[len(q) - 1 - shift] = f
        for i in range(db + 1):
            r[i] -= f * b[i]
        r = strip(r)
    return strip(q), r


def divexact(a: Sequence[Fraction], b: Sequence[Fraction]) -> list:
    q, r = divmod_exact(a, b)
    if not is_zero(r):
        raise ValueError("polynomial division was not exact")
    return q


def content(a: Sequence[int]) -> int:
    g = 0
    for c in a:
        g = gcd(g, abs(int(c)))
        if g == 1:
            break
    return g


def primitive(a: Sequence[int]) -> list:
    """Primitive part with positive leading coefficient."""
    a = strip(a)
    if is_zero(a):
        return []
    g = content(a)
    a = [int(c) // g for c in a]
    if a[0] < 0:
        a = neg(a)
    return a


def to_integer(a: Sequence[Fraction]) -> list:
    """Clear denominators: primitive integer polynomial with the same roots."""
    a = strip([Fraction(x) for x in a])
    if is_zero(a):
        return []
    den = 1
    for c in a:
        den = den * c.denominator // gcd(den, c.denominator)
    return primitive([int(c * den) for c in a])


def to_integer_signed(a: Sequence[Fraction]) -> list:
    """Clear denominators by a positive constant: same roots, same signs."""
    a = strip([Fraction(x) for x in a])
    if is_zero(a):
        return []
    den = 1
    for c in a:
        den = den * c.denominator // gcd(den, c.denominator)
    out = [int(c * den) for c in a]
    g = content(out)
    return [c // g for c in out]


def reverse(a: Sequence) -> list:
    """Reversed (reciprocal) polynomial z^n * a(1/z)."""
    return strip(list(reversed(list(a))))


# ---------------------------------------------------------------------------
# signed remainder chains and Sturm counting
# ---------------------------------------------------------------------------


def _pseudo_rem_pos(a: Sequence[int], b: Sequence[int]) -> list:
    """Integer remainder of a by b scaled by a positive constant.

    Each elimination step multiplies by |lc(b)|, so the result is a positive
    multiple of the rational remainder; sign-based algorithms stay valid.
    """
    r = strip(list(a))
    b = strip(list(b))
    db = degree(b)
    lb = b[0]
    albl = abs(lb)
    s = 1 if lb > 0 else -1
    while not is_zero(r) and degree(r) >= db:
        r0 = r[0]
        rr = [c * albl for c in r]
        for i in range(db + 1):
            rr[i] -= s * r0 * b[i]
        r = strip(rr[1:])
    return r


def pseudo_sturm_chain(p: Sequence[int], q: Sequence[int]) -> List[list]:
    """Signed primitive remainder chain from (p, q).

    Each element is a positive multiple of the corresponding rational Sturm
    chain term, so sign-variation counts agree with the exact Sturm counts.
    """
    chain = [strip(list(p)), strip(list(q))]
    if is_zero(chain[1]):
        chain.pop()
        return chain
    while degree(chain[-1]) > 0:
        r = _pseudo_rem_pos(chain[-2], chain[-1])
        if is_zero(r):
            break
        chain.append(primitive_signed(neg(r)))
    return chain


def primitive_signed(a: Sequence[int]) -> list:
    """Divide by the content but keep the sign (unlike ``primitive``)."""
    a = strip(a)
    if is_zero(a):
        return []
    g = content(a)
    return [int(c) // g for c in a]


def sturm_chain(p: Sequence[int]) -> List[list]:
    """Generalized Sturm chain (counts distinct real roots even if p
    is not squarefree)."""
    p = primitive(p)
    if is_zero(p):
        return []
    if degree(p) < 1:
        return [p]
    return pseudo_sturm_chain(p, derivative(p))


def _variations(signs: Iterable[int]) -> int:
    v = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            v += 1
        prev = s
    return v


def _sign_right_of(a: Sequence[int], x: Fraction) -> int:
    """The sign of an integer polynomial just right of x: the sign at x of its
    first derivative that does not vanish there."""
    a = strip(a)
    while not is_zero(a):
        s = sign_at_fraction(a, x)
        if s:
            return s
        a = derivative(a)
    return 0


def sturm_variations_at(chain: Sequence[Sequence[int]], x: Fraction) -> int:
    """The sign variations of a Sturm chain at x.

    Every term of a generalized chain is a multiple of its last, the gcd of
    p and p'; at a multiple root x of p all of them vanish, so the signs
    just right of x count instead.  Elsewhere the two counts agree, and
    count_real_roots stays the number of roots in (lo, hi] for any
    endpoints."""
    signs = [sign_at_fraction(p, x) for p in chain]
    if signs and signs[-1] == 0:
        signs = [_sign_right_of(p, x) for p in chain]
    return _variations(signs)


def sturm_variations_inf(chain: Sequence[Sequence[int]], positive: bool) -> int:
    signs = []
    for p in chain:
        if is_zero(p):
            continue
        s = sign_of(p[0])
        if not positive and degree(p) % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def count_real_roots(
    p: Sequence[int],
    lo: Optional[Fraction] = None,
    hi: Optional[Fraction] = None,
    chain: Optional[Sequence[Sequence[int]]] = None,
) -> int:
    """Number of distinct real roots in (lo, hi]; None endpoints mean +-inf."""
    if chain is None:
        chain = sturm_chain(p)
    va = sturm_variations_inf(chain, False) if lo is None else sturm_variations_at(chain, lo)
    vb = sturm_variations_inf(chain, True) if hi is None else sturm_variations_at(chain, hi)
    return va - vb


def cauchy_bound(p: Sequence[int]) -> Fraction:
    """Power-of-two B with all real roots inside (-B, B)."""
    p = strip(p)
    lead = abs(p[0])
    m = max((abs(c) for c in p[1:]), default=0)
    b = Fraction(m, lead) + 1
    B = Fraction(1)
    while B <= b:
        B *= 2
    return B


# ---------------------------------------------------------------------------
# gcd / squarefree machinery over the integers
# ---------------------------------------------------------------------------


def gcd_int_poly(a: Sequence[int], b: Sequence[int]) -> list:
    """Primitive gcd of two integer polynomials (primitive PRS)."""
    a, b = primitive(a), primitive(b)
    if is_zero(a):
        return b
    if is_zero(b):
        return a
    if degree(a) < degree(b):
        a, b = b, a
    while True:
        if is_zero(b):
            return primitive(a)
        if degree(b) == 0:
            return [1]
        r = _pseudo_rem_pos(a, b)
        if is_zero(r):
            return primitive(b)
        a, b = b, primitive(r)


def gcd_frac(a: Sequence[Fraction], b: Sequence[Fraction]) -> list:
    """Monic gcd over the rationals."""
    ia, ib = to_integer(a), to_integer(b)
    if is_zero(ia):
        g = ib
    elif is_zero(ib):
        g = ia
    else:
        g = gcd_int_poly(ia, ib)
    if is_zero(g):
        return []
    lead = Fraction(g[0])
    return [Fraction(c) / lead for c in g]


def yun_squarefree(p: Sequence[int]) -> List[Tuple[list, int]]:
    """Yun decomposition: p ~ prod q_i^i, q_i squarefree and pairwise coprime.

    Returns [(q_i, i)] for non-constant q_i, with q_i primitive integer
    polynomials (positive leading coefficient).
    """
    p = primitive(p)
    if degree(p) < 1:
        return []
    pf = [Fraction(c) for c in p]
    dpf = derivative(pf)
    g = gcd_frac(pf, dpf)
    if degree(g) == 0:
        return [(p, 1)]
    out: List[Tuple[list, int]] = []
    c = divexact(pf, g)
    d = sub(divexact(dpf, g), derivative(c))
    i = 1
    while True:
        a = gcd_frac(c, d)
        if degree(a) > 0:
            out.append((to_integer(a), i))
        c = divexact(c, a)
        if degree(c) == 0:
            break
        d = sub(divexact(d, a), derivative(c))
        i += 1
    return out


# ---------------------------------------------------------------------------
# resultants and discriminants
# ---------------------------------------------------------------------------


def _bareiss_det(M: List[List[int]]) -> int:
    n = len(M)
    M = [row[:] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def resultant(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Resultant via fraction-free elimination on the Sylvester matrix."""
    a = strip([Fraction(x) for x in a])
    b = strip([Fraction(x) for x in b])
    if is_zero(a) or is_zero(b):
        return Fraction(0)
    m, n = degree(a), degree(b)
    if m == 0:
        return a[0] ** n
    if n == 0:
        return b[0] ** m
    da = 1
    for c in a:
        da = da * c.denominator // gcd(da, c.denominator)
    db = 1
    for c in b:
        db = db * c.denominator // gcd(db, c.denominator)
    ia = [int(c * da) for c in a]
    ib = [int(c * db) for c in b]
    size = m + n
    M = [[0] * size for _ in range(size)]
    for i in range(n):
        for j, c in enumerate(ia):
            M[i][i + j] = c
    for i in range(m):
        for j, c in enumerate(ib):
            M[n + i][i + j] = c
    det = _bareiss_det(M)
    return Fraction(det) / (Fraction(da) ** n * Fraction(db) ** m)


def discriminant(p: Sequence[Fraction]) -> Fraction:
    """Exact discriminant; zero iff p has a multiple root."""
    p = strip([Fraction(x) for x in p])
    n = degree(p)
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    if n == 1:
        return Fraction(1)
    r = resultant(p, derivative(p))
    s = -1 if (n * (n - 1) // 2) % 2 else 1
    return s * r / p[0]


# ---------------------------------------------------------------------------
# real root isolation and refinement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealRootEnclosure:
    """Open interval (lo, hi) isolating one distinct real root of poly.

    ``poly`` is the squarefree primitive integer polynomial the endpoints
    are tested against; endpoints are never roots.  ``multiplicity`` is the
    root's multiplicity in the original input polynomial.
    """

    poly: Tuple[int, ...]
    lo: Fraction
    hi: Fraction
    multiplicity: int = 1

    def width(self) -> Fraction:
        return self.hi - self.lo

    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, q) -> bool:
        return self.lo < Fraction(q) < self.hi

    def refined(self, width: Fraction) -> "RealRootEnclosure":
        return refine(self, width)


def refine(enc: RealRootEnclosure, width: Fraction) -> RealRootEnclosure:
    """Shrink an isolating interval below ``width`` by exact sign bisection."""
    if width <= 0:
        raise ValueError("width must be positive")
    poly = list(enc.poly)
    lo, hi = enc.lo, enc.hi
    slo = sign_at_fraction(poly, lo)
    shi = sign_at_fraction(poly, hi)
    if slo == 0 or shi == 0:
        raise ValueError("enclosure endpoints must not be roots")
    if slo == shi:
        raise ValueError("invalid enclosure: equal endpoint signs")
    while hi - lo > width:
        mid = (lo + hi) / 2
        sm = sign_at_fraction(poly, mid)
        if sm == 0:
            # exact rational root: shrink symmetrically around it
            eps = min(width / 4, (hi - lo) / 8)
            while sign_at_fraction(poly, mid - eps) == 0 or sign_at_fraction(poly, mid + eps) == 0:
                eps /= 2
            return RealRootEnclosure(enc.poly, mid - eps, mid + eps, enc.multiplicity)
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return RealRootEnclosure(enc.poly, lo, hi, enc.multiplicity)


def refine_away_from_zero(enc: RealRootEnclosure) -> RealRootEnclosure:
    """Refine until the interval is strictly on one side of zero.

    Requires that zero is not a root of the enclosure's polynomial.
    """
    if sign_at_fraction(list(enc.poly), Fraction(0)) == 0:
        raise ValueError("zero is a root of the enclosure polynomial")
    cur = enc
    while cur.lo <= 0 <= cur.hi:
        cur = refine(cur, cur.width() / 4)
    return cur


def _isolate_squarefree(q: Sequence[int]) -> List[Tuple[Fraction, Fraction]]:
    """Disjoint open isolating intervals for all real roots of squarefree q."""
    q = primitive(q)
    if degree(q) < 1:
        return []
    chain = pseudo_sturm_chain(q, derivative(q))
    B = cauchy_bound(q)
    out: List[Tuple[Fraction, Fraction]] = []

    def n_roots(a: Fraction, b: Fraction) -> int:
        return sturm_variations_at(chain, a) - sturm_variations_at(chain, b)

    def split(a: Fraction, b: Fraction, count: int) -> None:
        if count == 0:
            return
        if count == 1:
            out.append((a, b))
            return
        mid = (a + b) / 2
        if sign_at_fraction(q, mid) == 0:
            eps = (b - a) / 8
            while (
                n_roots(mid - eps, mid + eps) != 1
                or sign_at_fraction(q, mid - eps) == 0
                or sign_at_fraction(q, mid + eps) == 0
            ):
                eps /= 2
            cl = n_roots(a, mid - eps)
            split(a, mid - eps, cl)
            out.append((mid - eps, mid + eps))
            split(mid + eps, b, count - cl - 1)
            return
        cl = n_roots(a, mid)
        split(a, mid, cl)
        split(mid, b, count - cl)

    split(-B, B, n_roots(-B, B))
    out.sort(key=lambda ab: ab[0])
    return out


def isolate_real_roots(p: Sequence[int]) -> List[RealRootEnclosure]:
    """Isolating enclosures for all distinct real roots of p, with multiplicities."""
    p = strip(list(p))
    if is_zero(p):
        raise ValueError("zero polynomial")
    if degree(p) < 1:
        return []
    nz = 0
    while p[-1] == 0:
        p = p[:-1]
        nz += 1
    out: List[RealRootEnclosure] = []
    if degree(p) >= 1:
        for q, m in yun_squarefree(p):
            for lo, hi in _isolate_squarefree(q):
                out.append(RealRootEnclosure(tuple(q), lo, hi, m))
    if nz:
        out = [refine_away_from_zero(e) for e in out]
        eps = Fraction(1, 2)
        for e in out:
            gap = min(abs(e.lo), abs(e.hi))
            if gap > 0:
                eps = min(eps, gap / 2)
        out.append(RealRootEnclosure((1, 0), -eps, eps, nz))
    out.sort(key=lambda e: e.lo)
    # distinct roots of coprime factors: shrink until pairwise disjoint
    while True:
        out.sort(key=lambda e: e.lo)
        overlap = False
        for i in range(len(out) - 1):
            if out[i].hi > out[i + 1].lo:
                out[i] = refine(out[i], out[i].width() / 4)
                out[i + 1] = refine(out[i + 1], out[i + 1].width() / 4)
                overlap = True
        if not overlap:
            return out


# ---------------------------------------------------------------------------
# certified complex root enclosures
# ---------------------------------------------------------------------------


class EnclosureError(ArithmeticDomainError):
    pass


# interval Newton steps newton_refine takes before it calls the refinement stalled
NEWTON_MAX_ITER = 80


def horner_box(coeffs: Sequence[ComplexBox], z: ComplexBox, digits: int) -> ComplexBox:
    acc = ComplexBox.from_fractions(0, 0, digits)
    for c in coeffs:
        acc = acc.mul(z).add(c)
    return acc


def coeff_boxes(p: Sequence[Fraction], digits: int) -> List[ComplexBox]:
    return [ComplexBox.from_fractions(Fraction(c), 0, digits) for c in p]


def derivative_boxes(coeffs: Sequence[ComplexBox], digits: int) -> List[ComplexBox]:
    """Coefficients of the derivative of a polynomial with box coefficients."""
    n = len(coeffs) - 1
    return [c.mul_real(IntervalScalar.exact_int(n - i, digits)) for i, c in enumerate(coeffs[:-1])]


def newton_certify(
    coeffs: Sequence[ComplexBox],
    dcoeffs: Sequence[ComplexBox],
    z_re: Fraction,
    z_im: Fraction,
    radius: Fraction,
    digits: int,
) -> Optional[ComplexBox]:
    """Interval Newton test around an approximate root.

    Success certifies that the returned box (a strict subset of the trial
    box) contains exactly one root of every polynomial whose coefficients
    lie in the coefficient boxes.
    """
    Z = ComplexBox(
        IntervalScalar.from_fractions(z_re - radius, z_re + radius, digits),
        IntervalScalar.from_fractions(z_im - radius, z_im + radius, digits),
    )
    mid = ComplexBox.from_fractions(z_re, z_im, digits)
    try:
        fz = horner_box(coeffs, mid, digits)
        dfZ = horner_box(dcoeffs, Z, digits)
        N = mid.sub(fz.div_smith(dfZ))
    except ArithmeticDomainError:
        return None
    if N.strictly_inside(Z):
        return N
    return None


def newton_refine(
    coeffs: Sequence[ComplexBox],
    dcoeffs: Sequence[ComplexBox],
    box: ComplexBox,
    width: Fraction,
    digits: int,
) -> ComplexBox:
    cur = box
    for _ in range(NEWTON_MAX_ITER):
        if cur.width_fraction() <= width:
            return cur
        mid = ComplexBox.from_fractions(cur.re.mid_fraction(), cur.im.mid_fraction(), digits)
        try:
            fz = horner_box(coeffs, mid, digits)
            dfZ = horner_box(dcoeffs, cur, digits)
            N = mid.sub(fz.div_smith(dfZ))
            nxt = ComplexBox(N.re.intersect(cur.re), N.im.intersect(cur.im))
        except ArithmeticDomainError:
            break
        if nxt.width_fraction() >= cur.width_fraction():
            break
        cur = nxt
    if cur.width_fraction() <= width:
        return cur
    raise EnclosureError("Newton refinement stalled before target width")


def newton_root(
    coeffs: Sequence[ComplexBox],
    dcoeffs: Sequence[ComplexBox],
    z_re: Fraction,
    z_im: Fraction,
    width: Fraction,
    digits: int,
) -> Optional[ComplexBox]:
    """Certified box of width <= width around the one root near z_re + i*z_im.

    The trial box grows from a radius of about the square root of the
    working precision (seeds are far closer than that, and a small first box
    keeps clustered roots apart) until interval Newton maps it strictly
    inside itself; the box found is then refined.  None when no trial box
    certifies or the refinement stalls.
    """
    radius = Fraction(1, 2) ** max(8, digits_to_bits(digits) // 2)
    while radius <= Fraction(1, 2):
        box = newton_certify(coeffs, dcoeffs, z_re, z_im, radius, digits)
        if box is not None:
            try:
                return newton_refine(coeffs, dcoeffs, box, width, digits)
            except EnclosureError:
                return None
        radius *= 4
    return None


# the double-precision seed pass stops here, converged or not
FLOAT_SEED_STEPS = 100


def _float_seeds(p: Sequence[Fraction]) -> Optional[List[complex]]:
    """Durand-Kerner roots of p in double precision, from mpmath's own start
    (0.4 + 0.9i)^k; None when the pass overflows or its roots are not all
    finite and pairwise distinct."""
    n = len(p) - 1
    try:
        a = [float(c / p[0]) for c in p]
        z = [(0.4 + 0.9j) ** k for k in range(n)]
        for _ in range(FLOAT_SEED_STEPS):
            converged = True
            for i, zi in enumerate(z):
                f = 0j
                for c in a:
                    f = f * zi + c
                d = 1 + 0j
                for j, zj in enumerate(z):
                    if j != i:
                        d *= zi - zj
                step = f / d
                z[i] = zi - step
                converged = converged and abs(step) <= 2.0**-40 * abs(z[i])
            if converged:
                break
    except (OverflowError, ZeroDivisionError):
        return None
    if not all(cmath.isfinite(w) for w in z) or len(set(z)) != n:
        return None
    return z


# _approx_roots rescales polynomials whose Cauchy bound exceeds this
HUGE_ROOT_BOUND = 2**64


def _root_scale_exponent(p: Sequence[Fraction]) -> int:
    """e with 2^e about the largest root modulus of p: every root has
    modulus below 2 max_i |p_i/p_0|^(1/i) (Fujiwara), and this takes the
    exponent of that maximum."""
    e = 0
    for i, c in enumerate(p[1:], 1):
        if c:
            r = abs(Fraction(c) / p[0])
            e = max(e, -((r.denominator.bit_length() - r.numerator.bit_length() - 1) // i))
    return e


def _huge_root_exponent(p: Sequence[Fraction]) -> int:
    """_root_scale_exponent(p) past HUGE_ROOT_BOUND, else 0."""
    return _root_scale_exponent(p) if cauchy_bound(p) > HUGE_ROOT_BOUND else 0


def _approx_roots(p: Sequence[Fraction], dps: int) -> list:
    """Approximate roots of p to about dps digits: double-precision
    Durand-Kerner seeds, polished by ``mpmath.polyroots`` at dps digits
    (mpmath's own start where the seeds are unusable or do not converge).

    polyroots stops on an absolute tolerance, so roots far beyond 1 would
    never converge: past HUGE_ROOT_BOUND the roots w = z / 2^e of
    p(2^e w) / 2^(e deg p), of modulus about 1, are found instead and
    scaled back exactly."""
    e = _huge_root_exponent(p)
    if e:
        p = [Fraction(c) / 2 ** (e * i) for i, c in enumerate(p)]
    seeds = _float_seeds(p)
    with mpmath.workdps(dps):
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in p]
        # seeds that do not converge (doubles can split a close pair into two
        # real roots) are dropped for mpmath's own start
        starts = [None] if seeds is None else [[mpmath.mpc(w) for w in seeds], None]
        for init in starts:
            try:
                roots = mpmath.polyroots(coeffs, maxsteps=300, extraprec=120, roots_init=init)
            except (mpmath.libmp.NoConvergence, ZeroDivisionError):
                continue
            return [z * mpmath.ldexp(1, e) for z in roots] if e else roots
        return []


def _mpf_fraction(x) -> Fraction:
    """Exact value of an mpf, read from its own mantissa and exponent (not
    rounded to the global working precision)."""
    sign, man, exp, _bc = x._mpf_
    man = int(man)
    if sign:
        man = -man
    if exp >= 0:
        return Fraction(man << exp)
    return Fraction(man, 1 << (-exp))


def _pairwise_disjoint(boxes: Sequence[ComplexBox]) -> bool:
    for a, b in itertools.combinations(boxes, 2):
        if a.intersects(b):
            return False
    return True


def enclose_roots(
    p: Sequence[int], width: Fraction, digits: int
) -> List[Tuple[ComplexBox, bool]]:
    """Certified root classes of a real integer polynomial p (descending),
    at the one working precision given: (box, False) for each real root and
    (box, True) for the upper member of each conjugate pair.

    The approximations come from ``_approx_roots``: double-precision
    Durand-Kerner seeds, polished by ``mpmath.polyroots(roots_init=...)``
    at 10 digits above the working precision.  Interval Newton then
    certifies a box around each.

    Each box has width <= width and holds exactly one root of p.  Past
    HUGE_ROOT_BOUND the width is relative: it is multiplied by the 2^e of
    ``_approx_roots``' scaling, about the largest root modulus, since an
    absolute width there can be finer than the working precision reaches.
    Completeness holds because the boxes, conjugates included, are pairwise
    disjoint and their count is the degree.  Raises EnclosureError when
    certification fails at this precision.
    """
    n = len(p) - 1
    if n < 1:
        return []
    failed = "could not certify disjoint root enclosures at {} digits".format(digits)
    approx = _approx_roots(p, digits + 10)
    width *= 2 ** _huge_root_exponent(p)
    if len(approx) != n:
        raise EnclosureError(failed)
    zero = IntervalScalar.exact_int(0, digits)
    cboxes = [ComplexBox(IntervalScalar.exact_int(c, digits), zero) for c in p]
    dboxes = derivative_boxes(cboxes, digits)
    # split the seeds into real ones and upper-half pair ones; midpoint
    # rounding can push real roots slightly off the axis, so classify by
    # conjugate pairing: roots with positive imaginary part whose mirror is
    # also present form the pairs
    n_pairs = min(sum(mpmath.im(z) > 0 for z in approx), sum(mpmath.im(z) < 0 for z in approx))
    cand = sorted(approx, key=lambda z: abs(mpmath.im(z)))
    reals, rest = cand[: n - 2 * n_pairs], cand[n - 2 * n_pairs :]
    uppers = sorted((z for z in rest if mpmath.im(z) > 0), key=lambda z: -mpmath.im(z))
    if 2 * len(uppers) != len(rest):
        raise EnclosureError(failed)
    out: List[Tuple[ComplexBox, bool]] = []
    boxes: List[ComplexBox] = []
    for z, is_pair in [(z, False) for z in reals] + [(z, True) for z in uppers]:
        # a real seed gets a trial box symmetric about the real axis: the one
        # root certified there is then real, since its conjugate is a root too
        zr = _mpf_fraction(mpmath.re(z))
        zi = _mpf_fraction(mpmath.im(z)) if is_pair else Fraction(0)
        box = newton_root(cboxes, dboxes, zr, zi, width, digits)
        if box is None:
            raise EnclosureError(failed)
        if is_pair:
            if box.im.lo_fraction() <= 0:
                raise EnclosureError(failed)
            boxes += [box, box.conjugate()]
        else:
            box = ComplexBox(box.re, zero)
            boxes.append(box)
        out.append((box, is_pair))
    if not _pairwise_disjoint(boxes):
        raise EnclosureError(failed)
    return out


# ---------------------------------------------------------------------------
# root condition / unit disk classification
# ---------------------------------------------------------------------------


class RootCondition(enum.Enum):
    SATISFIED_STRICTLY = "satisfied_strictly"
    SATISFIED = "satisfied"
    VIOLATED = "violated"


def _schur_cohn_inside(a: Sequence[int]) -> bool:
    """Exact Schur-Cohn test: every root of the integer polynomial a has
    modulus < 1.

    With lead and const the extreme coefficients, the roots all lie strictly
    inside the unit disk iff |lead| > |const| and the same holds for
    (lead*a - const*a*)/z, where a* is the reversed polynomial of the same
    degree (Marden, Geometry of Polynomials, the Schur-Cohn criterion).  The
    transform lowers the degree by one, so the test takes deg(a) integer
    steps.
    """
    a = primitive(a)
    while len(a) > 1:
        lead, const = a[0], a[-1]
        if abs(lead) <= abs(const):
            return False
        # a[::-1] keeps the leading zeros of a* when const == 0, so that the
        # coefficients stay aligned; the constant term cancels exactly
        a = primitive([lead * x - const * y for x, y in zip(a, a[::-1])][:-1])
    return True


def root_condition(p: Sequence[Fraction]) -> RootCondition:
    """Exact root-condition test: all |root| <= 1, modulus-1 roots simple.

    Each squarefree Yun factor q splits as u * rest with u = gcd(q, q*): the roots
    of u are those z of q with 1/z a root too, so u is self-inversive, and
    every circle root of q is a root of u.  The rest must lie strictly inside.
    By Cohn's theorem (A. Cohn, Math. Z. 14, 1922) the roots of u all lie on
    the circle iff the roots of u' lie in the closed disk; u is squarefree,
    so by Gauss-Lucas they then lie strictly inside, which Schur-Cohn decides.
    """
    ip = to_integer(p)
    if degree(ip) < 1:
        raise ValueError("root condition needs a non-constant polynomial")
    strict = True
    for q, m in yun_squarefree(ip):
        # a root at zero has no inverse, so it stays in rest, strictly inside
        u = gcd_int_poly(q, reverse(q))
        rest = to_integer(divexact([Fraction(c) for c in q], [Fraction(c) for c in u]))
        if not _schur_cohn_inside(rest):
            return RootCondition.VIOLATED
        if degree(u) >= 1:
            # off the circle, the roots of u come in pairs r, 1/r, one of
            # which lies outside; on it, a multiple root violates the condition
            if m >= 2 or not _schur_cohn_inside(derivative(u)):
                return RootCondition.VIOLATED
            strict = False
    return RootCondition.SATISFIED_STRICTLY if strict else RootCondition.SATISFIED


def all_roots_strictly_inside(p: Sequence[Fraction]) -> bool:
    """Exact test: every root has modulus < 1."""
    ip = to_integer(p)
    if degree(ip) < 1:
        raise ValueError("needs a non-constant polynomial")
    return _schur_cohn_inside(ip)

