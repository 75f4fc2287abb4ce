"""Exact polynomial algebra with certified root analysis.

Coefficient lists are kept in descending degree order throughout.  Every
decision routine takes integer coefficients only; the generic ring helpers
(``add``, ``mul``, ``scale``, ``derivative``, ``eval_at``) work over any
ring.  Rational numbers enter only as points: the argument of
``sign_at_fraction``, the endpoints of ``count_real_roots`` and of the
isolating intervals that ``refine`` shrinks.  Where an
exact real root is the answer, it is isolated with signed subresultant
(Sturm) chains over the integers and refined by exact rational bisection.
All roots of an integer polynomial, real and complex alike, are enclosed by
one engine, ``enclose_roots``: double-precision Durand-Kerner seeds,
polished by Newton's method in Gaussian fixed point, then certified all at
once by one exact test, pairwise disjoint Gerschgorin inclusion disks;
``mpmath.polyroots`` seeds only the roots that doubles cannot separate.
Each root comes back as its certified disk, a Gaussian-integer ball
(``arith.GaussBall``), which the closed forms compute on as it stands.
Root location relative to the unit circle is decided exactly by one
mechanism, the Schur-Cohn reduction over the integers: membership of the open
unit disk directly, and membership of the circle itself through the gcd with
the reversed polynomial and Cohn's theorem on self-inversive polynomials,
never numerically.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import mpmath
from mpmath.libmp import from_float, to_fixed

from .arith import ArithmeticDomainError, GaussBall, digits_to_bits

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


def divexact(a: Sequence[int], b: Sequence[int]) -> list:
    """The integer polynomial a / b; raises ValueError on a nonzero remainder."""
    a, b = strip(a), strip(b)
    if is_zero(b):
        raise ZeroDivisionError("polynomial division by zero")
    lb = b[0]
    q: list = []
    r = list(a)
    while len(r) >= len(b):
        f, rem = divmod(r[0], lb)
        if rem:
            raise ValueError("polynomial division was not exact")
        q.append(f)
        for i in range(1, len(b)):
            r[i] -= f * b[i]
        del r[0]
    if any(r):
        raise ValueError("polynomial division was not exact")
    return strip(q)


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


def yun_squarefree(p: Sequence[int]) -> List[Tuple[list, int]]:
    """Yun decomposition: p ~ prod q_i^i, q_i squarefree and pairwise coprime.

    Returns [(q_i, i)] for non-constant q_i, with q_i primitive integer
    polynomials (positive leading coefficient).  Every gcd is primitive, so
    by Gauss's lemma each quotient stays an integer polynomial; c and d are
    always divided by the same factor, so they differ from the rational
    algorithm's only by one common constant.
    """
    p = primitive(p)
    if degree(p) < 1:
        return []
    dp = derivative(p)
    g = gcd_int_poly(p, dp)
    if degree(g) == 0:
        return [(p, 1)]
    out: List[Tuple[list, int]] = []
    c = divexact(p, g)
    d = sub(divexact(dp, g), derivative(c))
    i = 1
    while True:
        a = gcd_int_poly(c, d)
        if degree(a) > 0:
            out.append((a, i))
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


def resultant(a: Sequence[int], b: Sequence[int]) -> int:
    """Resultant of two integer polynomials: fraction-free elimination on
    the Sylvester matrix."""
    a, b = strip(a), strip(b)
    if is_zero(a) or is_zero(b):
        return 0
    m, n = degree(a), degree(b)
    if m == 0:
        return a[0] ** n
    if n == 0:
        return b[0] ** m
    size = m + n
    M = [[0] * size for _ in range(size)]
    for i in range(n):
        M[i][i : i + m + 1] = a
    for i in range(m):
        M[n + i][i : i + n + 1] = b
    return _bareiss_det(M)


def discriminant(p: Sequence[int]) -> int:
    """Exact discriminant of an integer polynomial; zero iff p has a
    multiple root."""
    p = strip(p)
    n = degree(p)
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    if n == 1:
        return 1
    s = -1 if (n * (n - 1) // 2) % 2 else 1
    # Res(p, p') = (-1)^(n(n-1)/2) lc(p) disc(p), so the division is exact
    return s * resultant(p, derivative(p)) // p[0]


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


# the double-precision seed pass stops here, converged or not
FLOAT_SEED_STEPS = 100


def _float_seeds(p: Sequence[int]) -> Optional[List[complex]]:
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


# enclose_roots rescales polynomials whose Cauchy bound exceeds this
HUGE_ROOT_BOUND = 2**64


def _root_scale_exponent(p: Sequence[int]) -> int:
    """e with 2^e about the largest root modulus of p: every root has
    modulus below 2 max_i |p_i/p_0|^(1/i) (Fujiwara), and this takes the
    exponent of that maximum."""
    e = 0
    for i, c in enumerate(p[1:], 1):
        if c:
            r = abs(Fraction(c) / p[0])
            e = max(e, -((r.denominator.bit_length() - r.numerator.bit_length() - 1) // i))
    return e


def _huge_root_exponent(p: Sequence[int]) -> int:
    """_root_scale_exponent(p) past HUGE_ROOT_BOUND, else 0."""
    return _root_scale_exponent(p) if cauchy_bound(p) > HUGE_ROOT_BOUND else 0


def _approx_roots(p: Sequence[int], dps: int, seeds: Optional[List[complex]]) -> list:
    """Roots of p to about dps digits by ``mpmath.polyroots``, started from
    the double-precision seeds, or from mpmath's own start where there are
    none or they do not converge (doubles can split a close pair into two
    real roots); [] when neither converges.  polyroots stops on an absolute
    tolerance, so roots far beyond 1 would never converge: enclose_roots
    passes those scaled to modulus about 1."""
    with mpmath.workdps(dps):
        coeffs = [mpmath.mpf(c) for c in p]
        for init in ([None] if seeds is None else [[mpmath.mpc(w) for w in seeds], None]):
            try:
                return mpmath.polyroots(coeffs, maxsteps=300, extraprec=120, roots_init=init)
            except (mpmath.libmp.NoConvergence, ZeroDivisionError):
                continue
        return []


# the Newton polish takes double seeds at this fixed-point scale, 2^-SEED_BITS
SEED_BITS = 64
# bits the polish carries beyond the working precision
POLISH_GUARD = 32
# Newton steps at the final scale before the disk test takes the centres as
# they stand
FINAL_STEPS = 8


def _fixed_seeds(seeds: Iterable, prec: int) -> List[Tuple[int, int]]:
    """Approximate roots, Python complex numbers or mpmath numbers at their
    own precision, as Gaussian integers x + iy standing for (x + iy) /
    2^prec, rounded down."""

    def fixed(v) -> int:
        return to_fixed(v._mpf_ if isinstance(v, mpmath.mpf) else from_float(v), prec)

    return [(fixed(z.real), fixed(z.imag)) for z in seeds]


def _div_round(a: int, b: int) -> int:
    """a / b rounded to the nearest integer (b > 0)."""
    return (2 * a + b) // (2 * b)


def _newton_step(q: Sequence[int], x: int, y: int, prec: int) -> Optional[Tuple[int, int]]:
    """The Newton step q(z)/q'(z) at z = (x + iy) / 2^prec, in units of
    2^-prec, from fixed-point Horner sums at that scale; None where q'(z)
    rounds to 0.  q is real, so at y = 0 the step is real too: real seeds
    stay on the axis."""
    fr, fi, dr, di = q[0] << prec, 0, 0, 0
    for c in q[1:]:
        dr, di = ((dr * x - di * y) >> prec) + fr, ((dr * y + di * x) >> prec) + fi
        fr, fi = ((fr * x - fi * y) >> prec) + (c << prec), (fr * y + fi * x) >> prec
    den = dr * dr + di * di
    if den == 0:
        return None
    return (
        _div_round((fr * dr + fi * di) << prec, den),
        _div_round((fi * dr - fr * di) << prec, den),
    )


def _polish(
    q: Sequence[int], seeds: Sequence[Tuple[int, int]], prec: int, final: int
) -> Optional[List[Tuple[int, int]]]:
    """Newton's method on fixed-point seeds at scale 2^-prec: one step at
    each scale while the scale doubles up to 2^-final, where the steps go on
    until one moves the point by at most 2^POLISH_GUARD units (FINAL_STEPS
    more at most).  The results are at scale 2^-final; None where a
    derivative vanishes."""
    out = []
    for x, y in seeds:
        p, left = prec, FINAL_STEPS
        while True:
            step = _newton_step(q, x, y, p)
            if step is None:
                return None
            x, y = x - step[0], y - step[1]
            if p < final:
                shift = min(p, final - p)
                x, y, p = x << shift, y << shift, p + shift
            elif left == 0 or max(abs(step[0]), abs(step[1])) <= 1 << POLISH_GUARD:
                break
            else:
                left -= 1
        out.append((x, y))
    return out


def _gerschgorin_disks(
    q: Sequence[int], reals: Sequence[Tuple[int, int]], uppers: Sequence[Tuple[int, int]], prec: int
) -> Optional[List[Tuple[int, int, int]]]:
    """Disks that each hold exactly one root of the real integer polynomial
    q, one per centre of reals and uppers: (x, y, r) for the disk of radius
    r about x + iy, in units of 2^-prec.  The n = deg q centres are the
    Gaussian fixed-point numbers of reals (y = 0) and uppers and the
    conjugates of uppers.  None when two centres coincide, two disks meet,
    or an upper disk reaches the real axis.

    With a_0 the leading coefficient and W_i = q(z_i) / (a_0 prod_(j != i)
    (z_i - z_j)), q/a_0 is the characteristic polynomial of diag(z) - 1 W^T,
    so by Gerschgorin's theorem on its columns every root lies in the union
    of the disks D(z_i - W_i, (n - 1)|W_i|), and disjoint disks hold one root
    each (Braess & Hadeler, Numer. Math. 21, 1973; Carstensen, Numer. Math.
    59, 1991).  W_i is an exact Gaussian rational; its centre is rounded
    down and the radius widened by 2 units to cover that, except where
    q(z_i) = 0, whose disk is the point z_i.  A disk about a real centre is
    symmetric about the axis, so its one root is real; an upper disk above
    the axis holds a non-real root, and its mirror the conjugate.
    """
    n = len(q) - 1
    centres = list(reals) + list(uppers) + [(x, -y) for x, y in uppers]
    if len(centres) != n:
        return None
    a0 = q[0]
    disks = []
    for i, (x, y) in enumerate(centres[: n - len(uppers)]):
        # q(z_i) 2^(n prec), exactly
        fr, fi = a0, 0
        for k, c in enumerate(q[1:], 1):
            fr, fi = fr * x - fi * y + (c << (k * prec)), fr * y + fi * x
        if fr == fi == 0:
            disks.append((x, y, 0))
            continue
        # prod_(j != i) (z_i - z_j) 2^((n - 1) prec)
        dr, di = 1, 0
        for j, (u, v) in enumerate(centres):
            if j != i:
                dr, di = dr * (x - u) - di * (y - v), dr * (y - v) + di * (x - u)
        dd = dr * dr + di * di
        if dd == 0:
            return None
        # W_i 2^prec = F conj(D) / (a_0 |D|^2)
        den = a0 * dd
        wr, wi = (fr * dr + fi * di) // den, (fi * dr - fr * di) // den
        r_sq = -(-((n - 1) ** 2) * (fr * fr + fi * fi) // (den * a0))
        r = (isqrt(r_sq - 1) + 1 if r_sq else 0) + 2
        disks.append((x - wr, y - wi, r))
    ups = disks[len(reals):]
    if any(cy <= r for _, cy, r in ups):
        return None
    every = disks + [(cx, -cy, r) for cx, cy, r in ups]
    for i, (ax, ay, ar) in enumerate(every):
        for bx, by, br in every[i + 1 :]:
            if (ax - bx) ** 2 + (ay - by) ** 2 <= (ar + br) ** 2:
                return None
    return disks


def _split_seeds(
    seeds: Sequence[Tuple[int, int]], n_real: int
) -> Optional[Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]]:
    """The n_real seeds nearest the real axis, put on it and in increasing
    order, and the upper members of the rest, by decreasing imaginary part;
    None when the rest do not split evenly across the axis."""
    by_im = sorted(seeds, key=lambda s: abs(s[1]))
    rest = by_im[n_real:]
    uppers = sorted((s for s in rest if s[1] > 0), key=lambda s: -s[1])
    if 2 * len(uppers) != len(rest):
        return None
    return sorted((x, 0) for x, _ in by_im[:n_real]), uppers


def _seed_sets(
    q: Sequence[int], digits: int, final: int
) -> Iterator[Tuple[int, List[Tuple[int, int]]]]:
    """The seed sets enclose_roots tries, in order, as (scale, fixed-point
    seeds): the double pass at SEED_BITS, then ``_approx_roots`` at 10
    digits above the working precision, rounded to the final scale."""
    seeds = _float_seeds(q)
    if seeds is not None:
        yield SEED_BITS, _fixed_seeds(seeds, SEED_BITS)
    approx = _approx_roots(q, digits + 10, seeds)
    if len(approx) == len(q) - 1:
        yield final, _fixed_seeds(approx, final)


def enclose_roots(
    p: Sequence[int], width: Fraction, digits: int
) -> List[Tuple[GaussBall, bool]]:
    """Certified root classes of a squarefree real integer polynomial p
    (descending), at the one working precision given: (ball, False) for each
    real root and (ball, True) for the upper member of each conjugate pair.

    Double-precision Durand-Kerner seeds, split into reals and pairs by an
    exact Sturm count of the real roots, are polished by Newton's method in
    Gaussian fixed point, the scale doubling up to 2^-final, final = bits +
    POLISH_GUARD; a pair is polished once, by its upper member, and
    mirrored.  One exact test, ``_gerschgorin_disks``, then certifies a disk
    about each.  Where the double pass fails or its disks meet (roots closer
    than a double separates), seeds from ``mpmath.polyroots`` at 10 digits
    above the working precision go through the same polish and test.

    Each ball is a certified disk as it stands, at the scale 2^(e - final):
    its diameter is <= width and it holds exactly one root of p; a real
    ball has y = 0, and a root that Newton's method hits exactly (a dyadic
    one) gets radius 0.  Past HUGE_ROOT_BOUND the roots w = z / 2^e of
    p(2^e w), of modulus about 1, are enclosed instead, which the scale
    undoes exactly, and the width is relative: it is multiplied by 2^e,
    since an absolute width there can be finer than the working precision
    reaches.  Raises EnclosureError when certification fails at this
    precision.
    """
    n = len(p) - 1
    if n < 1:
        return []
    e = _huge_root_exponent(p)
    q = [int(c) << (e * (n - i)) for i, c in enumerate(p)]
    final = digits_to_bits(digits) + POLISH_GUARD
    # a disk's diameter 2r 2^(e - final) against width 2^e
    limit = width * 2**final
    n_real = count_real_roots(p)
    for prec, seeds in _seed_sets(q, digits, final):
        split = _split_seeds(seeds, n_real)
        if split is None:
            continue
        reals, uppers = (_polish(q, part, prec, final) for part in split)
        if reals is None or uppers is None:
            continue
        disks = _gerschgorin_disks(q, reals, uppers, final)
        if disks is None or any(2 * r > limit for _, _, r in disks):
            continue
        return [
            (GaussBall(x, y, r, final - e), k >= len(reals)) for k, (x, y, r) in enumerate(disks)
        ]
    raise EnclosureError("could not certify disjoint root enclosures at {} digits".format(digits))


# ---------------------------------------------------------------------------
# root condition / unit disk classification
# ---------------------------------------------------------------------------


class RootCondition(enum.Enum):
    SATISFIED_STRICTLY = "satisfied_strictly"
    SATISFIED = "satisfied"
    VIOLATED = "violated"


def all_roots_strictly_inside(a: Sequence[int]) -> bool:
    """Exact Schur-Cohn test: every root of the nonzero integer polynomial a
    has modulus < 1 (vacuously so for a constant).

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


def root_condition(p: Sequence[int]) -> RootCondition:
    """Exact root-condition test on an integer polynomial: all |root| <= 1,
    modulus-1 roots simple.

    Each squarefree Yun factor q splits as u * rest with u = gcd(q, q*): the roots
    of u are those z of q with 1/z a root too, so u is self-inversive, and
    every circle root of q is a root of u.  The rest must lie strictly inside.
    By Cohn's theorem (A. Cohn, Math. Z. 14, 1922) the roots of u all lie on
    the circle iff the roots of u' lie in the closed disk; u is squarefree,
    so by Gauss-Lucas they then lie strictly inside, which Schur-Cohn decides.
    """
    if degree(strip(p)) < 1:
        raise ValueError("root condition needs a non-constant polynomial")
    strict = True
    for q, m in yun_squarefree(p):
        # a root at zero has no inverse, so it stays in rest, strictly inside
        u = gcd_int_poly(q, reverse(q))
        if not all_roots_strictly_inside(divexact(q, u)):
            return RootCondition.VIOLATED
        if degree(u) >= 1:
            # off the circle, the roots of u come in pairs r, 1/r, one of
            # which lies outside; on it, a multiple root violates the condition
            if m >= 2 or not all_roots_strictly_inside(derivative(u)):
                return RootCondition.VIOLATED
            strict = False
    return RootCondition.SATISFIED_STRICTLY if strict else RootCondition.SATISFIED
