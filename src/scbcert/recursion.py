"""Damped and undamped auxiliary recursions with certified closed forms.

The damped sequence (called mu here) resolves the implicit term of the
one-leg recursion; its gamma=0 specialization (tau) drives the existence
test.  Both are evaluated exactly, through one integer-scaled recurrence
whose integer numerators also give the signs, or as containing integer
balls at a chosen working precision, whose signs are certified.  The same
integer setup (E, C_j, F_n) gives the characteristic polynomial
chi = [E, -C_1, ..., -C_k] at a rational gamma and, with gamma left a
variable, the member functions mu_n = M_n / E(gamma)^(n+1) with integer
polynomials M_n.  Closed forms, at a rational gamma only, take the
certified root disks of chi from the one engine ``poly.enclose_roots``
(exact Gerschgorin disks about fixed-point Newton seeds) as they stand, as
Gaussian-integer balls, and compute on them in exact integer ball
arithmetic: the coefficient of each root is read off the generating
function as a residue, the reconstruction is checked against the exact
sequence, and the tail certificate turns a dominant positive real root into
a proof of positivity beyond a computed index.  Every bound these give is
an exact Fraction read off a ball's centre and radius.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from mpmath.libmp import mpf_neg, to_fixed

from . import poly
from .arith import (
    BALL_GUARD,
    DEFAULT_DIGITS,
    ArithmeticDomainError,
    GaussBall,
    IntervalScalar,
    digits_to_bits,
    fraction_str,
)
from .methods import Method, MethodError
from .poly import EnclosureError

# tail_certificate gives up when the residual bound needs more terms than this
TAIL_SEARCH_CAP = 1 << 14


class MultipleRootError(ArithmeticDomainError):
    """Closed form unavailable: characteristic polynomial has multiple roots."""


# ---------------------------------------------------------------------------
# exact evaluation
# ---------------------------------------------------------------------------


def _scaled_coefficients(
    ints: Tuple[int, List[int], List[int]], gamma: Fraction
) -> Tuple[int, List[int], List[int]]:
    """E, C_1..C_k and F_0..F_k of the integer-scaled recurrence (see
    _scaled_numerators) at gamma, from the method's integers (L, A, B),
    with their content taken out.  C_j / E is the recurrence coefficient
    (a_j - gamma*b_j) / (1 + gamma*b0) exactly."""
    L, A, B = ints
    gamma = Fraction(gamma)
    p, q = gamma.numerator, gamma.denominator
    E = q * L + p * B[0]
    if E == 0:
        raise ArithmeticDomainError("1 + gamma*b0 vanishes")
    C = [q * a - p * b for a, b in zip(A, B[1:])]
    F = [q * b for b in B]
    c = math.gcd(E, *C, *F)
    return E // c, [v // c for v in C], [v // c for v in F]


def _numerators(E: int, C: Sequence[int], F: Sequence[int]) -> Iterator[int]:
    """The endless iterator over M_0, M_1, ... of _scaled_numerators."""
    k = len(C)
    inhom = [F[n] * E**n for n in range(k + 1)]
    # the window runs oldest first, so the coefficients run C_k..C_1
    D = [C[j - 1] * E ** (j - 1) for j in range(k, 0, -1)]
    window = [0] * k  # M_(n-k)..M_(n-1); M_n = 0 for n < 0
    for n in itertools.count():
        acc = sum(map(operator.mul, D, window), inhom[n] if n <= k else 0)
        yield acc
        del window[0]
        window.append(acc)


def _scaled_numerators(m: Method, gamma: Fraction) -> Tuple[int, Iterator[int]]:
    """The integer-scaled recurrence behind every exact value of mu and tau.

    With gamma = p/q and L the common denominator of the coefficients, put
    E = qL + p*L*b0, C_j = qL*a_j - p*L*b_j and F_n = qL*b_n, each divided by
    their content c = gcd(E, C_1..C_k, F_0..F_k) > 0.  Then mu_n = M_n / E^(n+1)
    for the integers M_n = F_n*E^n + sum_j C_j*E^(j-1)*M_(n-j), so every step
    multiplies big integers by small ones and needs no gcd, and
    sign(mu_n) = sign(M_n) * sign(E)^(n+1).  Dividing by c scales M_n by
    c^-(n+1) and changes no sign.  tau is the case gamma = 0.

    Returns E and an endless iterator over M_0, M_1, ...
    """
    E, C, F = _scaled_coefficients(m.integers, gamma)
    return E, _numerators(E, C, F)


def _characteristic(m: Method, gamma: Fraction) -> Tuple[List[int], List[int]]:
    """chi = [E, -C_1, ..., -C_k], the characteristic polynomial of the
    damped recursion at gamma >= 0 as the integers of _scaled_coefficients
    (a nonzero multiple of rho + gamma*sigma), with its roots at zero
    stripped, and F_0..F_k on the same scale; both negated where E < 0, so
    that chi leads with E > 0."""
    gamma = Fraction(gamma)
    if gamma < 0:
        raise MethodError("gamma must be nonnegative")
    E, C, F = _scaled_coefficients(m.integers, gamma)
    s = 1 if E > 0 else -1
    chi = [s * E] + [-s * c for c in C]
    while len(chi) > 1 and chi[-1] == 0:
        chi.pop()  # roots at zero do not enter the closed forms
    return chi, [s * f for f in F]


def _sign(M: int, E: int, n: int) -> int:
    """The sign of mu_n = M / E^(n+1)."""
    s = (M > 0) - (M < 0)
    return -s if E < 0 and n % 2 == 0 else s


# _coprime_fraction(num, den): Fraction(num, den) for coprime num and den > 0,
# built without the gcd that Fraction's constructor would run again on every
# value of a long prefix
if hasattr(Fraction, "_from_coprime_ints"):
    _coprime_fraction = Fraction._from_coprime_ints
else:
    def _coprime_fraction(num: int, den: int) -> Fraction:
        """Before Python 3.12 Fraction has no such constructor; its __new__
        only sets the two slots after normalising, so setting them directly
        gives an equal object (same equality, hash and arithmetic)."""
        q = object.__new__(Fraction)
        q._numerator = num
        q._denominator = den
        return q


# rounds of the cheap reduction in _lowest_terms before one full gcd
_E_GCD_ROUNDS = 4


def _lowest_terms(M: int, d: int, E: int) -> Tuple[int, int]:
    """M/d in lowest terms as a pair (num, den) with den > 0, where d is a
    power E^(n+1), n >= 0.

    Every common factor of M and d is built from primes of E, so dividing
    out g = gcd(M, gcd(d, E)), a big-by-small gcd at linear cost, reaches
    lowest terms after a few rounds in practice.  (g must divide d, which
    gcd(M, E) alone need not once d has been divided; in the first round d
    is still a power of E, so there g = gcd(M, E).)  If it has not, one full
    gcd(M, d) finishes, so the worst case is the plain Fraction cost.
    """
    if M == 0:
        return 0, 1
    if d < 0:
        M, d = -M, -d
    e = abs(E)
    g = math.gcd(M, e)  # the first round, while d is a power of E
    for _ in range(_E_GCD_ROUNDS - 1):
        if g == 1:
            return M, d
        M //= g
        d //= g
        g = math.gcd(M, math.gcd(d, e))
    if g == 1:
        return M, d
    g = math.gcd(M, d)
    return M // g, d // g


def _reduced_values(E: int, nums: Iterator[int], n_max: int) -> Iterator[Tuple[int, int]]:
    """mu_0..mu_{n_max} as lowest-terms pairs of M_n / E^(n+1), with a
    running power of E.

    Once gcd(M_1, E) = 1, every later pair is already in lowest terms and
    only its sign is normalised.  Proof: let p be a prime dividing E.  In
    the recurrence of _scaled_numerators, F_n*E^n and C_j*E^(j-1)*M_(n-j)
    vanish mod p for n >= 1 and j >= 2, so M_n = C_1*M_(n-1) (mod p), and
    M_0 = F_0.  Hence M_n = C_1^n * F_0 (mod p) for all n.  p does not
    divide M_1 = C_1*F_0 (mod p), so it divides neither C_1 nor F_0, and
    so no M_n.  The denominator E^(n+1) has no other primes, so
    gcd(M_n, E^(n+1)) = 1.
    """
    den = E
    coprime = False
    for n, M in enumerate(itertools.islice(nums, n_max + 1)):
        if coprime:
            yield (M, den) if den > 0 else (-M, -den)
        else:
            yield _lowest_terms(M, den, E)
            coprime = n == 1 and math.gcd(M, E) == 1
        den *= E


def mu_prefix(m: Method, gamma: Fraction, n_max: int) -> List[Fraction]:
    """Exact values mu_0..mu_{n_max}; terms for n < 0 are zero."""
    E, nums = _scaled_numerators(m, gamma)
    return [_coprime_fraction(num, den) for num, den in _reduced_values(E, nums, n_max)]


# grid points per block of mu_sweep
_SWEEP_BLOCK = 64


def _sweep_block(
    ints: Tuple[int, Tuple[int, ...], Tuple[int, ...]], gammas: Sequence[Fraction], n_max: int
) -> List[List[Tuple[int, int]]]:
    """Lowest-terms pairs of mu_0..mu_{n_max} at each gamma of a block.

    The recurrence of _scaled_numerators runs one step n at a time across
    the whole block: every list below is a column with one entry per gamma
    (a lane).  Each lane's numerators then go through _reduced_values.
    """
    k = len(ints[1])
    E, C, F = zip(*(_scaled_coefficients(ints, g) for g in gammas))
    power = [1] * len(E)  # E^n, lane by lane
    inhom = []  # F_n*E^n for n = 0..k
    D = []  # C_(j+1)*E^j for j = 0..k-1
    for n in range(k + 1):
        inhom.append(list(map(operator.mul, [f[n] for f in F], power)))
        if n < k:
            D.append(list(map(operator.mul, [c[n] for c in C], power)))
        power = list(map(operator.mul, power, E))
    cols: List[List[int]] = []  # M_0..M_n
    for n in range(n_max + 1):
        acc = inhom[n] if n <= k else itertools.repeat(0)
        for j in range(min(k, n)):
            acc = map(operator.add, acc, map(operator.mul, D[j], cols[n - 1 - j]))
        cols.append(list(acc))
    return [list(_reduced_values(e, iter(nums), n_max)) for e, nums in zip(E, zip(*cols))]


def mu_sweep(
    m: Method, gammas: Sequence[Fraction], n_max: int
) -> Iterator[Tuple[Fraction, List[Tuple[int, int]]]]:
    """(gamma, lowest-terms pairs (num, den) of mu_0..mu_{n_max}) for each
    gamma in turn: mu_prefix over a grid, with the method's integers built
    once, no Fraction built per value, and each recurrence step run across
    a block of _SWEEP_BLOCK grid points (see _sweep_block), computed only
    as the iteration reaches it."""
    ints = m.integers
    for i in range(0, len(gammas), _SWEEP_BLOCK):
        block = gammas[i:i + _SWEEP_BLOCK]
        yield from zip(block, _sweep_block(ints, block, n_max))


def mu_signs(m: Method, gamma: Fraction, n_max: int) -> List[int]:
    """Signs (-1, 0 or 1) of mu_0..mu_{n_max}, decided exactly without
    building the rationals; gamma = 0 gives the signs of tau."""
    E, nums = _scaled_numerators(m, gamma)
    return [_sign(M, E, n) for n, M in enumerate(itertools.islice(nums, n_max + 1))]


def first_negative_mu(m: Method, gamma: Fraction, n_max: int) -> Optional[int]:
    """Least n in 1..n_max with mu_n < 0, or None; decided exactly."""
    E, nums = _scaled_numerators(m, gamma)
    for n, M in enumerate(itertools.islice(nums, n_max + 1)):
        if n and _sign(M, E, n) < 0:
            return n
    return None


def eval_mu(m: Method, gamma: Fraction, n: int) -> Fraction:
    if n < 0:
        return Fraction(0)
    E, nums = _scaled_numerators(m, gamma)
    M = next(itertools.islice(nums, n, None))
    return _coprime_fraction(*_lowest_terms(M, E ** (n + 1), E))


def tau_prefix(m: Method, n_max: int) -> List[Fraction]:
    """Exact values tau_0..tau_{n_max}: mu at gamma = 0."""
    return mu_prefix(m, Fraction(0), n_max)


def eval_tau(m: Method, n: int) -> Fraction:
    return eval_mu(m, Fraction(0), n)


# ---------------------------------------------------------------------------
# interval evaluation (streaming)
# ---------------------------------------------------------------------------


def _integer_ball(iv: IntervalScalar, scale: int) -> Tuple[int, int]:
    """Integers (c, r), r >= 0, with iv inside [c - r, c + r] * 2^-scale."""
    lo = to_fixed(iv.lo, scale)  # floor
    hi = -to_fixed(mpf_neg(iv.hi), scale)  # ceiling
    c = (lo + hi) >> 1
    return c, hi - c


def _cut_balls(
    balls: Sequence[Tuple[int, int]], cut: int
) -> Tuple[List[int], List[int], List[int], List[int]]:
    """The balls (c, r) rounded from scale 2^-P to 2^-(P - cut), as lists
    C, rc and the 64 leading bits of each |C|, rounded up: |C| <= top << sh."""
    C: List[int] = []
    rc: List[int] = []
    top: List[int] = []
    sh: List[int] = []
    for c, r in balls:
        if cut:
            c, r = (c + (1 << (cut - 1))) >> cut, (r >> cut) + 2
        s = max(0, abs(c).bit_length() - 64)
        C.append(c)
        rc.append(r)
        top.append(-(-abs(c) >> s))
        sh.append(s)
    return C, rc, top, sh


def _product_form(
    C: List[int], exact: Tuple[int, List[int]], Pc: int
) -> Tuple[List[int], List[int], int, int]:
    """(U, V, s, E) with sum_j C_j*x_j = (2^s * sum_j U_j*x_j + sum_j V_j*x_j) / E
    exactly for every window x, where C holds the coefficient midpoints at
    scale 2^-Pc and exact = (E, N) the exact coefficients N_j / E.

    U = N, s = Pc and V_j = C_j*E - N_j*2^Pc: the ball around C_j holds
    N_j*2^Pc / E, so |V_j| <= rc_j*|E|, and every product is small by big.
    (The plain sum, U = C, V = 0, s = 0 and E = 1, gives the same T.)
    """
    E, N = exact
    return N, [c * E - (nj << Pc) for c, nj in zip(C, N)], Pc, E


def _mu_balls(
    m: Method, gamma: Fraction, n_max: int, digits: int
) -> Tuple[int, Iterator[Tuple[int, int, int, int]]]:
    """The integer ball kernel behind run_mu_signs.

    Returns the working precision P in bits and an iterator over (n, x, r,
    S) for n = 1..n_max, with mu_n in [x - r, x + r] * 2^-S at the rational
    gamma.  The recurrence coefficients and inhomogeneous terms are the
    outward-rounded intervals at ``digits`` (P bits); the recurrence itself
    runs in midpoint-radius arithmetic on integers, keeping each midpoint
    only to the bits its radius leaves (Arb's rule, with arith.BALL_GUARD
    bits kept below each radius).

    The sliding window of k terms holds balls (X_i, R_i) at one shared
    scale 2^-S, with the invariant that mu_(n-i) lies in
    [X_i - R_i, X_i + R_i] * 2^-S.  Each coefficient is a ball (C_j, rc_j)
    at scale 2^-(P - cut).  A term is the exact sum T = sum_j C_j X_(n-j),
    with radius sum_j (|C_j|* R_(n-j) + rc_j (|X_(n-j)| + R_(n-j))), where
    |C_j|* is |C_j| rounded up to 64 leading bits, then one rounding shift
    by P - cut bits (which adds 1 to the radius).

    The exact coefficients are N_j / E, with the small integers of the
    exact recurrence (see _scaled_numerators), and the ball around C_j
    holds N_j*2^(P - cut) / E.  So d_j = C_j*E - N_j*2^(P - cut) is an
    integer with |d_j| <= rc_j*|E|, and
    E*T = 2^(P - cut) * sum_j N_j X_(n-j) + sum_j d_j X_(n-j)
    holds exactly.  T is computed that way: 2k small-by-big products, one
    shift and one exact division by E (of either sign), at linear cost in
    the length of the window instead of k full products.  T is the same
    integer either way, so every midpoint, radius and scale, and every
    sign read off them, is unchanged; only the cost differs.

    After each term the window is rescaled.  Its useful bits are
    bitlen(max |X_i|) - bitlen(max R_i), and its target length is
    min(P + 32, useful + BALL_GUARD): the working precision caps it while
    the radius is small, and past that the radius keeps about BALL_GUARD
    bits.  The window is shifted left exactly when it is more than 32 bits
    short of the target, and right, with rounding and 2 added to each
    radius, when it is more than 64 bits over; an all-zero window is left
    alone.  The coefficients are rounded from their full P-bit balls to
    about (useful + BALL_GUARD) bits of their own length: the cut is
    bitlen(max |C_j|) - useful - BALL_GUARD, clamped to [0, P] and rounded
    down to a multiple of 32, and a ball (c, rc) becomes
    (round(c / 2^cut), (rc >> cut) + 2).  Every rounding goes into a
    radius, so each product costs about the useful length, not P, and a
    trim moves a radius by about 2^-64 of itself.
    """
    g = IntervalScalar.from_fraction(gamma, digits)
    one = IntervalScalar.exact_int(1, digits)
    b0 = IntervalScalar.from_fraction(m.b0, digits)
    den = one.add(g.mul(b0))
    if den.contains_zero():
        raise ArithmeticDomainError("1 + gamma*b0 may vanish on the enclosure")
    coeffs = []
    for j in range(1, m.k + 1):
        aj = IntervalScalar.from_fraction(m.a[j - 1], digits)
        bj = IntervalScalar.from_fraction(m.b[j], digits)
        coeffs.append(aj.sub(g.mul(bj)).div(den))
    inhom = [IntervalScalar.from_fraction(m.b[n], digits).div(den) for n in range(m.k + 1)]
    P = den.bits
    k = m.k
    # window entries run oldest first, so the coefficients run C_k..C_1
    full = [_integer_ball(iv, P) for iv in reversed(coeffs)]
    cb = max(abs(c).bit_length() for c, _ in full)
    E, N, _F = _scaled_coefficients(m.integers, gamma)
    exact = E, N[::-1]  # N in the window's order

    def balls() -> Iterator[Tuple[int, int, int, int]]:
        cut = 0
        C, rc, top, sh = _cut_balls(full, cut)
        U, V, su, E = _product_form(C, exact, P)
        X = [0] * k  # mu_n = 0 for n < 0
        R = [0] * k
        S = P
        for n in range(n_max + 1):
            Pc = P - cut  # the coefficients' scale is 2^-Pc
            if n <= k:
                T, rad = _integer_ball(inhom[n], Pc + S)
            else:
                T = rad = 0
            tu = tv = 0
            for u, v, rcj, t, s, xi, ri in zip(U, V, rc, top, sh, X, R):
                tu += u * xi
                tv += v * xi
                rad += ((t * ri) << s) + rcj * (abs(xi) + ri)
            T += ((tu << su) + tv) // E  # sum_j C_j*x_j, exactly
            x = (T + (1 << Pc >> 1)) >> Pc
            r = -(-rad >> Pc) + 1
            if n:
                yield n, x, r, S
            del X[0], R[0]
            X.append(x)
            R.append(r)
            bl = max(map(abs, X)).bit_length()
            if not bl:
                continue  # an all-zero window is left alone
            useful = bl - max(R).bit_length()
            d = bl - min(P + 32, useful + BALL_GUARD)
            if d < -32:
                X = [v << -d for v in X]
                R = [v << -d for v in R]
                S -= d
            elif d > 64:
                h = 1 << (d - 1)
                X = [(v + h) >> d for v in X]
                R = [(v >> d) + 2 for v in R]
                S -= d
            # multiples of 32 bits, so the coefficients are cut anew only
            # every few dozen terms; never below 0 or past the scale P
            want = min(P, max(0, cb - useful - BALL_GUARD)) >> 5 << 5
            if want != cut:
                cut = want
                C, rc, top, sh = _cut_balls(full, cut)
                U, V, su, E = _product_form(C, exact, P - cut)

    return P, balls()


def prefix_csv_rows(vals: Sequence[Fraction]) -> List[str]:
    """CSV rows (n, exact value, sign) for an already computed prefix
    vals[0..n_max]; the row for n = 0 is left out."""
    rows = ["n,value,sign"]
    for n in range(1, len(vals)):
        sign = "positive" if vals[n] > 0 else ("negative" if vals[n] < 0 else "zero")
        rows.append("{},{},{}".format(n, fraction_str(vals[n]), sign))
    return rows


@dataclass
class IntervalRun:
    """Collected signs of an interval evaluation run."""

    n_max: int
    digits: int
    negative: List[int] = field(default_factory=list)
    unknown: List[int] = field(default_factory=list)
    first_negative: Optional[int] = None


def run_mu_signs(m: Method, gamma: Fraction, n_max: int, digits: int) -> IntervalRun:
    """Signs of mu_1..mu_n_max read straight off the integer balls of
    _mu_balls: negative where x + r < 0, unknown where the ball holds 0."""
    run = IntervalRun(n_max=n_max, digits=digits)
    _P, balls = _mu_balls(m, gamma, n_max, digits)
    for n, x, r, _S in balls:
        if x + r < 0:
            run.negative.append(n)
            if run.first_negative is None:
                run.first_negative = n
        elif x - r <= 0:
            run.unknown.append(n)
    return run


# ---------------------------------------------------------------------------
# the sequence members as exact rational functions of gamma
# ---------------------------------------------------------------------------


def mu_gamma_numerators(m: Method, n_max: int) -> List[List[int]]:
    """Integer polynomials M_0..M_(n_max) in gamma (descending) with
    mu_n = M_n / E(gamma)^(n+1).

    This is the recurrence of _scaled_numerators with gamma left a variable
    and no content taken out: E(gamma) = L + L*b0*gamma, C_j(gamma) = L*a_j
    - L*b_j*gamma and F_n = L*b_n, so M_n = F_n*E^n + sum_j C_j*E^(j-1)*M_(n-j).
    M_n is L^(n+1) times the numerator over (1 + gamma*b0)^(n+1), so the two
    have the same sign at every gamma.
    """
    L, A, B = m.integers
    E = poly.strip([B[0], L])
    epow = [[1]]  # E^0..E^max(n_max, k)
    while len(epow) <= max(n_max, m.k):
        epow.append(poly.mul(epow[-1], E))
    C = [poly.strip([-b, a]) for a, b in zip(A, B[1:])]
    D = [poly.mul(c, epow[j - 1]) for j, c in enumerate(C, 1)]  # C_j*E^(j-1)
    numerators: List[List[int]] = []
    for n in range(n_max + 1):
        acc = poly.scale(epow[n], B[n]) if n <= m.k else []
        for j in range(1, min(n, m.k) + 1):
            acc = poly.add(acc, poly.mul(D[j - 1], numerators[n - j]))
        numerators.append(acc)
    return numerators


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootRecord:
    """One root class: a real root, or an upper-half representative of a
    conjugate pair (counting twice), as its certified disk."""

    ball: GaussBall
    is_pair: bool

    @property
    def weight(self) -> int:
        return 2 if self.is_pair else 1


def _ball_prec(digits: int) -> int:
    """Bits a closed form's balls keep: those of its root disks."""
    return digits_to_bits(digits) + poly.POLISH_GUARD


@dataclass
class ClosedForm:
    """Certified representation sum_j c_j rho_j^n valid for n >= window_start."""

    method: Method
    gamma: Fraction
    order: int
    window_start: int
    roots: List[RootRecord]
    coeffs: List[GaussBall]
    digits: int

    def reconstruct_range(self, first: int, last: int) -> List[GaussBall]:
        """Real balls holding the exact sequence values at n = first..last
        (first >= window_start): each root is raised to its power once, at
        first, and then advanced by one product per term.  Only real parts
        are summed, exactly, at the finest scale of the terms: a pair and
        its conjugate give twice the real part."""
        prec = _ball_prec(self.digits)
        powers = [rec.ball.pow(first, prec) for rec in self.roots]
        out: List[GaussBall] = []
        for n in range(first, last + 1):
            if n > first:
                powers = [pw.mul(rec.ball, prec) for pw, rec in zip(powers, self.roots)]
            acc = GaussBall(0, 0, 0, 0)
            for rec, c, pw in zip(self.roots, self.coeffs, powers):
                t = c.mul(pw, prec)
                acc = acc.add(GaussBall(rec.weight * t.x, 0, rec.weight * t.r, t.s))
            out.append(acc)
        return out

    def dominant_index(self) -> Optional[int]:
        """Index of the root class certified strictly dominant, if any."""
        mods = [rec.ball.modulus_bounds() for rec in self.roots]
        if not mods:
            return None
        best = max(range(len(mods)), key=lambda i: mods[i][0])
        blo = mods[best][0]
        for i, (_lo, hi) in enumerate(mods):
            if i != best and hi >= blo:
                return None
        return best


def _n_inhomogeneous(m: Method) -> int:
    """Largest n in 1..k with b_n != 0 (0 if the recursion is homogeneous
    from the first step on)."""
    for n in range(m.k, 0, -1):
        if m.b[n] != 0:
            return n
    return 0


def closed_form(m: Method, gamma: Fraction, digits: int = DEFAULT_DIGITS) -> ClosedForm:
    """Certified closed form of mu at a rational gamma (simple characteristic
    roots), at the one working precision given; gamma = 0 gives tau.

    The generating function of mu is B(x)/D(x), with B(x) = sum_n b_n x^n and
    D(x) = x^order chi(1/x), where chi is the characteristic polynomial with
    its zero roots stripped and order = deg chi.  So each simple root z has
    the residue coefficient c = z^(order-1) B(1/z) / chi'(z), valid for
    n >= window_start.  With shift = order - 1 - deg B, that is the quotient
    of two integer polynomials at z, z^shift B(z) over chi'(z) (the
    negative part of the shift moved to the divisor), each scaled alike to
    integers; both are evaluated on the root's ball and divided as balls.
    The reconstruction is then checked against the exact sequence at n =
    window_start..window_start + 2k, values the formula never used.  The
    check raises each root to its power once, at window_start, and advances
    it by one product per term (``ClosedForm.reconstruct_range``).  A root
    at 1 (gamma = 0, by consistency) is the exact ball 1, so its
    coefficient sigma(1)/rho'(1) stays exact too.

    Raises MultipleRootError at parameter values where the characteristic
    polynomial has a multiple root; raises EnclosureError (or another
    ArithmeticDomainError) if certification fails at this precision.
    """
    gamma = Fraction(gamma)
    n_b = _n_inhomogeneous(m)
    width = Fraction(1, 10) ** max(8, digits // 2)
    prec = _ball_prec(digits)
    chi, F = _characteristic(m, gamma)
    order = len(chi) - 1
    # B and chi', scaled alike by 1/h to the smallest integers
    g = poly.content(chi)
    h = math.gcd(g, *F[: n_b + 1])
    shift = order - 1 - n_b
    num = [f // h for f in F[: n_b + 1]] + [0] * max(shift, 0)
    den = [c // h for c in poly.derivative(chi)] + [0] * max(-shift, 0)
    chi = [c // g for c in chi]
    if order > 0 and poly.discriminant(chi) == 0:
        raise MultipleRootError(
            "closed form unavailable: multiple characteristic roots; "
            "use direct evaluation"
        )
    roots: List[Tuple[GaussBall, bool]] = []
    if order > 0 and poly.eval_at(chi, 1) == 0:
        # 1 is a root (at gamma = 0, by consistency): the exact ball 1
        roots.append((GaussBall(1, 0, 0, 0), False))
        chi = poly.divexact(chi, [1, -1])
    # the discriminant test above proved the roots simple
    roots += poly.enclose_roots(chi, width, digits)
    records = [RootRecord(z, is_pair) for z, is_pair in roots]
    coeffs = [z.poly_value(num, prec).div(z.poly_value(den, prec), prec) for z, _ in roots]
    if sum(r.weight for r in records) != order:
        raise EnclosureError("root class weights do not sum to the order")
    s = max(0, n_b + 1 - order) if order > 0 else n_b + 1
    cf = ClosedForm(
        method=m,
        gamma=gamma,
        order=order,
        window_start=s,
        roots=records,
        coeffs=coeffs,
        digits=digits,
    )
    if order == 0:
        return cf
    # containment validation of the reconstruction over the checking window
    upto_check = s + 2 * m.k
    vals = mu_prefix(m, gamma, upto_check)
    for n, rec_val in enumerate(cf.reconstruct_range(s, upto_check), s):
        if not rec_val.contains(vals[n]):
            raise EnclosureError(
                "reconstruction does not contain the exact value at n={}".format(n)
            )
    return cf


# ---------------------------------------------------------------------------
# tail certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailTerm:
    weight: int  # 1 for a real root, 2 for a conjugate pair
    coeff_mag_ub: Fraction
    root_mag_ub: Fraction
    ratio_ub: Fraction


@dataclass(frozen=True)
class TailCertificate:
    """Proof data: the sequence is strictly positive for all n >= n_start.

    For n >= n_start the residual sum_j weight_j * coeff_mag_ub_j *
    ratio_ub_j^n stays below dominant_coeff_lb (all ratio bounds are < 1, so
    the residual is decreasing), hence
    value_n >= dominant_root_lb^n * (dominant_coeff_lb - residual) > 0.
    """

    n_start: int
    window_start: int
    dominant_root_lb: Fraction
    dominant_root_ub: Fraction
    dominant_coeff_lb: Fraction
    terms: Tuple[TailTerm, ...]
    residual_at_start: Fraction


def tail_residual(terms: Sequence[TailTerm], n: int) -> Fraction:
    """sum_j weight_j * coeff_mag_ub_j * ratio_ub_j^n over the non-dominant terms."""
    return sum((t.weight * t.coeff_mag_ub * t.ratio_ub ** n for t in terms), Fraction(0))


def _ceil_decimal(x: Fraction, places: int) -> Fraction:
    scale = 10**places
    return Fraction(-((-x * scale) // 1), scale)


def _floor_decimal(x: Fraction, places: int) -> Fraction:
    scale = 10**places
    return Fraction((x * scale) // 1, scale)


def tail_certificate(cf: ClosedForm) -> Optional[TailCertificate]:
    """Positivity-from-N certificate for a closed form with a strictly
    dominant positive real simple root and positive leading coefficient.

    Certificate constants are rounded outward to compact decimal fractions
    so the stored data stays small and independently checkable.  Returns
    None when the dominance structure cannot be certified from the closed
    form's enclosures (the caller escalates precision or concludes through
    another mechanism).
    """
    if cf.order == 0:
        # the sequence is identically zero beyond the window; not a
        # positivity certificate
        return None
    di = cf.dominant_index()
    if di is None:
        return None
    dom = cf.roots[di]
    if dom.is_pair:
        return None
    rho_lb_raw, rho_ub_raw = dom.ball.re_bounds()
    if rho_lb_raw <= 0:
        return None
    c_lb_raw = cf.coeffs[di].re_bounds()[0]
    if c_lb_raw <= 0:
        return None
    places = 25
    while True:
        rho_lb = _floor_decimal(rho_lb_raw, places)
        rho_ub = _ceil_decimal(rho_ub_raw, places)
        c_lb = _floor_decimal(c_lb_raw, places)
        terms: List[TailTerm] = []
        ok = rho_lb > 0 and c_lb > 0
        if ok:
            for i, (rec, c) in enumerate(zip(cf.roots, cf.coeffs)):
                if i == di:
                    continue
                r_ub = _ceil_decimal(rec.ball.modulus_bounds()[1], places)
                ratio = _ceil_decimal(r_ub / rho_lb, places)
                if ratio >= 1:
                    ok = False
                    break
                m_ub = _ceil_decimal(c.modulus_bounds()[1], places)
                terms.append(TailTerm(rec.weight, m_ub, r_ub, ratio))
        if ok:
            break
        if places >= 4 * max(cf.digits, 25):
            return None  # margins too thin even at full stored precision
        places *= 2

    start = max(1, cf.window_start)
    if tail_residual(terms, start) < c_lb:
        n0 = start
    else:
        lo = start
        width = 1
        while True:
            hi = start + width
            if hi > TAIL_SEARCH_CAP:
                return None
            if tail_residual(terms, hi) < c_lb:
                break
            lo = hi
            width *= 2
        while hi - lo > 1:  # smallest n whose residual is below c_lb
            mid = (lo + hi) // 2
            if tail_residual(terms, mid) < c_lb:
                hi = mid
            else:
                lo = mid
        n0 = hi
    # store a compact outward bound on the residual, still below the
    # dominant coefficient (advance n0 if the rounding ate the margin)
    res_bound = _ceil_decimal(tail_residual(terms, n0), places)
    while res_bound >= c_lb:
        n0 += 1
        if n0 > TAIL_SEARCH_CAP:
            return None
        res_bound = _ceil_decimal(tail_residual(terms, n0), places)
    return TailCertificate(
        n_start=n0,
        window_start=cf.window_start,
        dominant_root_lb=rho_lb,
        dominant_root_ub=rho_ub,
        dominant_coeff_lb=c_lb,
        terms=tuple(terms),
        residual_at_start=res_bound,
    )


# ---------------------------------------------------------------------------
# exact closed form when every characteristic root is rational
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalExponentialForm:
    """Exact representation value_n = sum_i P_i(n) * rho_i^n for n >= window_start,
    with rational roots rho_i of multiplicities m_i and exact polynomial
    coefficients P_i (ascending in n-powers)."""

    window_start: int
    parts: Tuple[Tuple[Fraction, Tuple[Fraction, ...]], ...]

    def value(self, n: int) -> Fraction:
        acc = Fraction(0)
        for rho, coeffs in self.parts:
            pv = sum((c * n ** t for t, c in enumerate(coeffs)), Fraction(0))
            acc += pv * rho ** n
        return acc

    def all_terms_nonnegative(self) -> bool:
        """Sufficient positivity test: every root nonnegative and every
        coefficient polynomial has nonnegative coefficients."""
        for rho, coeffs in self.parts:
            if rho < 0:
                return False
            if any(c < 0 for c in coeffs):
                return False
        return True


def _rational_roots(chi: Sequence[int]) -> Optional[List[Tuple[Fraction, int]]]:
    """All roots with multiplicities in ascending order, provided every root
    of the integer polynomial chi is rational.

    A rational root of the primitive polynomial has a denominator dividing its
    leading coefficient, and two fractions with denominators <= lead lie at
    least 1/lead^2 apart, so an enclosure narrower than 1/(2 lead^2) holds at
    most one candidate: the nearest such fraction to its midpoint.
    """
    ip = poly.primitive(chi)
    encs = poly.isolate_real_roots(ip)
    if sum(e.multiplicity for e in encs) != poly.degree(ip):
        return None  # some root is not real
    lead = abs(ip[0])
    roots: List[Tuple[Fraction, int]] = []
    for enc in encs:
        enc = enc.refined(Fraction(1, 2 * lead * lead))
        cand = enc.mid().limit_denominator(lead)
        if not enc.contains(cand) or poly.sign_at_fraction(ip, cand) != 0:
            return None
        roots.append((cand, enc.multiplicity))
    return roots


def rational_closed_form(m: Method, gamma: Fraction) -> Optional[RationalExponentialForm]:
    """Exact exponential-polynomial form of mu at parameter values where all
    characteristic roots are rational (covers multiple-root cases)."""
    gamma = Fraction(gamma)
    chi, _F = _characteristic(m, gamma)
    order = poly.degree(chi)
    roots = _rational_roots(chi) if order >= 1 else []
    if roots is None:
        return None
    n_b = _n_inhomogeneous(m)
    # trailing zero coefficients reduce the recursion order outright
    s = max(0, n_b + 1 - order) if order >= 1 else n_b + 1
    unknowns = sum(mult for _r, mult in roots)
    if unknowns == 0:
        vals = mu_prefix(m, gamma, s + 2 * m.k)
        if any(v != 0 for v in vals[s:]):
            return None
        return RationalExponentialForm(window_start=s, parts=())
    upto = s + unknowns - 1 + 2 * m.k
    vals = mu_prefix(m, gamma, upto)
    # solve for the coefficient polynomials from the first `unknowns` values
    cols = []
    for rho, mult in roots:
        for t in range(mult):
            cols.append((rho, t))
    A = []
    rhs = []
    for r in range(unknowns):
        n = s + r
        row = []
        for rho, t in cols:
            row.append(Fraction(n) ** t * rho ** n)
        A.append(row)
        rhs.append(vals[n])
    sol = _solve_fraction_system(A, rhs)
    if sol is None:
        return None
    parts = []
    idx = 0
    for rho, mult in roots:
        coeffs = tuple(sol[idx : idx + mult])
        idx += mult
        parts.append((rho, coeffs))
    form = RationalExponentialForm(window_start=s, parts=tuple(parts))
    for n in range(s, upto + 1):
        if form.value(n) != vals[n]:
            return None
    return form


def _solve_fraction_system(A: List[List[Fraction]], rhs: List[Fraction]) -> Optional[List[Fraction]]:
    n = len(rhs)
    M = [row[:] + [rhs[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if M[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        for r in range(col + 1, n):
            if M[r][col] == 0:
                continue
            f = M[r][col] / M[col][col]
            for c in range(col, n + 1):
                M[r][c] -= f * M[col][c]
    out = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = M[r][n]
        for c in range(r + 1, n):
            acc -= M[r][c] * out[c]
        out[r] = acc / M[r][r]
    return out
