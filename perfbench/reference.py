"""Reference computations made apart from the scbcert package.

The benchmark judges the package's outputs against these.  Nothing here
imports scbcert: method coefficients are derived from their order
conditions, and the damped sequence mu_n(gamma) is evaluated with the
integer-scaled recurrence.

With gamma = p/q and every a_j, b_j scaled by their common denominator L to
integers A_j, B_j, put E = q*L + p*B_0 and C_j = q*A_j - p*B_j.  Then
mu_n = M_n / E^(n+1) with integer M_n:

    M_n = q*B_n*E^n + sum_{j=1..k} C_j * E^(j-1) * M_(n-j)

(B_n = 0 for n > k, M_m = 0 for m < 0).  E > 0, so sign(mu_n) = sign(M_n),
and every step multiplies a big integer by a small one, with no gcd.
tau_n is the case gamma = 0.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, lcm
from typing import Iterator, List, Sequence, Tuple

Coefficients = Tuple[Sequence[Fraction], Sequence[Fraction]]


# ---------------------------------------------------------------------------
# method coefficients from their order conditions
# ---------------------------------------------------------------------------


def _solve(rows: List[List[Fraction]], rhs: List[Fraction]) -> List[Fraction]:
    """Exact Gauss-Jordan solve of a nonsingular square system."""
    n = len(rhs)
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def bdf(k: int) -> Coefficients:
    """k-step BDF: sum_j alpha_j u(t_n - j) = u'(t_n) exactly for every
    polynomial u of degree <= k, normalized to u_n = sum a_j u_(n-j) + b_0 f_n."""
    # u = t^s at t_n = 0: sum_j alpha_j (-j)^s = [s == 1]
    rows = [[Fraction(-j) ** s for j in range(k + 1)] for s in range(k + 1)]
    alpha = _solve(rows, [Fraction(int(s == 1)) for s in range(k + 1)])
    a = [-alpha[j] / alpha[0] for j in range(1, k + 1)]
    b = [1 / alpha[0]] + [Fraction(0)] * k
    return a, b


def adams_bashforth(k: int) -> Coefficients:
    """k-step Adams-Bashforth: u_n = u_(n-1) + sum_j beta_j f_(n-j), exact for
    every polynomial of degree <= k."""
    # u = t^s at t_n = 0: 0 - (-1)^s = sum_j beta_j * s * (-j)^(s-1)
    rows = [[s * Fraction(-j) ** (s - 1) for j in range(1, k + 1)] for s in range(1, k + 1)]
    beta = _solve(rows, [-Fraction(-1) ** s for s in range(1, k + 1)])
    a = [Fraction(1)] + [Fraction(0)] * (k - 1)
    return a, [Fraction(0)] + beta


def extrapolated_bdf(k: int) -> Coefficients:
    """k-step extrapolated BDF: the BDF with f(u_n) replaced by its degree
    k-1 extrapolation sum_j (-1)^(j+1) C(k, j) f_(n-j)."""
    a, (b0, *_rest) = bdf(k)
    return a, [Fraction(0)] + [b0 * (-1) ** (j + 1) * comb(k, j) for j in range(1, k + 1)]


@functools.lru_cache(maxsize=None)
def coefficients(name: str) -> Coefficients:
    """Reference coefficients of a catalog method (bdf1-6, ab1-4, ebdf3-5),
    as tuples (the result is shared between callers)."""
    for prefix, build in (("ebdf", extrapolated_bdf), ("bdf", bdf), ("ab", adams_bashforth)):
        if name.startswith(prefix):
            a, b = build(int(name[len(prefix):]))
            return tuple(a), tuple(b)
    raise ValueError("no reference coefficients for {!r}".format(name))


# ---------------------------------------------------------------------------
# the integer-scaled recurrence
# ---------------------------------------------------------------------------


class ScaledRecurrence:
    """mu_n(gamma) = M_n / E^(n+1) for one method and one rational gamma."""

    def __init__(self, coeffs: Coefficients, gamma: Fraction):
        a, b = coeffs
        gamma = Fraction(gamma)
        if gamma < 0:
            raise ValueError("gamma must be nonnegative")
        self.k = len(a)
        scale = lcm(*(Fraction(x).denominator for x in list(a) + list(b)))
        A = [int(Fraction(x) * scale) for x in a]
        self.B = [int(Fraction(x) * scale) for x in b]
        p, q = gamma.numerator, gamma.denominator
        self.q = q
        self.E = q * scale + p * self.B[0]
        if self.E <= 0:
            raise ValueError("1 + gamma*b_0 must be positive")
        # C_j * E^(j-1), j = 1..k
        self.weights = [(q * A[j - 1] - p * self.B[j]) * self.E ** (j - 1) for j in range(1, self.k + 1)]

    def numerators(self, n_max: int) -> Iterator[int]:
        """Yield M_0, M_1, ..., M_(n_max), keeping only the last k."""
        k, q, B, E, w = self.k, self.q, self.B, self.E, self.weights
        window: List[int] = []  # window[-j] = M_(n-j)
        e_pow = 1
        for n in range(n_max + 1):
            acc = q * B[n] * e_pow if n <= k else 0
            for j in range(1, min(n, k) + 1):
                acc += w[j - 1] * window[-j]
            yield acc
            window.append(acc)
            if len(window) > k:
                del window[0]
            if n < k:
                e_pow *= E

    def matches(self, values: Sequence[Fraction], n_lo: int = 0) -> List[int]:
        """Indices n >= n_lo at which values[n - n_lo] != mu_n."""
        bad = []
        n_max = n_lo + len(values) - 1
        den = self.E
        for n, M in enumerate(self.numerators(n_max)):
            if n >= n_lo:
                v = values[n - n_lo]
                if v.numerator * den != M * v.denominator:
                    bad.append(n)
            den *= self.E
        return bad

    def negative_indices(self, n_max: int, n_lo: int = 1) -> List[int]:
        """Every n in n_lo..n_max with mu_n < 0."""
        return [n for n, M in enumerate(self.numerators(n_max)) if n >= n_lo and M < 0]

    def first_negative(self, n_max: int, n_lo: int = 1):
        for n, M in enumerate(self.numerators(n_max)):
            if n >= n_lo and M < 0:
                return n
        return None


# ---------------------------------------------------------------------------
# exact polynomial signs
# ---------------------------------------------------------------------------


def poly_sign(coeffs: Sequence[int], x: Fraction) -> int:
    """Sign of the integer polynomial (descending coefficients) at x.

    Horner on the homogenized form: P(p/q) * q^d = sum_i c_i p^(d-i) q^i.
    """
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    acc = 0
    q_pow = 1
    for i, c in enumerate(coeffs):
        acc = acc * p + c * q_pow if i else c
        q_pow *= q
    return (acc > 0) - (acc < 0)
