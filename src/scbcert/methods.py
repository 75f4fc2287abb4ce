"""Linear multistep method representation, catalog, and validation.

A k-step method is stored through its recurrence coefficients
a_1..a_k (history weights) and b_0..b_k (derivative weights, b_0 implicit).
The catalog generates the backward-differentiation (bdf1..bdf6),
Adams-Bashforth (ab1..ab4) and extrapolated-BDF (ebdf3..ebdf5) families with
exact rational coefficients.  Validation checks the four standing
assumptions: consistency, zero-stability, irreducibility, and b_0 >= 0.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import poly, published
from .poly import RootCondition


class MethodError(ValueError):
    pass


@dataclass(frozen=True)
class Method:
    k: int
    a: Tuple[Fraction, ...]
    b: Tuple[Fraction, ...]
    name: str = "custom"
    family: str = "Custom"

    def __post_init__(self):
        if self.k < 1:
            raise MethodError("step number must be positive")
        if len(self.a) != self.k:
            raise MethodError("need exactly k history coefficients")
        if len(self.b) != self.k + 1:
            raise MethodError("need exactly k+1 derivative coefficients")
        object.__setattr__(self, "a", tuple(Fraction(x) for x in self.a))
        object.__setattr__(self, "b", tuple(Fraction(x) for x in self.b))

    @property
    def b0(self) -> Fraction:
        return self.b[0]

    def __str__(self) -> str:
        return "{} (k={})".format(self.name, self.k)


@dataclass(frozen=True)
class GeneratingPolys:
    """rho(z) = z^k - sum a_j z^(k-j), sigma(z) = sum b_j z^(k-j)."""

    rho: Tuple[Fraction, ...]
    sigma: Tuple[Fraction, ...]


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: Tuple[AssumptionCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> List[AssumptionCheck]:
        return [c for c in self.checks if not c.passed]


# ---------------------------------------------------------------------------
# catalog generators
# ---------------------------------------------------------------------------


def _bdf_coefficients(k: int) -> Tuple[List[Fraction], List[Fraction]]:
    """Backward differentiation formula from its difference-operator form.

    sum_{m=1..k} (1/m) nabla^m u_n = dt f(u_n), normalized so the u_n
    coefficient is one.
    """
    A = [Fraction(0)] * (k + 1)
    for m in range(1, k + 1):
        # nabla^m u_n = sum_i (-1)^i C(m, i) u_{n-i}
        for i in range(0, m + 1):
            A[i] += Fraction((-1) ** i * _binom(m, i), m)
    a = [-A[i] / A[0] for i in range(1, k + 1)]
    b = [Fraction(1) / A[0]] + [Fraction(0)] * k
    return a, b


def _binom(n: int, r: int) -> int:
    if r < 0 or r > n:
        return 0
    out = 1
    for i in range(r):
        out = out * (n - i) // (i + 1)
    return out


def _ab_coefficients(k: int) -> Tuple[List[Fraction], List[Fraction]]:
    """Adams-Bashforth weights by exact integration of the Lagrange basis."""
    a = [Fraction(1)] + [Fraction(0)] * (k - 1)
    b = [Fraction(0)]
    for j in range(1, k + 1):
        # basis through f(u_{n-i}), i=1..k; integrate over one step
        num = [Fraction(1)]
        den = Fraction(1)
        for i in range(1, k + 1):
            if i == j:
                continue
            num = poly.mul(num, [Fraction(1), Fraction(i - 1)])
            den *= Fraction(i - j)
        coeffs = [c / den for c in num]
        # integrate on [0, 1]
        n = poly.degree(coeffs)
        total = Fraction(0)
        for idx, c in enumerate(coeffs):
            p = n - idx
            total += c / (p + 1)
        b.append(total)
    return a, b


def _ebdf_coefficients(k: int) -> Tuple[List[Fraction], List[Fraction]]:
    """Explicit extrapolated-BDF coefficients.

    Shares the history weights with bdf-k; the derivative weights are
    recovered from the published starting values of its tau recursion
    (b_0 = 0 and tau_n = b_n + sum_j a_j tau_{n-j} for n = 1..k).
    """
    if k not in published.EBDF_TAU:
        raise MethodError("no published starting values for a %d-step ebdf" % k)
    a, _ = _bdf_coefficients(k)
    tau = [Fraction(0)] + list(published.EBDF_TAU[k])
    b = [Fraction(0)] * (k + 1)
    for n in range(1, k + 1):
        acc = Fraction(0)
        for j in range(1, n + 1):
            acc += a[j - 1] * tau[n - j]
        b[n] = tau[n] - acc
    return a, b


_CATALOG_BUILDERS = {}
for _k in range(1, 7):
    _CATALOG_BUILDERS["bdf%d" % _k] = ("BDF", _k, _bdf_coefficients)
for _k in range(1, 5):
    _CATALOG_BUILDERS["ab%d" % _k] = ("AB", _k, _ab_coefficients)
for _k in range(3, 6):
    _CATALOG_BUILDERS["ebdf%d" % _k] = ("EBDF", _k, _ebdf_coefficients)


def catalog_names() -> List[str]:
    return sorted(_CATALOG_BUILDERS, key=lambda s: (s.rstrip("0123456789"), s))


def catalog(name: str) -> Method:
    """Validated catalog method by name (bdf1..bdf6, ab1..ab4, ebdf3..ebdf5)."""
    key = name.strip().lower()
    if key not in _CATALOG_BUILDERS:
        raise MethodError(
            "unknown method {!r}; available: {}".format(name, ", ".join(catalog_names()))
        )
    return _validated_catalog_method(key)


@functools.lru_cache(maxsize=None)
def _validated_catalog_method(key: str) -> Method:
    """Built and validated once per catalog key; Method is immutable, so
    every lookup can share the result."""
    family, k, builder = _CATALOG_BUILDERS[key]
    a, b = builder(k)
    m = Method(k=k, a=tuple(a), b=tuple(b), name=key, family=family)
    report = validate(m)
    if not report.ok:
        raise MethodError(
            "catalog method {} failed validation: {}".format(
                key, "; ".join(c.name for c in report.failures())
            )
        )
    return m


# ---------------------------------------------------------------------------
# generating polynomials and validation
# ---------------------------------------------------------------------------


def generating_polys(m: Method) -> GeneratingPolys:
    rho = [Fraction(1)] + [-aj for aj in m.a]
    sigma = list(m.b)
    return GeneratingPolys(rho=tuple(rho), sigma=tuple(poly.strip(sigma)) or (Fraction(0),))


def validate(m: Method) -> ValidationReport:
    """Run the four standing assumption checks; failures carry witnesses."""
    checks: List[AssumptionCheck] = []

    sum_a = sum(m.a, Fraction(0))
    sum_ja = sum((j + 1) * aj for j, aj in enumerate(m.a))
    sum_b = sum(m.b, Fraction(0))
    cons_ok = sum_a == 1 and sum_ja == sum_b
    checks.append(
        AssumptionCheck(
            "consistency",
            cons_ok,
            "sum a_j = {}, sum j a_j = {}, sum b_j = {}".format(sum_a, sum_ja, sum_b),
        )
    )

    gp = generating_polys(m)
    rc = poly.root_condition(list(gp.rho))
    checks.append(
        AssumptionCheck(
            "zero_stability",
            rc in (RootCondition.SATISFIED, RootCondition.SATISFIED_STRICTLY),
            "root condition on rho: {}".format(rc.value),
        )
    )

    sigma = poly.strip(list(gp.sigma))
    if poly.is_zero(sigma):
        irr_ok = False
        detail = "sigma is identically zero"
    else:
        g = poly.gcd_frac(list(gp.rho), sigma)
        irr_ok = poly.degree(g) == 0
        if irr_ok:
            detail = "gcd(rho, sigma) = 1"
        else:
            gi = poly.to_integer(g)
            detail = "shared factor with roots near {}".format(
                [
                    (str(e.lo), str(e.hi))
                    for e in poly.isolate_real_roots(gi)
                ]
                or "complex values; gcd coefficients {}".format(gi)
            )
    checks.append(AssumptionCheck("irreducibility", irr_ok, detail))

    checks.append(
        AssumptionCheck("nonnegative_b0", m.b0 >= 0, "b_0 = {}".format(m.b0))
    )
    return ValidationReport(tuple(checks))


def char_poly_mu(m: Method, gamma: Fraction) -> List[Fraction]:
    """Degree-k characteristic polynomial of the damped recursion.

    Equals (1 + gamma b_0) z^k - sum_j (a_j - gamma b_j) z^(k-j), a positive
    multiple of rho + gamma sigma.
    """
    gamma = Fraction(gamma)
    if gamma < 0:
        raise MethodError("gamma must be nonnegative")
    lead = 1 + gamma * m.b0
    if lead == 0:
        raise MethodError("degenerate leading coefficient")
    return [lead] + [-(m.a[j - 1] - gamma * m.b[j]) for j in range(1, m.k + 1)]


def n0(m: Method, taus: Optional[Sequence] = None) -> int:
    """Smallest index 1..k with a nonzero tau value.

    taus, when given, holds tau_0..tau_k or more (values or signs) that the
    caller has already computed.
    """
    if taus is None:
        from . import recursion

        taus = recursion.tau_prefix(m, m.k)
    for n in range(1, m.k + 1):
        if taus[n] != 0:
            return n
    raise MethodError("all tau_1..tau_k vanish; method violates the assumptions")


# ---------------------------------------------------------------------------
# custom method files
# ---------------------------------------------------------------------------


def method_from_dict(data: Dict) -> Method:
    try:
        k = int(data["k"])
        a = [Fraction(str(x)) for x in data["a"]]
        b = [Fraction(str(x)) for x in data["b"]]
    except (KeyError, ValueError) as exc:
        raise MethodError("bad method file: {}".format(exc)) from exc
    name = str(data.get("name", "custom"))
    return Method(k=k, a=tuple(a), b=tuple(b), name=name, family="Custom")


def method_to_dict(m: Method) -> Dict:
    return {
        "k": m.k,
        "a": [str(x) for x in m.a],
        "b": [str(x) for x in m.b],
        "name": m.name,
    }


def load_method_file(path: str) -> Method:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return method_from_dict(data)


def resolve_method(name_or_path: str) -> Method:
    """Catalog name, or a JSON method file for custom methods."""
    key = name_or_path.strip().lower()
    if key in _CATALOG_BUILDERS:
        return catalog(key)
    if name_or_path.endswith(".json"):
        m = load_method_file(name_or_path)
        report = validate(m)
        if not report.ok:
            raise MethodError(
                "custom method failed validation: "
                + "; ".join("{} ({})".format(c.name, c.detail) for c in report.failures())
            )
        return m
    raise MethodError(
        "unknown method {!r}; available: {}".format(name_or_path, ", ".join(catalog_names()))
    )
