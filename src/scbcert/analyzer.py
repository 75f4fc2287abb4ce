"""Decision procedures for boundedness step-size coefficients.

check_scb decides whether a given gamma > 0 is a step-size coefficient for
boundedness: the damped-root polynomial must satisfy the strict root
condition (stability-region interior membership) and the damped sequence
must be nonnegative at every index, proven by exact finite checks plus a
dominant-root tail certificate.  Infeasibility is certified by an exact or
interval negative witness, a stability violation, or a strictly dominant
complex conjugate pair with nonzero coefficient (which forces infinitely
many negative terms).  gamma_sup brackets the optimal coefficient between a
certified feasible and a certified infeasible rational, bisecting to the
requested tolerance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from . import poly, published, recursion
from .arith import DEFAULT_DIGITS, DEFAULT_DIGITS_CAP, IntervalScalar, precision_ladder
from .methods import Method, generating_polys, n0, validate
from .poly import EnclosureError, RealRootEnclosure
from .recursion import (
    ClosedForm,
    MultipleRootError,
    RationalExponentialForm,
    TailCertificate,
    eval_mu,
    eval_tau,
    first_negative_mu,
    mu_gamma_numerators,
    mu_signs,
    rational_closed_form,
    run_mu_signs,
    tail_certificate,
)

EXACT_SCAN_CAP = 8192
# gamma_sup's search: doubling from gamma = 1 past UNBOUNDED_CAP reports an
# unbounded coefficient, halving below EPS_MIN gives up; a requested
# crossover bracket is refined to CROSSOVER_TOL
UNBOUNDED_CAP = Fraction(2**20)
EPS_MIN = Fraction(1, 2**40)
CROSSOVER_TOL = Fraction(1, 10**7)


class AnalyzerError(RuntimeError):
    pass


class Feasibility(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INCONCLUSIVE = "inconclusive"


class Existence(enum.Enum):
    EXISTS = "exists"
    NOT_EXISTS = "not_exists"
    INCONCLUSIVE = "inconclusive"


class Mechanism(enum.Enum):
    CROSSOVER = "crossover"
    SIMPLE_ROOT = "simple_root"
    UNBOUNDED = "unbounded"
    NONE_POSITIVE = "none_positive"


class StabilityAnswer(enum.Enum):
    YES = "yes"
    NO = "no"


# ---------------------------------------------------------------------------
# evidence payloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibleCert:
    checked_through: int
    zero_indices: Tuple[int, ...]
    tail: Optional[TailCertificate] = None
    exact_form: Optional[RationalExponentialForm] = None

    kind = "feasible_certificate"


@dataclass(frozen=True)
class InfeasibleWitness:
    n: int
    value: str  # exact rational, or how the negative sign was certified
    exact: bool

    kind = "negative_witness"


@dataclass(frozen=True)
class InfeasibleStability:
    reason: str

    kind = "stability_violation"


@dataclass(frozen=True)
class InfeasibleComplexDominance:
    pair_modulus: Tuple[str, str]
    others_modulus_max: str
    coeff_modulus: Tuple[str, str]

    kind = "complex_dominance"


@dataclass(frozen=True)
class InconclusiveHorizon:
    n_max: int
    digits: int

    kind = "horizon_exhausted"


Evidence = Union[
    FeasibleCert,
    InfeasibleWitness,
    InfeasibleStability,
    InfeasibleComplexDominance,
    InconclusiveHorizon,
]


@dataclass(frozen=True)
class ScbVerdict:
    status: Feasibility
    method_name: str
    gamma: Fraction
    evidence: Evidence
    horizon_used: int
    digits_used: int


@dataclass(frozen=True)
class ExistenceVerdict:
    status: Existence
    method_name: str
    n0: int
    evidence: Union[FeasibleCert, InfeasibleWitness, InconclusiveHorizon]
    only_circle_root_is_one: Optional[bool]
    horizon_used: int


@dataclass(frozen=True)
class NonePositiveProof:
    witness_n: int
    interval_hi: Fraction  # the member function is negative on (0, interval_hi]


@dataclass(frozen=True)
class CrossoverBound:
    lo: Fraction
    hi: Fraction


@dataclass(frozen=True)
class SimpleRootBound:
    enclosure: RealRootEnclosure
    n: int


@dataclass
class GammaSupResult:
    method_name: str
    mechanism: Mechanism
    mechanism_index: Optional[int] = None
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    cert_lo: Optional[ScbVerdict] = None
    cert_hi: Optional[ScbVerdict] = None
    poly_check: Optional[str] = None
    crossover_bound: Optional[CrossoverBound] = None
    ladder: Tuple[Fraction, ...] = ()
    none_positive: Optional[NonePositiveProof] = None
    tol: Optional[Fraction] = None

    @property
    def enclosure(self) -> Optional[Tuple[Fraction, Fraction]]:
        if self.lo is None or self.hi is None:
            return None
        return (self.lo, self.hi)


# ---------------------------------------------------------------------------
# stability-region interior membership
# ---------------------------------------------------------------------------


def damped_root_poly(m: Method, lam: Fraction) -> List[Fraction]:
    """rho - lambda*sigma as a rational coefficient list."""
    gp = generating_polys(m)
    rho = list(gp.rho)
    sigma = [Fraction(0)] * (len(rho) - len(gp.sigma)) + list(gp.sigma)
    return [r - Fraction(lam) * s for r, s in zip(rho, sigma)]


def in_stability_interior(m: Method, lam: Fraction) -> StabilityAnswer:
    """Exact interior test: nonzero leading coefficient and every root of
    rho - lambda*sigma strictly inside the unit circle (Schur-Cohn)."""
    lam = Fraction(lam)
    if 1 - lam * m.b0 == 0:
        return StabilityAnswer.NO
    p = damped_root_poly(m, lam)
    if poly.degree(poly.strip(p)) < 1:
        return StabilityAnswer.NO
    return StabilityAnswer.YES if poly.all_roots_strictly_inside(p) else StabilityAnswer.NO


# ---------------------------------------------------------------------------
# the feasibility test (is gamma a boundedness step-size coefficient?)
# ---------------------------------------------------------------------------


def _interval_str(v: IntervalScalar) -> Tuple[str, str]:
    return (str(v.lo_fraction()), str(v.hi_fraction()))


def _first_negative(signs: Sequence[int]) -> Optional[int]:
    return next((n for n in range(1, len(signs)) if signs[n] < 0), None)


def _zero_indices(signs: Sequence[int]) -> Tuple[int, ...]:
    return tuple(n for n in range(1, len(signs)) if signs[n] == 0)


def _closed_forms(
    m: Method, gamma: Fraction, digits: int, digits_cap: int
) -> Iterator[Tuple[int, ClosedForm]]:
    """The one precision-escalation driver: (rung, closed form of mu at gamma
    certified at that rung) for each rung of the ladder from digits to
    digits_cap; gamma = 0 gives tau.

    A rung where certification fails is skipped; MultipleRootError (no
    closed form at any precision) propagates to the caller.
    """
    for dig in precision_ladder(digits, digits_cap):
        try:
            cf = recursion.closed_form(m, gamma, dig)
        except MultipleRootError:
            raise  # an ArithmeticDomainError too, but no rung can help
        except (EnclosureError, recursion.ArithmeticDomainError):
            continue
        yield dig, cf


def _complex_dominance(cf: ClosedForm, di: int) -> Optional[InfeasibleComplexDominance]:
    """Evidence for the dominant pair di, or None while its coefficient box
    still contains zero."""
    c_box = cf.coeffs[di]
    if c_box.abs_sq().lo_fraction() <= 0:
        return None
    return InfeasibleComplexDominance(
        pair_modulus=_interval_str(cf.roots[di].modulus()),
        others_modulus_max=str(
            max(
                (rec.modulus().hi_fraction() for i, rec in enumerate(cf.roots) if i != di),
                default=Fraction(0),
            )
        ),
        coeff_modulus=_interval_str(c_box.modulus()),
    )


def check_scb(
    m: Method,
    gamma: Fraction,
    horizon: Optional[int] = None,
    digits: int = DEFAULT_DIGITS,
    digits_cap: int = DEFAULT_DIGITS_CAP,
) -> ScbVerdict:
    """Certified three-way feasibility verdict for a rational gamma > 0."""
    gamma = Fraction(gamma)
    if gamma <= 0:
        raise AnalyzerError("gamma must be positive")
    if horizon is None:
        horizon = max(32, 4 * m.k)
    digits_used = digits

    def verdict(status: Feasibility, evidence: Evidence) -> ScbVerdict:
        return ScbVerdict(status, m.name, gamma, evidence, horizon, digits_used)

    def exact_witness(n: int) -> ScbVerdict:
        return verdict(
            Feasibility.INFEASIBLE, InfeasibleWitness(n, str(eval_mu(m, gamma, n)), True)
        )

    def scanned_witness() -> Optional[ScbVerdict]:
        """First negative term through the horizon (the prefix was clean)."""
        n = first_negative_mu(m, gamma, horizon) if horizon > prefix_n else None
        if n is None:
            return None
        return verdict(
            Feasibility.INFEASIBLE,
            InfeasibleWitness(n, "negative integer-scaled numerator", True),
        )

    if in_stability_interior(m, -gamma) is StabilityAnswer.NO:
        return verdict(
            Feasibility.INFEASIBLE,
            InfeasibleStability(
                "root condition of the damped polynomial fails strictly at -gamma"
            ),
        )

    # exact prefix scan: cheap witnesses, and exact zero detection
    prefix_n = min(horizon, max(2 * m.k + 4, 16))
    signs = mu_signs(m, gamma, prefix_n)
    neg = _first_negative(signs)
    if neg is not None:
        return exact_witness(neg)

    try:
        for dig, cf in _closed_forms(m, gamma, min(digits, 64), digits_cap):
            digits_used = max(digits_used, dig)
            if cf.order == 0:
                # identically zero beyond the window; the exact prefix was clean
                return verdict(
                    Feasibility.FEASIBLE,
                    FeasibleCert(
                        max(prefix_n, cf.window_start), _zero_indices(signs), None, None
                    ),
                )
            di = cf.dominant_index()
            if di is None:
                continue
            if cf.roots[di].is_pair:
                evidence = _complex_dominance(cf, di)
                if evidence is None:
                    continue  # coefficient box still contains zero: sharpen
                return scanned_witness() or verdict(Feasibility.INFEASIBLE, evidence)
            if cf.roots[di].box.re.hi_fraction() < 0 or cf.coeffs[di].re.hi_fraction() < 0:
                break  # dominant term eventually negative: witness scan below
            tc = tail_certificate(cf)
            if tc is None:
                continue
            n_check = max(tc.n_start - 1, 0)
            if n_check > prefix_n:
                if n_check > EXACT_SCAN_CAP:
                    break  # unreasonable finite range; fall back to scanning
                signs = mu_signs(m, gamma, n_check)
                neg = _first_negative(signs)
                if neg is not None:
                    return exact_witness(neg)
            # interval consistency pass over the requested horizon
            if horizon > tc.n_start:
                run = run_mu_signs(m, gamma, horizon, dig)
                if run.negative:
                    raise AnalyzerError(
                        "soundness violation: certified tail contradicts a "
                        "certified negative term at n={}".format(run.negative[0])
                    )
            zeros = _zero_indices(signs)
            if any(n >= tc.n_start for n in zeros):
                raise AnalyzerError(
                    "soundness violation: exact zero inside the certified tail"
                )
            return verdict(
                Feasibility.FEASIBLE, FeasibleCert(max(n_check, horizon), zeros, tc, None)
            )
        else:
            digits_used = max(digits_used, digits_cap)  # the last rung is the cap
    except MultipleRootError:
        # raised at the first rung, since the test is exact: no closed form
        # at any precision, but all roots may be rational
        form = rational_closed_form(m, gamma)
        if form is not None and form.all_terms_nonnegative():
            upto = max(prefix_n, form.window_start)
            signs = mu_signs(m, gamma, upto)
            neg = _first_negative(signs)
            if neg is not None:
                return exact_witness(neg)
            return verdict(
                Feasibility.FEASIBLE,
                FeasibleCert(max(upto, horizon), _zero_indices(signs), None, form),
            )

    # fallback: exact witness scan over the horizon
    return scanned_witness() or verdict(
        Feasibility.INCONCLUSIVE, InconclusiveHorizon(horizon, digits_used)
    )


# ---------------------------------------------------------------------------
# existence of any positive step-size coefficient
# ---------------------------------------------------------------------------


def _only_circle_root_is_one(rho: Sequence[Fraction]) -> bool:
    """Exact test: the only root of rho with modulus 1 is 1 itself.

    Precondition: rho satisfies the root condition (``validate`` passed).
    Then the roots rho shares with its reversed polynomial are exactly its
    circle roots, each simple: off the circle they would come in pairs r, 1/r
    with one of them outside.
    """
    ip = poly.to_integer(rho)
    u = poly.gcd_int_poly(ip, poly.reverse(ip))
    return poly.degree(u) == 1 and poly.sign_at_fraction(u, Fraction(1)) == 0


def scb_exists(
    m: Method,
    horizon: Optional[int] = None,
    digits: int = DEFAULT_DIGITS,
    digits_cap: int = DEFAULT_DIGITS_CAP,
) -> ExistenceVerdict:
    """Existence test for a positive boundedness step-size coefficient."""
    report = validate(m)
    if not report.ok:
        raise AnalyzerError(
            "method fails the standing assumptions: "
            + "; ".join(c.name for c in report.failures())
        )
    if horizon is None:
        horizon = max(64, 8 * m.k)
    signs = mu_signs(m, Fraction(0), max(horizon, m.k))  # signs of tau
    n_zero = n0(m, signs)

    def witness(n: int, circle_ok: Optional[bool]) -> ExistenceVerdict:
        return ExistenceVerdict(
            Existence.NOT_EXISTS,
            m.name,
            n_zero,
            InfeasibleWitness(n, str(eval_tau(m, n)), True),
            circle_ok,
            horizon,
        )

    # disproof: a nonpositive term at a multiple of the first nonzero index
    for n in range(n_zero, horizon + 1, n_zero):
        if signs[n] <= 0:
            return witness(n, None)

    circle_ok = _only_circle_root_is_one(list(generating_polys(m).rho))
    digits_used = digits
    if circle_ok:
        try:
            for digits_used, cf in _closed_forms(m, Fraction(0), digits, digits_cap):
                tc = tail_certificate(cf)
                if tc is None:
                    continue  # sharpen the enclosures at the next rung
                n_check = tc.n_start - 1
                if n_check >= len(signs):
                    signs = mu_signs(m, Fraction(0), n_check)
                bad = next(
                    (n for n in range(n_zero, n_check + 1) if signs[n] <= 0), None
                )
                if bad is None:
                    return ExistenceVerdict(
                        Existence.EXISTS,
                        m.name,
                        n_zero,
                        FeasibleCert(max(n_check, horizon), (), tc, None),
                        True,
                        horizon,
                    )
                if bad % n_zero == 0:
                    return witness(bad, True)
                break  # an exact term decided this; no rung can change it
            else:
                digits_used = digits_cap  # the last rung is the cap
        except MultipleRootError:
            pass
    return ExistenceVerdict(
        Existence.INCONCLUSIVE,
        m.name,
        n_zero,
        InconclusiveHorizon(horizon, digits_used),
        circle_ok,
        horizon,
    )


# ---------------------------------------------------------------------------
# upper-bound mechanisms
# ---------------------------------------------------------------------------


def simple_root_bound(m: Method, n_scan: int) -> Optional[SimpleRootBound]:
    """Smallest positive simple root of any member function gamma -> mu_n(gamma)
    for n <= n_scan, certified through its exact numerator polynomial."""
    if n_scan < 1:
        raise AnalyzerError("n_scan must be at least 1")
    nums = mu_gamma_numerators(m, n_scan)
    best: Optional[Tuple[RealRootEnclosure, int]] = None
    for n in range(1, n_scan + 1):
        num = poly.to_integer(nums[n])
        if poly.degree(num) < 1:
            continue
        for enc in poly.isolate_real_roots(num):
            if enc.multiplicity != 1:
                continue  # derivative vanishes too: bound not applicable
            if enc.hi <= 0:
                continue
            if poly.sign_at_fraction(list(enc.poly), Fraction(0)) == 0:
                if enc.contains(Fraction(0)):
                    continue  # this enclosure's root is zero itself
                cand = enc
            else:
                cand = poly.refine_away_from_zero(enc)
                if cand.hi <= 0:
                    continue
            cand = poly.refine(cand, Fraction(1, 10**30))
            if best is None or cand.hi < best[0].lo:
                best = (cand, n)
    if best is None:
        return None
    return SimpleRootBound(best[0], best[1])


def _dominance_gap_sign(
    m: Method,
    gamma: Fraction,
    digits: int,
    digits_cap: int,
) -> Optional[int]:
    """+1 when the largest positive real root strictly dominates every complex
    pair, -1 when some pair strictly dominates every real root; None when the
    ordering cannot be certified (e.g. at the crossover itself)."""
    try:
        for _dig, cf in _closed_forms(m, gamma, digits, digits_cap):
            real_pos = [
                rec.modulus()
                for rec in cf.roots
                if not rec.is_pair and rec.box.re.lo_fraction() > 0
            ]
            pairs = [rec.modulus() for rec in cf.roots if rec.is_pair]
            if not pairs:
                return 1 if real_pos else None
            if not real_pos:
                return -1
            rmax_lo = max(v.lo_fraction() for v in real_pos)
            rmax_hi = max(v.hi_fraction() for v in real_pos)
            pmax_lo = max(v.lo_fraction() for v in pairs)
            pmax_hi = max(v.hi_fraction() for v in pairs)
            if rmax_lo > pmax_hi:
                return 1
            if pmax_lo > rmax_hi:
                return -1
    except MultipleRootError:
        pass
    return None


def crossover(
    m: Method,
    search_lo: Fraction,
    search_hi: Fraction,
    tol: Fraction = CROSSOVER_TOL,
    digits: int = DEFAULT_DIGITS,
    digits_cap: int = DEFAULT_DIGITS_CAP,
) -> Optional[CrossoverBound]:
    """Certified bracket of the parameter where the positive real dominant
    root's modulus is overtaken by the largest complex-pair modulus.

    The returned interval has certified strict orderings at its endpoints
    (real side dominant at lo, pair side dominant at hi); absent when no
    such bracket exists on the search interval.
    """
    lo, hi = Fraction(search_lo), Fraction(search_hi)
    if not 0 <= lo < hi:
        raise AnalyzerError("invalid search interval")

    def gap(g: Fraction) -> Optional[int]:
        if g <= 0:
            return None
        return _dominance_gap_sign(m, g, digits, digits_cap)

    def gap_perturbed(a: Fraction, b: Fraction, point: Fraction) -> Tuple[Fraction, Optional[int]]:
        s = gap(point)
        step = (b - a) / 16
        k = 1
        while s is None and k <= 4:
            for cand in (point + k * step, point - k * step):
                if a < cand < b:
                    s = gap(cand)
                    if s is not None:
                        point = cand
                        break
            k += 1
        return point, s

    p_lo, s_lo = gap_perturbed(lo, hi, lo if lo > 0 else lo + (hi - lo) / 64)
    p_hi, s_hi = gap_perturbed(lo, hi, hi - (hi - lo) / 1024)
    if s_lo != 1 or s_hi != -1:
        return None
    lo, hi = p_lo, p_hi
    while hi - lo > tol:
        mid = (lo + hi) / 2
        mid2, s = gap_perturbed(lo, hi, mid)
        if s is None:
            break
        if s == 1:
            lo = mid2
        else:
            hi = mid2
    return CrossoverBound(lo=lo, hi=hi)


def infeasible_by_complex_dominance(
    m: Method,
    gamma: Fraction,
    digits: int = DEFAULT_DIGITS,
    digits_cap: int = DEFAULT_DIGITS_CAP,
) -> Optional[InfeasibleComplexDominance]:
    """Certificate that a strictly dominant complex pair with nonzero
    coefficient exists at gamma (so gamma is not a boundedness step-size
    coefficient, and neither is anything above it)."""
    gamma = Fraction(gamma)
    if gamma <= 0:
        raise AnalyzerError("gamma must be positive")
    try:
        for _dig, cf in _closed_forms(m, gamma, digits, digits_cap):
            di = cf.dominant_index()
            if di is None:
                continue
            if not cf.roots[di].is_pair:
                return None
            evidence = _complex_dominance(cf, di)
            if evidence is not None:
                return evidence
            # coefficient not yet separated from zero: escalate
    except MultipleRootError:
        pass
    return None


# ---------------------------------------------------------------------------
# the optimal coefficient
# ---------------------------------------------------------------------------


@dataclass
class GammaSupOptions:
    digits: int = DEFAULT_DIGITS
    digits_cap: int = DEFAULT_DIGITS_CAP
    horizon: Optional[int] = None
    compute_crossover: bool = False


def _certify_none_positive(m: Method, verdict: ScbVerdict) -> Optional[NonePositiveProof]:
    """Try to prove that no gamma in (0, verdict.gamma] is feasible, using the
    exact member-function numerator of the witness index."""
    ev = verdict.evidence
    if not isinstance(ev, InfeasibleWitness):
        return None
    n = ev.n
    nums = mu_gamma_numerators(m, n)
    num = poly.to_integer_signed(nums[n])
    g = verdict.gamma
    if poly.sign_at_fraction(num, g) >= 0:
        return None
    if poly.count_real_roots(num, Fraction(0), g) != 0:
        return None
    # negative at g and no zero in (0, g]: negative on the whole interval;
    # monotonicity then rules out every larger gamma as well
    return NonePositiveProof(witness_n=n, interval_hi=g)


def gamma_sup(
    m: Method,
    tol: Fraction = Fraction(1, 10**9),
    options: Optional[GammaSupOptions] = None,
) -> GammaSupResult:
    """Certified enclosure of the optimal boundedness step-size coefficient.

    The lower endpoint carries a full feasibility certificate and the upper
    endpoint an infeasibility certificate; by downward inheritance of
    feasibility these bracket the supremum.  Unbounded and none-positive
    outcomes are reported through their own mechanisms.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise AnalyzerError("tol must be positive")
    opts = options or GammaSupOptions()

    def feas(g: Fraction) -> ScbVerdict:
        v = check_scb(m, g, opts.horizon, opts.digits, opts.digits_cap)
        if v.status is Feasibility.INCONCLUSIVE:
            # one retry with a deeper horizon before giving up
            v = check_scb(
                m,
                g,
                max(4 * (opts.horizon or 32), 512),
                opts.digits,
                opts.digits_cap,
            )
        if v.status is Feasibility.INCONCLUSIVE:
            raise AnalyzerError(
                "feasibility test inconclusive at gamma={} (horizon/precision caps)".format(g)
            )
        return v

    def none_positive(v: ScbVerdict) -> Optional[GammaSupResult]:
        proof = _certify_none_positive(m, v)
        if proof is None:
            return None
        return GammaSupResult(
            method_name=m.name,
            mechanism=Mechanism.NONE_POSITIVE,
            none_positive=proof,
            cert_hi=v,
            tol=tol,
        )

    # bracket search from gamma = 1: double while feasible, halve while not
    ladder: List[Fraction] = []
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    g = Fraction(1)
    while lo is None or hi is None:
        v = feas(g)
        if v.status is Feasibility.FEASIBLE:
            lo, cert_lo = g, v
            if hi is None:
                ladder.append(g)
                g *= 2
                if g > UNBOUNDED_CAP:
                    return GammaSupResult(
                        method_name=m.name,
                        mechanism=Mechanism.UNBOUNDED,
                        lo=lo,
                        cert_lo=cert_lo,
                        ladder=tuple(ladder),
                        tol=tol,
                    )
        else:
            hi, cert_hi = g, v
            if lo is None:
                result = none_positive(v)
                if result is not None:
                    return result
                g /= 2
                if g < EPS_MIN:
                    raise AnalyzerError(
                        "no feasible gamma found above {} and no none-positive proof".format(
                            EPS_MIN
                        )
                    )

    while hi - lo > tol:
        mid = (lo + hi) / 2
        v = feas(mid)
        if v.status is Feasibility.FEASIBLE:
            lo, cert_lo = mid, v
        else:
            hi, cert_hi = mid, v

    mechanism = Mechanism.CROSSOVER
    mech_index: Optional[int] = None
    ev = cert_hi.evidence
    if isinstance(ev, InfeasibleWitness):
        mechanism = Mechanism.SIMPLE_ROOT
        mech_index = ev.n
    result = GammaSupResult(
        method_name=m.name,
        mechanism=mechanism,
        mechanism_index=mech_index,
        lo=lo,
        hi=hi,
        cert_lo=cert_lo,
        cert_hi=cert_hi,
        tol=tol,
    )
    if m.name in published.GAMMA_SUP_POLYS:
        entry = published.GAMMA_SUP_POLYS[m.name]
        outcome = verify_against_poly(result, entry["poly"], entry["selector"])
        result.poly_check = outcome
    if opts.compute_crossover:
        # from lo: where the optimum is the crossover, the pair already
        # dominates at hi
        result.crossover_bound = crossover(m, lo, max(2 * hi, hi + 1), tol=CROSSOVER_TOL,
                                           digits=opts.digits, digits_cap=opts.digits_cap)
    return result


# ---------------------------------------------------------------------------
# confirmation against published defining polynomials
# ---------------------------------------------------------------------------


def _root_in_closed_interval(
    enc: RealRootEnclosure, lo: Fraction, hi: Fraction
) -> bool:
    """Exact membership test of an isolated root in [lo, hi]."""
    cur = enc
    p = list(enc.poly)
    for endpoint in (lo, hi):
        if poly.sign_at_fraction(p, endpoint) == 0 and cur.contains(endpoint):
            return True  # the isolated root is the endpoint itself
    while True:
        if lo <= cur.lo and cur.hi <= hi:
            return True
        if cur.hi < lo or cur.lo > hi:
            return False
        cur = poly.refine(cur, cur.width() / 4)


def verify_against_poly(
    result: GammaSupResult, p: Sequence[int], selector: str = "smallest"
) -> str:
    """'confirmed' when the designated real root of p lies in the enclosure
    and is the only root of p there; 'refuted' otherwise."""
    if result.lo is None or result.hi is None:
        raise AnalyzerError("result has no finite enclosure")
    lo, hi = result.lo, result.hi
    p = poly.strip(list(p))
    encs = poly.isolate_real_roots(p)
    if selector == "unique":
        if len(encs) != 1:
            return "refuted"
        chosen = encs[0]
    elif selector == "smaller":
        if len(encs) != 2:
            return "refuted"
        chosen = encs[0]
    elif selector == "smallest":
        if not encs:
            return "refuted"
        chosen = encs[0]
    else:
        raise AnalyzerError("unknown root selector {!r}".format(selector))
    if not _root_in_closed_interval(chosen, lo, hi):
        return "refuted"
    inside = poly.count_real_roots(p, lo, hi)
    if poly.sign_at_fraction(p, lo) == 0:
        inside += 1
    return "confirmed" if inside == 1 else "refuted"
