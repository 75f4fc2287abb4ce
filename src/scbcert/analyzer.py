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
requested tolerance; double-precision guesses steer the bracket search and
the bisection, and check_scb certifies the steps they leave open, the
infeasible points of the halving that looks for a feasible one, and the
endpoints reported.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from . import poly, published, recursion
from .arith import DEFAULT_DIGITS, DEFAULT_DIGITS_CAP, IntervalScalar, precision_ladder
from .methods import Method, char_poly_mu, generating_polys, n0, validate
from .poly import EnclosureError
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
# gamma_sup's double-precision guess leaves a step to check_scb when the
# dominant root ties in modulus with another, or its coefficient is 0, to
# within GUESS_MARGIN (relative); or when another root lies within
# GUESS_SEPARATION of it, near a double root, where doubles lose half their
# digits
GUESS_MARGIN = 1e-9
GUESS_SEPARATION = 1e-6


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
    # bisection steps decided by a double-precision guess and by check_scb
    # (a fallback rerun adds all of its steps to the second)
    guessed_steps: int = field(default=0, compare=False, repr=False)
    certified_steps: int = field(default=0, compare=False, repr=False)


# ---------------------------------------------------------------------------
# stability-region interior membership
# ---------------------------------------------------------------------------


def damped_root_poly(m: Method, lam: Fraction) -> List[Fraction]:
    """rho - lambda*sigma as a rational coefficient list."""
    gp = generating_polys(m)
    rho = list(gp.rho)
    sigma = [Fraction(0)] * (len(rho) - len(gp.sigma)) + list(gp.sigma)
    return [r - Fraction(lam) * s for r, s in zip(rho, sigma)]


def in_stability_interior(m: Method, lam: Fraction) -> bool:
    """Exact interior test: nonzero leading coefficient and every root of
    rho - lambda*sigma strictly inside the unit circle (Schur-Cohn)."""
    lam = Fraction(lam)
    if 1 - lam * m.b0 == 0:
        return False
    p = damped_root_poly(m, lam)
    if poly.degree(poly.strip(p)) < 1:
        return False
    return poly.all_roots_strictly_inside(p)


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


def _scan_horizon(m: Method, horizon: Optional[int]) -> int:
    return max(32, 4 * m.k) if horizon is None else horizon


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
    horizon = _scan_horizon(m, horizon)
    # the ladder starts at 64 digits at most; digits_used is the highest
    # rung run so far, or this first one before any runs
    start = min(digits, 64, digits_cap)
    digits_used = start

    def verdict(status: Feasibility, evidence: Evidence) -> ScbVerdict:
        return ScbVerdict(status, m.name, gamma, evidence, horizon, digits_used)

    def exact_witness(n: int) -> ScbVerdict:
        return verdict(
            Feasibility.INFEASIBLE, InfeasibleWitness(n, str(eval_mu(m, gamma, n)), True)
        )

    def exact_feasible(
        window_start: int, form: Optional[RationalExponentialForm] = None
    ) -> ScbVerdict:
        """FEASIBLE from an exact form valid for n >= window_start: mu is
        identically zero there (order 0) or a nonnegative exponential
        polynomial (form).  The terms before window_start are scanned
        exactly, since the prefix scan may stop short of it; a negative one
        is the witness instead."""
        upto = max(prefix_n, window_start)
        signs = mu_signs(m, gamma, upto)
        neg = _first_negative(signs)
        if neg is not None:
            return exact_witness(neg)
        checked = upto if form is None else max(upto, horizon)
        return verdict(
            Feasibility.FEASIBLE, FeasibleCert(checked, _zero_indices(signs), None, form)
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

    if not in_stability_interior(m, -gamma):
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
        for digits_used, cf in _closed_forms(m, gamma, start, digits_cap):
            if cf.order == 0:
                return exact_feasible(cf.window_start)
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
                run = run_mu_signs(m, gamma, horizon, digits_used)
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
            digits_used = digits_cap  # the last rung is the cap
    except MultipleRootError:
        # raised at the first rung, since the test is exact: no closed form
        # at any precision, but all roots may be rational
        form = rational_closed_form(m, gamma)
        if form is not None and form.all_terms_nonnegative():
            return exact_feasible(form.window_start, form)

    # fallback: exact witness scan over the horizon
    return scanned_witness() or verdict(
        Feasibility.INCONCLUSIVE, InconclusiveHorizon(horizon, digits_used)
    )


def _guess_feasible(m: Method, gamma: Fraction, horizon: Optional[int]) -> Optional[bool]:
    """Uncertified guess of check_scb's verdict at gamma > 0, which steers
    gamma_sup's bisection; None where no guess is safe enough.

    False when one of check_scb's exact openers fails: the stability test,
    or a negative term through the horizon.  Otherwise the dominant root
    class of the characteristic polynomial, from double-precision seeds,
    decides with its residue c = z^(order-1) B(1/z) / chi'(z): a positive
    real root with c > 0 guesses True, a conjugate pair with c clear of 0
    guesses False.  A modulus tie, a near-double root, a negative real root,
    c near 0, no seeds or order 0 give None.
    """
    if not in_stability_interior(m, -gamma):
        return False
    if first_negative_mu(m, gamma, _scan_horizon(m, horizon)) is not None:
        return False
    char = char_poly_mu(m, gamma)
    while len(char) > 1 and char[-1] == 0:
        char.pop()  # roots at zero do not enter the closed form
    order = len(char) - 1
    seeds = poly._float_seeds(char) if order > 0 else None
    if seeds is None:
        return None
    seeds.sort(key=abs, reverse=True)
    z, others = seeds[0], seeds[1:]
    r = abs(z)
    if any(abs(w - z) <= GUESS_SEPARATION * r for w in others):
        return None
    ties = [w for w in others if abs(w) >= r * (1 - GUESS_MARGIN)]
    try:
        terms = [float(b) * z ** (order - 1 - n) for n, b in enumerate(m.b)]
        dchi = poly.eval_at([float(c) for c in poly.derivative(char)], z)
        c = sum(terms) / dchi
        if not abs(c) > GUESS_MARGIN * sum(map(abs, terms)) / abs(dchi):
            return None
    except (OverflowError, ZeroDivisionError):
        return None
    if not ties and abs(z.imag) <= GUESS_MARGIN * r:
        return True if z.real > 0 and c.real > 0 else None
    if len(ties) == 1 and abs(ties[0] - z.conjugate()) <= GUESS_MARGIN * r:
        return False
    return None


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

    One search finds the bracket from gamma = 1 (doubling while feasible,
    halving while not) and bisects it to tol.  It is steered by
    ``_guess_feasible``, an uncertified double-precision guess; check_scb
    decides the steps the guess leaves open, every infeasible step of the
    halving before a feasible point is known (the none-positive proof needs
    that verdict's witness), and then the endpoints reported: lo and hi, or
    lo = UNBOUNDED_CAP alone.  That is sound by downward inheritance: a
    guess "feasible" at g moved lo to g, so a certified feasible final
    lo >= g proves g feasible, and alike for hi.  Once the endpoints
    certify, every guess agreed with check_scb, so the ladder, the path and
    the report are those of a fully certified search.  When a certificate
    contradicts a guess, the search is rerun with check_scb at every step.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise AnalyzerError("tol must be positive")
    opts = options or GammaSupOptions()

    def verdict_at(g: Fraction) -> ScbVerdict:
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
        return v

    def feas(g: Fraction) -> ScbVerdict:
        v = verdict_at(g)
        if v.status is Feasibility.INCONCLUSIVE:
            raise AnalyzerError(
                "feasibility test inconclusive at gamma={} (horizon/precision caps)".format(g)
            )
        return v

    steps = {"guessed": 0, "certified": 0}

    def search(guess: Callable[[Fraction], Optional[bool]]) -> Optional[GammaSupResult]:
        """The bracket search and the bisection to tol, each step decided by
        the guess or, where it gives none, by check_scb; None when a
        certificate contradicts a guess.  A step the guess decides keeps no
        verdict."""
        ladder: List[Fraction] = []
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        cert_lo: Optional[ScbVerdict] = None
        cert_hi: Optional[ScbVerdict] = None
        g = Fraction(1)
        while lo is None or hi is None or hi - lo > tol:
            bisecting = lo is not None and hi is not None
            if bisecting:
                g = (lo + hi) / 2
            v = None
            feasible = guess(g)
            # the halving's infeasible points are certified: the
            # none-positive proof needs their witnesses
            if feasible is None or (lo is None and not feasible):
                v = feas(g)
                if feasible is not None and feasible != (v.status is Feasibility.FEASIBLE):
                    return None
                feasible = v.status is Feasibility.FEASIBLE
            if bisecting:
                steps["guessed" if v is None else "certified"] += 1
            if feasible:
                lo, cert_lo = g, v
                if hi is None:
                    ladder.append(g)
                    g *= 2
                    if g > UNBOUNDED_CAP:
                        cert_lo = cert_lo or verdict_at(lo)
                        if cert_lo.status is not Feasibility.FEASIBLE:
                            return None
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
                    proof = _certify_none_positive(m, v)
                    if proof is not None:
                        return GammaSupResult(
                            method_name=m.name,
                            mechanism=Mechanism.NONE_POSITIVE,
                            none_positive=proof,
                            cert_hi=v,
                            tol=tol,
                        )
                    g /= 2
                    if g < EPS_MIN:
                        raise AnalyzerError(
                            "no feasible gamma found above {} and no none-positive "
                            "proof".format(EPS_MIN)
                        )
        cert_lo = cert_lo or verdict_at(lo)
        cert_hi = cert_hi or verdict_at(hi)
        if (cert_lo.status is not Feasibility.FEASIBLE
                or cert_hi.status is not Feasibility.INFEASIBLE):
            return None
        ev = cert_hi.evidence
        simple_root = isinstance(ev, InfeasibleWitness)
        return GammaSupResult(
            method_name=m.name,
            mechanism=Mechanism.SIMPLE_ROOT if simple_root else Mechanism.CROSSOVER,
            mechanism_index=ev.n if simple_root else None,
            lo=lo,
            hi=hi,
            cert_lo=cert_lo,
            cert_hi=cert_hi,
            tol=tol,
        )

    result = search(lambda g: _guess_feasible(m, g, opts.horizon))
    if result is None:
        # some guess was wrong: the fully certified search
        result = search(lambda g: None)
    result.guessed_steps = steps["guessed"]
    result.certified_steps = steps["certified"]
    if result.hi is None:
        return result  # UNBOUNDED or NONE_POSITIVE
    if m.name in published.GAMMA_SUP_POLYS:
        entry = published.GAMMA_SUP_POLYS[m.name]
        result.poly_check = verify_against_poly(result, entry["poly"], entry["selector"])
    if opts.compute_crossover:
        # from lo: where the optimum is the crossover, the pair already
        # dominates at hi
        result.crossover_bound = crossover(m, result.lo, max(2 * result.hi, result.hi + 1),
                                           tol=CROSSOVER_TOL, digits=opts.digits,
                                           digits_cap=opts.digits_cap)
    return result


# ---------------------------------------------------------------------------
# confirmation against published defining polynomials
# ---------------------------------------------------------------------------


# the number of distinct real roots a selector asks p to have; None: any
_SELECTOR_ROOTS = {"unique": 1, "smaller": 2, "smallest": None}


def verify_against_poly(
    result: GammaSupResult, p: Sequence[int], selector: str = "smallest"
) -> str:
    """'confirmed' when the designated real root of p lies in the enclosure
    and is the only root of p there; 'refuted' otherwise.

    Every selector designates the smallest real root: "unique" when it is
    the only one, "smaller" when there is exactly one other.  It lies in
    [lo, hi] and is the only root there exactly when no root lies below lo
    and one lies in [lo, hi]; three Sturm counts on one chain decide that
    and the total.
    """
    if result.lo is None or result.hi is None:
        raise AnalyzerError("result has no finite enclosure")
    if selector not in _SELECTOR_ROOTS:
        raise AnalyzerError("unknown root selector {!r}".format(selector))
    lo, hi = result.lo, result.hi
    chain = poly.sturm_chain(p)
    at_lo = poly.sign_at_fraction(p, lo) == 0
    below = poly.count_real_roots(p, None, lo, chain) - at_lo
    inside = poly.count_real_roots(p, lo, hi, chain) + at_lo
    total = _SELECTOR_ROOTS[selector]
    if total is not None and poly.count_real_roots(p, chain=chain) != total:
        return "refuted"
    return "confirmed" if below == 0 and inside == 1 else "refuted"
