"""The benchmark's two workloads and the checks on their outputs.

Each workload is a fixed list of operations on inputs taken from the paper.
The seed only permutes the order of the operations and, for the curves of
``sequences``, shifts the gamma grid by r/10^6 with r coprime to 10, so
every grid point keeps the denominator 10^6 and the cost does not depend on
the seed.

An operation's check returns a list of failure messages; the outputs are
compared with the reference computations of ``reference`` or with
properties the result must have.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from . import reference

Check = Callable[[object], List[str]]
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


@dataclass
class Operation:
    label: str
    run: Callable[[], object]
    check: Check


class Workload:
    name = ""
    methods: Tuple[str, ...] = ()

    def prepare(self, pkg, built: Dict) -> List[str]:
        """Untimed per-run work before the measured rounds; returns failures
        of run-level checks."""
        return []

    def operations(self, pkg, built: Dict, seed: int) -> List[Operation]:
        raise NotImplementedError


def _catalog_failures(built: Dict) -> List[str]:
    """The catalog's coefficients must equal the independently derived ones."""
    out = []
    for name, m in built.items():
        a, b = reference.coefficients(name)
        if list(m.a) != list(a) or list(m.b) != list(b):
            out.append("{}: catalog coefficients differ from the order conditions".format(name))
    return out


def _recurrence(name: str, gamma) -> reference.ScaledRecurrence:
    return reference.ScaledRecurrence(reference.coefficients(name), Fraction(gamma))


# ---------------------------------------------------------------------------
# optimum: gamma_sup over the catalog (Theorems 2.2 and 2.4)
# ---------------------------------------------------------------------------

OPTIMUM_TOL = Fraction(1, 10**9)  # gamma_sup's default tolerance
# mechanisms and simple-root indices as the paper attributes them
OPTIMUM_MECHANISM = {
    "ab1": "simple_root",
    "ab2": "simple_root",
    "ab3": "simple_root",
    "ab4": "none_positive",
    "bdf1": "unbounded",
    "bdf2": "crossover",
    "bdf3": "simple_root",
    "bdf4": "crossover",
    "bdf5": "crossover",
    "bdf6": "crossover",
}
SIMPLE_ROOT_INDEX = {"ab1": 2, "ab2": 2, "ab3": 2, "bdf3": 6}
EXACT_OPTIMUM = {"ab1": Fraction(1), "ab2": Fraction(4, 9), "ab3": Fraction(84, 529)}
# every feasible gamma has mu_n(gamma) >= 0 for all n; checked on this prefix
POSITIVITY_PREFIX = 256


class Optimum(Workload):
    name = "optimum"
    methods = tuple(OPTIMUM_MECHANISM)

    def prepare(self, pkg, built):
        return _catalog_failures(built)

    def operations(self, pkg, built, seed):
        ops = [
            Operation(
                "gamma_sup:" + name,
                lambda m=built[name]: pkg.analyzer.gamma_sup(m, OPTIMUM_TOL),
                lambda r, name=name: self._check(pkg, name, r),
            )
            for name in self.methods
        ]
        random.Random(seed).shuffle(ops)
        return ops

    @staticmethod
    def _check(pkg, name: str, r) -> List[str]:
        bad = []
        mech = r.mechanism.value
        if mech != OPTIMUM_MECHANISM[name]:
            return ["mechanism {} instead of {}".format(mech, OPTIMUM_MECHANISM[name])]
        if mech == "none_positive":
            proof = r.none_positive
            rec = _recurrence(name, proof.interval_hi)
            values = list(rec.numerators(proof.witness_n))
            if values[-1] >= 0:
                bad.append("witness mu_{} is not negative at {}".format(proof.witness_n, proof.interval_hi))
            return bad
        if r.lo is None or r.cert_lo is None or r.cert_lo.status.value != "feasible":
            return ["no certified feasible lower end"]
        if _recurrence(name, r.lo).first_negative(POSITIVITY_PREFIX) is not None:
            bad.append("reference mu_n(lo) < 0 on the first {} terms".format(POSITIVITY_PREFIX))
        if mech == "unbounded":
            if r.hi is not None:
                bad.append("unbounded result has an upper end")
            return bad
        lo, hi = r.lo, r.hi
        if hi is None or not lo < hi or hi - lo > OPTIMUM_TOL:
            bad.append("enclosure [{}, {}] is not within the tolerance".format(lo, hi))
            return bad
        if r.cert_hi is None or r.cert_hi.status.value != "infeasible":
            bad.append("no certified infeasible upper end")
        entry = pkg.published.GAMMA_SUP_POLYS[name]
        if reference.poly_sign(entry["poly"], lo) * reference.poly_sign(entry["poly"], hi) > 0:
            bad.append("published polynomial has no sign change on the enclosure")
        if r.poly_check != "confirmed":
            bad.append("poly_check is {!r}".format(r.poly_check))
        if name in EXACT_OPTIMUM and not lo <= EXACT_OPTIMUM[name] <= hi:
            bad.append("exact optimum {} outside the enclosure".format(EXACT_OPTIMUM[name]))
        if mech == "simple_root":
            n = r.mechanism_index
            if n != SIMPLE_ROOT_INDEX[name]:
                bad.append("simple-root index {} instead of {}".format(n, SIMPLE_ROOT_INDEX[name]))
            elif list(_recurrence(name, hi).numerators(n))[-1] >= 0:
                bad.append("reference mu_{}(hi) is not negative".format(n))
        return bad


# ---------------------------------------------------------------------------
# sequences, part 1: the BDF4 remark, scaled down
# ---------------------------------------------------------------------------

SIGN_GAMMA = Fraction(4866, 10000)
SIGN_TERMS = 3000
SIGN_DIGITS = 1800  # 1500 digits leave 326 signs unknown
SIGN_PREFIX = 1200


class SignScan:
    """A long certified sign run, the witness search and an exact prefix."""

    def prepare(self, pkg) -> List[str]:
        bad = []
        # the reference must reproduce the paper's 27000-term negative set
        run = pkg.published.BDF4_WITNESS_RUN
        published = list(run["negative_indices"])
        found = _recurrence("bdf4", run["gamma"]).negative_indices(run["horizon"])
        if found != published:
            bad.append("reference negatives {} differ from the published {}".format(found, published))
        self.negatives = _recurrence("bdf4", SIGN_GAMMA).negative_indices(SIGN_TERMS)
        if not self.negatives:
            bad.append("reference finds no negative term")
        return bad

    def operations(self, pkg, m) -> List[Operation]:
        return [
            Operation(
                "run_mu_signs",
                lambda: pkg.recursion.run_mu_signs(m, SIGN_GAMMA, SIGN_TERMS, SIGN_DIGITS),
                self._check_run,
            ),
            Operation(
                "check_scb",
                lambda: pkg.analyzer.check_scb(m, SIGN_GAMMA, SIGN_TERMS, SIGN_DIGITS),
                self._check_verdict,
            ),
            Operation(
                "mu_prefix",
                lambda: pkg.recursion.mu_prefix(m, SIGN_GAMMA, SIGN_PREFIX),
                self._check_prefix,
            ),
        ]

    def _check_run(self, run) -> List[str]:
        bad = []
        if run.unknown:
            bad.append("{} signs left unknown".format(len(run.unknown)))
        if run.negative != self.negatives:
            bad.append("certified negatives differ from the reference's")
        return bad

    def _check_verdict(self, v) -> List[str]:
        ev = v.evidence
        if v.status.value != "infeasible" or ev.kind != "negative_witness":
            return ["verdict {} by {} instead of a negative witness".format(v.status.value, ev.kind)]
        if ev.n != self.negatives[0]:
            return ["witness at n={} instead of {}".format(ev.n, self.negatives[0])]
        return []

    def _check_prefix(self, values) -> List[str]:
        if len(values) != SIGN_PREFIX + 1:
            return ["{} values instead of {}".format(len(values), SIGN_PREFIX + 1)]
        wrong = _recurrence("bdf4", SIGN_GAMMA).matches(values)
        return ["mu_n differs from M_n/E^(n+1) at n={}".format(wrong[:5])] if wrong else []


# ---------------------------------------------------------------------------
# sequences, part 2: the CLI's member-function sweeps and tau reports
# ---------------------------------------------------------------------------

CURVE_N = (1, 21)
CURVE_STEPS = 1000  # grid offset + i/1000, i = 0..1000
CURVE_DEN = 10**6
# marker rows at the published optimum, truncated to six decimals
CURVE_MARK = {
    "bdf3": "0.831264",
    "bdf5": "0.304213",
}
TAU_TERMS = 12
CATALOG = (
    "ab1", "ab2", "ab3", "ab4",
    "bdf1", "bdf2", "bdf3", "bdf4", "bdf5", "bdf6",
    "ebdf3", "ebdf4", "ebdf5",
)
NO_SCB = ("ab4",)  # Theorem 2.4: no positive coefficient for k = 4
TAIL_MARGIN = Fraction(9, 10)  # Theorem 2.1 residual bound for the ebdf family
_OFFSETS = [r for r in range(1, 1000) if r % 2 and r % 5]


def grid_offset(seed: int) -> Fraction:
    return Fraction(_OFFSETS[seed % len(_OFFSETS)], CURVE_DEN)


def _cli(pkg, argv: List[str]):
    """Run the CLI in-process with its standard output sent to a file, as a
    user redirects it; returns (exit code, output)."""
    with tempfile.TemporaryFile("w+", encoding="utf-8", dir=OUT_DIR) as fh:
        with contextlib.redirect_stdout(fh):
            rc = pkg.cli.main(argv)
        fh.seek(0)
        return rc, fh.read()


class Curves:
    """``mu-curve`` sweeps and ``tau`` reports run through ``cli.main``."""

    def operations(self, pkg, seed) -> List[Operation]:
        off = grid_offset(seed)
        grid = "{}/{}:{}/{}:1/{}".format(
            off.numerator, off.denominator, (off + 1).numerator, off.denominator, CURVE_STEPS
        )
        ops = []
        for name, mark in CURVE_MARK.items():
            argv = ["mu-curve", "--method", name, "--n", "{}..{}".format(*CURVE_N),
                    "--gamma", grid, "--mark-gamma", mark]
            ops.append(Operation(
                "mu-curve:" + name,
                lambda argv=argv: _cli(pkg, argv),
                lambda out, name=name, mark=mark: self._check_curve(name, off, Fraction(mark), out),
            ))
        for name in CATALOG:
            argv = ["tau", "--method", name, "--n", str(TAU_TERMS)]
            ops.append(Operation(
                "tau:" + name,
                lambda argv=argv: _cli(pkg, argv),
                lambda out, name=name: self._check_tau(name, out),
            ))
        return ops

    @staticmethod
    def _check_curve(name: str, off: Fraction, mark: Fraction, out) -> List[str]:
        rc, text = out
        if rc != 0:
            return ["exit code {}".format(rc)]
        lines = text.splitlines()
        n_lo, n_hi = CURVE_N
        width = n_hi - n_lo + 1
        if lines[0] != "gamma,n,value,marker":
            return ["bad header {!r}".format(lines[0])]
        rows = [line.split(",") for line in lines[1:]]
        expected_rows = (CURVE_STEPS + 1) * width + width
        if len(rows) != expected_rows:
            return ["{} rows instead of {}".format(len(rows), expected_rows)]
        gammas = [off + Fraction(i, CURVE_STEPS) for i in range(CURVE_STEPS + 1)] + [mark]
        bad = []
        for block, g in enumerate(gammas):
            chunk = rows[block * width:(block + 1) * width]
            tag = "mark" if block == CURVE_STEPS + 1 else ""
            if any(len(r) != 4 or Fraction(r[0]) != g or r[3] != tag for r in chunk):
                bad.append("rows of gamma={} are malformed".format(g))
            elif [int(r[1]) for r in chunk] != list(range(n_lo, n_hi + 1)):
                bad.append("index column at gamma={} is wrong".format(g))
            else:
                wrong = _recurrence(name, g).matches([Fraction(r[2]) for r in chunk], n_lo)
                if wrong:
                    bad.append("mu_n({}) differs from the reference at n={}".format(g, wrong))
            if len(bad) >= 3:
                break
        return bad

    @staticmethod
    def _check_tau(name: str, out) -> List[str]:
        rc, text = out
        exists = name not in NO_SCB
        if rc != (0 if exists else 1):
            return ["exit code {}".format(rc)]
        report = json.loads(text)
        bad = []
        if report["existence"] != ("exists" if exists else "not_exists"):
            bad.append("existence {!r}".format(report["existence"]))
        values = [Fraction(report["values"][str(n)]["exact"]) for n in range(1, TAU_TERMS + 1)]
        rec = _recurrence(name, 0)
        wrong = rec.matches(values, 1)
        if wrong:
            bad.append("tau_n differs from the reference at n={}".format(wrong))
        ev = report["evidence"]
        if not exists:
            if ev["kind"] != "negative_witness" or list(rec.numerators(ev["n"]))[-1] > 0:
                bad.append("no nonpositive reference tau at the witness")
        elif name.startswith("ebdf"):
            tail = ev.get("tail")
            if not tail or Fraction(tail["residual_at_start"]["exact"]) > TAIL_MARGIN:
                bad.append("tail residual missing or above 9/10")
        return bad


# ---------------------------------------------------------------------------
# sequences: both parts in one list
# ---------------------------------------------------------------------------


class Sequences(Workload):
    """The sign scan's three long calls and the CLI's short ones, shuffled
    together: one long sequence against thousands of short ones."""

    name = "sequences"
    methods = CATALOG

    def __init__(self):
        self.scan = SignScan()
        self.curves = Curves()

    def prepare(self, pkg, built):
        return _catalog_failures(built) + self.scan.prepare(pkg)

    def operations(self, pkg, built, seed):
        ops = self.scan.operations(pkg, built["bdf4"]) + self.curves.operations(pkg, seed)
        random.Random(seed).shuffle(ops)
        return ops


WORKLOADS = {cls.name: cls for cls in (Optimum, Sequences)}
