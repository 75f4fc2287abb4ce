"""Mutation runner: each mutant must make its test selector fail.

Every row of MUTANTS names a source file, an exact piece of its text, the
text put in its place, and a pytest selector.  For each row the runner
copies the checkout's src/, tests/ and pyproject.toml to a temporary
directory, applies the replacement there (it must match exactly once), runs
the selector against that copy and requires a failure.  A row with a
``survivor`` reason is a known survivor: it may pass, and the reason says
why no test can tell it from the real code.  Any other mutant that passes
fails the run, as does a replacement that no longer matches once.

Standard library only; run it from anywhere:

    python tests/mutants.py            # every row
    python tests/mutants.py NAME ...   # the rows of those names
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
# a selector that hangs counts as killed after this long
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    selector: str
    survivor: Optional[str] = None


BALLS = "tests/test_arith.py::TestGaussBall"
BALL_KERNEL = "tests/test_recursion.py::TestIntervalEvaluation"
CLOSED_FORMS = "tests/test_recursion.py::TestClosedForm"
KERNEL = "tests/test_recursion.py::TestIntegerScaledKernel"
SWEEP = "tests/test_recursion.py::TestMuSweep"
DOMINANT_SIGN = "tests/test_recursion.py::TestDominantSign"

MUTANTS = (
    Mutant(
        "product drops a radius term",
        "src/scbcert/arith.py",
        "a._mag() * b.r + b._mag() * a.r + a.r * b.r,",
        "a._mag() * b.r + a.r * b.r,",
        BALLS,
    ),
    Mutant(
        "modulus upper bound without +r",
        "src/scbcert/arith.py",
        "_dyadic(_ceil_sqrt(n) + self.r, self.s),",
        "_dyadic(_ceil_sqrt(n), self.s),",
        BALLS,
    ),
    Mutant(
        "modulus lower bound without -r",
        "src/scbcert/arith.py",
        "_dyadic(max(isqrt(n) - self.r, 0), self.s),",
        "_dyadic(isqrt(n), self.s),",
        BALLS,
    ),
    Mutant(
        "quotient centre rounded toward the origin",
        "src/scbcert/arith.py",
        "return q + (2 * rem >= d), rem == 0",
        "return q + (q < 0 and rem != 0), rem == 0",
        BALLS,
    ),
    Mutant(
        "quotient rounding left out of the radius",
        "src/scbcert/arith.py",
        "-(-nr // dr) + (not (ex and ey)),",
        "-(-nr // dr),",
        BALLS,
    ),
    Mutant(
        "quotient radius ignores the divisor's radius below",
        "src/scbcert/arith.py",
        "dx, dr = nb, lb * (lb - b.r)",
        "dx, dr = nb, lb * lb",
        BALLS,
    ),
    Mutant(
        "trimming does not widen the radius",
        "src/scbcert/arith.py",
        "-(-r >> d) + (cut != 0), s - d)",
        "r >> d, s - d)",
        BALLS,
    ),
    Mutant(
        "polynomial radius taken at |c| alone",
        "src/scbcert/arith.py",
        "lo, hi = lo * m + c, hi * (m + r) + c",
        "lo, hi = lo * m + c, hi * m + c",
        BALLS,
    ),
    Mutant(
        "containment test reads the midpoint only",
        "src/scbcert/recursion.py",
        "if not rec_val.contains(vals[n]):",
        "if not rec_val._replace(r=0).contains(vals[n]):",
        CLOSED_FORMS,
    ),
    Mutant(
        "real-part sum drops the radius of later terms",
        "src/scbcert/arith.py",
        "a.r + (b.r << d), a.s)",
        "a.r, a.s)",
        CLOSED_FORMS,
    ),
    Mutant(
        "trimming rounds the centre down",
        "src/scbcert/arith.py",
        "GaussBall((x + h) >> d, (y + h) >> d,",
        "GaussBall(x >> d, y >> d,",
        BALLS,
    ),
    Mutant(
        "root disks checked against twice the width",
        "src/scbcert/poly.py",
        "if disks is None or any(2 * r > limit for _, _, r in disks):",
        "if disks is None or any(r > limit for _, _, r in disks):",
        "tests/test_poly.py::TestRootEngine",
    ),
    Mutant(
        "sign(E) correction dropped",
        "src/scbcert/recursion.py",
        "return -s if E < 0 and n % 2 == 0 else s",
        "return s",
        KERNEL,
    ),
    Mutant(
        "recurrence coefficient scaled by E^j, not E^(j-1)",
        "src/scbcert/recursion.py",
        "D = [C[j - 1] * E ** (j - 1) for j in range(k, 0, -1)]",
        "D = [C[j - 1] * E ** j for j in range(k, 0, -1)]",
        KERNEL,
    ),
    Mutant(
        "inhomogeneous term scaled by E^(n+1), not E^n",
        "src/scbcert/recursion.py",
        "inhom = [F[n] * E**n for n in range(k + 1)]",
        "inhom = [F[n] * E**(n + 1) for n in range(k + 1)]",
        KERNEL,
    ),
    Mutant(
        "E == 0 check dropped",
        "src/scbcert/recursion.py",
        'if E == 0:\n        raise ArithmeticDomainError("1 + gamma*b0 vanishes")\n',
        "",
        KERNEL,
    ),
    Mutant(
        "F left out of the content gcd",
        "src/scbcert/recursion.py",
        "c = math.gcd(E, *C, *F)",
        "c = math.gcd(E, *C)",
        KERNEL,
    ),
    Mutant(
        "exact division's remainder check dropped",
        "src/scbcert/poly.py",
        'if any(r):\n        raise ValueError("polynomial division was not exact")\n',
        "",
        "tests/test_poly.py::TestDivisionAndGcd",
    ),
    Mutant(
        "exact division's leading-term check dropped",
        "src/scbcert/poly.py",
        'if rem:\n            raise ValueError("polynomial division was not exact")\n',
        "",
        "tests/test_poly.py::TestDivisionAndGcd",
    ),
    Mutant(
        "numerators over Z[gamma] scaled by E(gamma)^j, not E(gamma)^(j-1)",
        "src/scbcert/recursion.py",
        "D = [poly.mul(c, epow[j - 1]) for j, c in enumerate(C, 1)]",
        "D = [poly.mul(c, epow[j]) for j, c in enumerate(C, 1)]",
        "tests/test_recursion.py::TestMemberFunctions",
    ),
    Mutant(
        "stability test ignores E = 0",
        "src/scbcert/analyzer.py",
        "return False  # E = 0: the leading coefficient vanishes",
        "return True",
        "tests/test_analyzer.py::TestStabilityInterior",
    ),
    Mutant(
        "residue scale leaves F out of its gcd",
        "src/scbcert/recursion.py",
        "h = math.gcd(g, *F[: n_b + 1])",
        "h = g",
        CLOSED_FORMS,
    ),
    Mutant(
        "sweep step reads M one index too far back",
        "src/scbcert/recursion.py",
        "map(operator.mul, D[j], cols[n - 1 - j])",
        "map(operator.mul, D[j], cols[n - 2 - j])",
        SWEEP,
    ),
    Mutant(
        "reduced values' denominators one power of E short",
        "src/scbcert/recursion.py",
        "    den = E\n    coprime = False",
        "    den = 1\n    coprime = False",
        SWEEP,
    ),
    Mutant(
        "coprime lanes keep a negative denominator",
        "src/scbcert/recursion.py",
        "yield (M, den) if den > 0 else (-M, -den)",
        "yield M, den",
        SWEEP,
    ),
    Mutant(
        "ball kernel's radius drops |C_j|* R_j",
        "src/scbcert/recursion.py",
        "rad += ((t * ri) << s) + rcj * (abs(xi) + ri)",
        "rad += rcj * (abs(xi) + ri)",
        BALL_KERNEL,
    ),
    Mutant(
        "ball kernel's radius drops rc_j (|X_j| + R_j)",
        "src/scbcert/recursion.py",
        "rad += ((t * ri) << s) + rcj * (abs(xi) + ri)",
        "rad += (t * ri) << s",
        BALL_KERNEL,
    ),
    Mutant(
        "ball kernel keeps E < 0",
        "src/scbcert/recursion.py",
        "E, N, F = -E, [-v for v in N], [-v for v in F]",
        "pass",
        BALL_KERNEL,
    ),
    Mutant(
        "dominant pair read as a positive term",
        "src/scbcert/recursion.py",
        "return 0 if c.modulus_bounds()[0] > 0 else None",
        "return 1 if c.modulus_bounds()[0] > 0 else None",
        DOMINANT_SIGN,
    ),
    Mutant(
        "dominant sign ignores a negative coefficient",
        "src/scbcert/recursion.py",
        "if z_hi < 0 or c_hi < 0:",
        "if z_hi < 0:",
        DOMINANT_SIGN,
    ),
    Mutant(
        "positive-tail certifier stops at sign 1 without a tail certificate",
        "src/scbcert/analyzer.py",
        "tc = tail_certificate(cf)  # None unless the sign is 1\n        if tc is not None:",
        "tc = tail_certificate(cf)  # None unless the sign is 1\n        if cf.dominant_sign() == 1:",
        "tests/test_analyzer.py::TestScbExists",
    ),
    Mutant(
        "quotient worked one bit finer",
        "src/scbcert/arith.py",
        "k = prec - max(abs(a.x), abs(a.y), a.r).bit_length() + lb.bit_length()",
        "k = prec - max(abs(a.x), abs(a.y), a.r).bit_length() + lb.bit_length() + 1",
        BALLS,
        survivor=(
            "the scale a quotient is worked at only sets how many bits its "
            "centre carries before the trim; every scale is sound, and the "
            "results differ below any bound a test reads"
        ),
    ),
)


def _copy_checkout(dest: pathlib.Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(
            ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis")
        )
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _apply(dest: pathlib.Path, mutant: Mutant) -> None:
    target = dest / mutant.path
    text = target.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError("{}: the old text matches {} times".format(mutant.name, found))
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _env(dest: pathlib.Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(dest / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run(mutant: Mutant) -> str:
    """'killed', 'timeout' or 'survived' for one mutant, run in its own copy."""
    with tempfile.TemporaryDirectory(prefix="scbcert-mutant-") as tmp:
        dest = pathlib.Path(tmp)
        _copy_checkout(dest)
        _apply(dest, mutant)
        env = _env(dest)
        where = subprocess.run(
            [sys.executable, "-c", "import scbcert; print(scbcert.__file__)"],
            cwd=dest, env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not pathlib.Path(where).is_relative_to(dest):
            raise RuntimeError("scbcert was imported from {}, not the copy".format(where))
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", mutant.selector]
        try:
            done = subprocess.run(cmd, cwd=dest, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout"
        return "survived" if done.returncode == 0 else "killed"


def main(names) -> int:
    rows = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print("no such mutant: {}".format(", ".join(sorted(unknown))))
        return 2
    bad = 0
    for mutant in rows:
        try:
            outcome = run(mutant)
        except ValueError as exc:
            print("STALE     {}".format(exc))
            bad += 1
            continue
        if outcome == "survived" and mutant.survivor is None:
            bad += 1
            label = "SURVIVED"
        elif outcome == "survived":
            label = "known"
        else:
            label = outcome
        print("{:<9} {} [{}]".format(label, mutant.name, mutant.selector))
    print("{} of {} mutants need attention".format(bad, len(rows)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
