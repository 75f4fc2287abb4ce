"""Command-line front end.

Subcommands: catalog, check, gamma-sup, tau, reproduce, mu-curve.  All
numeric inputs are parsed exactly ("p/q", integers, or decimal strings,
never through binary floating point); reports are JSON with exact rational
strings paired with decimal renderings.  Exit codes: 0 feasible/success,
1 infeasible/not-exists, 2 inconclusive, 10 usage error, 11 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import is_dataclass, asdict
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import analyzer, methods, published, recursion
from .analyzer import Existence, Feasibility, GammaSupOptions, Mechanism
from .arith import fraction_str, parse_exact, ratio_str

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 10
EXIT_INTERNAL = 11

SCHEMA_VERSION = 1

PRECISION_CAP_ENV = "SCBCERT_PRECISION_CAP"


class UsageError(ValueError):
    pass


def fraction_decimal(q: Fraction, places: int = 15) -> str:
    q = Fraction(q)
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = q * 10**places
    digits = scaled.numerator // scaled.denominator
    head, tail = divmod(digits, 10**places)
    return "{}{}.{:0{places}d}".format(sign, head, tail, places=places)


def rational_field(q: Optional[Fraction]) -> Optional[dict]:
    if q is None:
        return None
    return {"exact": fraction_str(q), "approx": fraction_decimal(q)}


def _jsonable(obj):
    if obj is None or isinstance(obj, (str, int, bool)):
        return obj
    if isinstance(obj, Fraction):
        return rational_field(obj)
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if is_dataclass(obj) and not isinstance(obj, type):
        d = {"type": type(obj).__name__}
        for k, v in asdict(obj).items():
            d[k] = _jsonable(v)
        return d
    if hasattr(obj, "value") and hasattr(obj, "name"):  # enums
        return obj.value
    return str(obj)


def verdict_dict(v: analyzer.ScbVerdict) -> dict:
    return {
        "status": v.status.value,
        "method": v.method_name,
        "gamma": rational_field(v.gamma),
        "evidence": dict(_jsonable(v.evidence), kind=v.evidence.kind),
        "horizon_used": v.horizon_used,
        "precision_used": v.digits_used,
    }


def gamma_sup_dict(r: analyzer.GammaSupResult) -> dict:
    out = {
        "method": r.method_name,
        "mechanism": r.mechanism.value,
        "mechanism_index": r.mechanism_index,
        "enclosure": None,
        "tol": rational_field(r.tol),
        "poly_check": r.poly_check,
        "ladder": [rational_field(g) for g in r.ladder] or None,
    }
    if r.lo is not None and r.hi is not None:
        out["enclosure"] = {
            "lo": rational_field(r.lo),
            "hi": rational_field(r.hi),
            "width": rational_field(r.hi - r.lo),
        }
    elif r.lo is not None:
        out["enclosure"] = {"lo": rational_field(r.lo), "hi": None}
    if r.crossover_bound is not None:
        out["crossover_bound"] = {
            "lo": rational_field(r.crossover_bound.lo),
            "hi": rational_field(r.crossover_bound.hi),
        }
    if r.none_positive is not None:
        out["none_positive"] = {
            "witness_n": r.none_positive.witness_n,
            "negative_on": "(0, {}]".format(fraction_str(r.none_positive.interval_hi)),
        }
    if r.cert_lo is not None:
        out["feasible_at_lo"] = verdict_dict(r.cert_lo)
    if r.cert_hi is not None:
        out["infeasible_at_hi"] = verdict_dict(r.cert_hi)
    return out


def emit(report: dict, args, timings: Optional[dict] = None) -> None:
    report = dict(report)
    report["schema_version"] = SCHEMA_VERSION
    if timings is not None:
        report["timings"] = timings
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = _render_text(report)
    write_text(text, args)


def write_text(text: str, args) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _render_text(report: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for k in sorted(report):
        v = report[k]
        if isinstance(v, dict):
            lines.append("{}{}:".format(pad, k))
            lines.append(_render_text(v, indent + 1))
        elif isinstance(v, list):
            lines.append("{}{}: {}".format(pad, k, json.dumps(v)))
        else:
            lines.append("{}{}: {}".format(pad, k, v))
    return "\n".join(lines)


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return parse_exact(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError("cannot parse {} {!r}: {}".format(what, text, exc)) from exc


def _positive_int(text: str) -> int:
    """Counts and digit numbers from outside: integers >= 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError("expected a positive integer, got {!r}".format(text))
    return n


def _precision_cap(args) -> int:
    """The escalation cap: --precision-cap, else the environment, else the
    default; a starting --precision above it is a usage error."""
    if args.precision_cap is not None:
        cap = args.precision_cap
    else:
        env = os.environ.get(PRECISION_CAP_ENV)
        try:
            cap = _positive_int(env) if env else analyzer.DEFAULT_DIGITS_CAP
        except argparse.ArgumentTypeError as exc:
            raise UsageError("{}: {}".format(PRECISION_CAP_ENV, exc)) from exc
    if args.precision > cap:
        raise UsageError("--precision {} exceeds the precision cap {}".format(args.precision, cap))
    return cap


def _load_method(args) -> methods.Method:
    try:
        return methods.resolve_method(args.method)
    except methods.MethodError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_catalog(args) -> int:
    rows = []
    for name in methods.catalog_names():
        m = methods.catalog(name)
        rows.append(
            {
                "name": name,
                "family": m.family,
                "k": m.k,
                "a": [fraction_str(x) for x in m.a],
                "b": [fraction_str(x) for x in m.b],
            }
        )
    emit({"command": "catalog", "methods": rows}, args)
    return EXIT_FEASIBLE


def cmd_check(args) -> int:
    m = _load_method(args)
    gamma = _parse_fraction(args.gamma, "gamma")
    if gamma <= 0:
        raise UsageError("gamma must be positive")
    t0 = time.time()
    v = analyzer.check_scb(
        m, gamma, args.horizon, args.precision, _precision_cap(args)
    )
    timings = {"seconds": round(time.time() - t0, 3)}
    emit(dict(verdict_dict(v), command="check"), args, timings)
    return {
        Feasibility.FEASIBLE: EXIT_FEASIBLE,
        Feasibility.INFEASIBLE: EXIT_INFEASIBLE,
        Feasibility.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    }[v.status]


def cmd_gamma_sup(args) -> int:
    m = _load_method(args)
    tol = _parse_fraction(args.tol, "tol")
    opts = GammaSupOptions(
        digits=args.precision,
        digits_cap=_precision_cap(args),
        horizon=args.horizon,
        compute_crossover=args.with_crossover,
    )
    t0 = time.time()
    r = analyzer.gamma_sup(m, tol, opts)
    timings = {
        "seconds": round(time.time() - t0, 3),
        # how the bisection steps were decided: double-precision guess or check_scb
        "bisection_steps": {"guessed": r.guessed_steps, "certified": r.certified_steps},
    }
    emit(dict(gamma_sup_dict(r), command="gamma-sup"), args, timings)
    return EXIT_FEASIBLE


def cmd_tau(args) -> int:
    m = _load_method(args)
    n_max = args.n
    if n_max < 1:
        raise UsageError("--n must be at least 1")
    cap = _precision_cap(args)
    t0 = time.time()
    taus = recursion.tau_prefix(m, n_max)
    verdict = analyzer.scb_exists(m, args.horizon, args.precision, cap)
    timings = {"seconds": round(time.time() - t0, 3)}
    if args.format == "csv":
        write_text("\n".join(recursion.prefix_csv_rows(taus)), args)
    else:
        report = {
            "command": "tau",
            "method": m.name,
            "n0": verdict.n0,
            "values": {
                str(n): rational_field(taus[n]) for n in range(1, n_max + 1)
            },
            "existence": verdict.status.value,
            "only_circle_root_is_one": verdict.only_circle_root_is_one,
            "evidence": dict(_jsonable(verdict.evidence), kind=verdict.evidence.kind),
        }
        emit(report, args, timings)
    return {
        Existence.EXISTS: EXIT_FEASIBLE,
        Existence.NOT_EXISTS: EXIT_INFEASIBLE,
        Existence.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    }[verdict.status]


def _parse_n_range(text: str) -> Tuple[int, int]:
    a, sep, b = text.partition("..")
    try:
        return int(a), int(b if sep else a)
    except ValueError as exc:
        raise UsageError("cannot parse index range {!r}".format(text)) from exc


def _parse_gamma_grid(text: str) -> List[Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError("gamma grid must be start:end:step")
    start, end, step = (_parse_fraction(p, "grid bound") for p in parts)
    if start < 0:
        raise UsageError("gamma grid must start at 0 or above")
    if step <= 0 or end < start:
        raise UsageError("empty gamma grid")
    out = []
    g = start
    while g <= end:
        out.append(g)
        g += step
    if not out:
        raise UsageError("empty gamma grid")
    return out


def cmd_mu_curve(args) -> int:
    m = _load_method(args)
    n_lo, n_hi = _parse_n_range(args.n)
    if n_lo < 0 or n_hi < n_lo:
        raise UsageError("bad n range")
    grid = _parse_gamma_grid(args.gamma)
    mark = _parse_fraction(args.mark_gamma, "marker gamma") if args.mark_gamma else None
    if mark is not None and mark < 0:
        raise UsageError("marker gamma must be 0 or above")
    lines = ["gamma,n,value,marker"]
    gammas = grid + ([mark] if mark is not None else [])
    for i, (g, mus) in enumerate(recursion.mu_sweep(m, gammas, n_hi)):
        g_text = fraction_str(g)
        tag = "mark" if i == len(grid) else ""
        for n in range(n_lo, n_hi + 1):
            lines.append(f"{g_text},{n},{ratio_str(*mus[n])},{tag}")
    write_text("\n".join(lines), args)
    return EXIT_FEASIBLE


def _ulp_of_decimal(text: str) -> Fraction:
    if "." not in text:
        return Fraction(1)
    return Fraction(1, 10 ** len(text.split(".")[1]))


def _contains_printed(lo: Fraction, hi: Fraction, printed: str) -> bool:
    v = Fraction(printed)
    u = _ulp_of_decimal(printed)
    return lo - u <= v <= hi + u


def cmd_reproduce(args) -> int:
    target = args.target
    rows: List[dict] = []
    ok_all = True
    t0 = time.time()
    if target == "theorem-2.4":
        for name in ("ab1", "ab2", "ab3", "ab4"):
            m = methods.catalog(name)
            r = analyzer.gamma_sup(m, Fraction(1, 10**9))
            if name in published.GAMMA_SUP_POLYS:
                exact = published.GAMMA_SUP_POLYS[name]["exact"]
                ok = (
                    r.lo is not None
                    and r.lo <= exact <= r.hi
                    and r.poly_check == "confirmed"
                )
                rows.append(
                    {
                        "method": name,
                        "expected": fraction_str(exact),
                        "enclosure": [fraction_str(r.lo), fraction_str(r.hi)],
                        "mechanism": r.mechanism.value,
                        "pass": ok,
                    }
                )
            else:
                ok = r.mechanism is Mechanism.NONE_POSITIVE
                rows.append({"method": name, "expected": "no positive value", "pass": ok})
            ok_all = ok_all and ok
    elif target == "theorem-2.2":
        for name in ("bdf1", "bdf2", "bdf3", "bdf4", "bdf5", "bdf6"):
            m = methods.catalog(name)
            r = analyzer.gamma_sup(m, Fraction(1, 10**7))
            if name == "bdf1":
                ok = r.mechanism is Mechanism.UNBOUNDED
                rows.append({"method": name, "expected": "unbounded", "pass": ok})
            else:
                entry = published.GAMMA_SUP_POLYS[name]
                ok = (
                    r.lo is not None
                    and _contains_printed(r.lo, r.hi, entry["approx"])
                    and r.poly_check == "confirmed"
                )
                rows.append(
                    {
                        "method": name,
                        "expected": entry["approx"],
                        "enclosure": [fraction_str(r.lo), fraction_str(r.hi)],
                        "mechanism": r.mechanism.value,
                        "poly_check": r.poly_check,
                        "pass": ok,
                    }
                )
            ok_all = ok_all and ok
    elif target == "theorem-2.1":
        for name in ("ebdf3", "ebdf4", "ebdf5"):
            m = methods.catalog(name)
            v = analyzer.scb_exists(m)
            ok = v.status is Existence.EXISTS
            row = {"method": name, "expected": "positive coefficient exists", "pass": ok}
            if ok and v.evidence.tail is not None:
                row["tail_start"] = v.evidence.tail.n_start
                row["residual"] = fraction_str(v.evidence.tail.residual_at_start)
                ok = v.evidence.tail.residual_at_start <= Fraction(9, 10)
                row["residual_leq_9_tenths"] = ok
                row["pass"] = row["pass"] and ok
            rows.append(row)
            ok_all = ok_all and row["pass"]
    elif target == "remark-bdf4":
        data = published.BDF4_WITNESS_RUN
        m = methods.catalog("bdf4")
        run = recursion.run_mu_signs(m, data["gamma"], data["horizon"], data["digits"])
        expected = set(data["negative_indices"])
        ok = set(run.negative) == expected and not run.unknown
        rows.append(
            {
                "gamma": fraction_str(data["gamma"]),
                "digits": data["digits"],
                "expected_negative": sorted(expected),
                "computed_negative": run.negative,
                "unknown_count": len(run.unknown),
                "pass": ok,
            }
        )
        ok_all = ok
        if args.with_insufficiency:
            run15 = recursion.run_mu_signs(
                m, data["gamma"], data["horizon"], data["insufficient_digits"]
            )
            ok15 = bool(run15.unknown)
            rows.append(
                {
                    "digits": data["insufficient_digits"],
                    "expected": "at least one unknown sign",
                    "unknown_count": len(run15.unknown),
                    "pass": ok15,
                }
            )
            ok_all = ok_all and ok15
        # the same pattern from exact signs: mu_n = M_n / E^(n+1) with integer M_n
        signs = recursion.mu_signs(m, data["gamma"], data["horizon"])
        exact_negative = [n for n in range(1, len(signs)) if signs[n] < 0]
        ok_exact = set(exact_negative) == expected
        rows.append(
            {
                "gamma": fraction_str(data["gamma"]),
                "arithmetic": "exact integer-scaled recurrence",
                "expected_negative": sorted(expected),
                "computed_negative": exact_negative,
                "pass": ok_exact,
            }
        )
        ok_all = ok_all and ok_exact
    else:
        raise UsageError(
            "unknown target {!r}; choose from theorem-2.1, theorem-2.2, "
            "theorem-2.4, remark-bdf4".format(target)
        )
    timings = {"seconds": round(time.time() - t0, 3)}
    emit(
        {"command": "reproduce", "target": target, "rows": rows, "pass": ok_all},
        args,
        timings,
    )
    return EXIT_FEASIBLE if ok_all else EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="scbcert",
        description=(
            "Certified boundedness step-size coefficients of linear multistep "
            "methods: feasibility checks, existence tests, and optimal-value "
            "enclosures."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, gamma=False, tol=False, formats=("json", "text"), certify=True):
        p.add_argument(
            "--method",
            "-m",
            required=True,
            help="catalog name (see `scbcert catalog`) or a JSON method file",
        )
        if gamma:
            p.add_argument("--gamma", "-g", required=True, help="exact rational or decimal")
        if tol:
            p.add_argument("--tol", default="1e-9",
                           help="enclosure width target (exact rational or decimal)")
        if certify:
            p.add_argument("--horizon", type=_positive_int, default=None,
                           help="finite-check depth")
            p.add_argument("--precision", type=_positive_int, default=analyzer.DEFAULT_DIGITS,
                           help="starting precision (digits)")
            p.add_argument("--precision-cap", type=_positive_int, default=None,
                           help="escalation cap in digits (env {} as default)".format(
                               PRECISION_CAP_ENV))
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", "-o", default=None, help="write the report to a file")

    p = sub.add_parser("catalog", help="list built-in methods")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("check", help="decide whether gamma is a boundedness coefficient")
    common(p, gamma=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gamma-sup", help="certified enclosure of the optimal coefficient")
    common(p, tol=True)
    p.add_argument("--with-crossover", action="store_true",
                   help="also bracket the dominance crossover above the optimum")
    p.set_defaults(func=cmd_gamma_sup)

    p = sub.add_parser("tau", help="tau prefix and existence verdict")
    common(p, formats=("json", "text", "csv"))
    p.add_argument("--n", type=int, default=10, help="how many terms to print")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("reproduce", help="re-derive published reference tables")
    p.add_argument("--target", required=True,
                   choices=("theorem-2.1", "theorem-2.2", "theorem-2.4", "remark-bdf4"))
    p.add_argument("--with-insufficiency", action="store_true",
                   help="for remark-bdf4: also run at the published insufficient precision")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("mu-curve", help="CSV samples of the member functions")
    common(p, formats=("csv",), certify=False)
    p.add_argument("--n", required=True, help="index range, e.g. 1..21")
    p.add_argument("--gamma", required=True, help="grid start:end:step (exact rationals)")
    p.add_argument("--mark-gamma", default=None, help="emit marker rows at this gamma")
    p.set_defaults(func=cmd_mu_curve)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    # exact certificate constants can exceed the interpreter's default
    # int-to-string conversion limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(10_000_000)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return EXIT_USAGE
    except (methods.MethodError, analyzer.AnalyzerError) as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - internal errors
        print("internal error: {}".format(exc), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
