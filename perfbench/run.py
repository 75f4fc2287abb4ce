"""Benchmark of scbcert: certified optimum search, long sign scans and
member-function curves.

    python3 perfbench/run.py --workload optimum|sequences \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the workload's operations are repeated in
whole rounds for about S seconds (at least one round) and the end-to-end
metrics are reported as medians over the rounds.  With ``--trace 1`` one
round runs with every public function of the package wrapped (see
``trace.py``), then one round without, and the per-layer metrics plus the
tracing overhead are reported.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Full
results, machine facts and (traced) spans go to ``perfbench/out/``.
"""

import time

T_SCRIPT = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from types import SimpleNamespace  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, ROOT)

from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import OUT_DIR, WORKLOADS  # noqa: E402

EXIT_NO_PACKAGE = 2


def process_age() -> float:
    """Seconds since this process started, interpreter start-up included.

    The start time comes from /proc/self/stat (clock ticks since boot) and
    is compared with CLOCK_BOOTTIME; where either is unavailable the age is
    counted from the first line of this script instead."""
    now = time.perf_counter()
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, IndexError, ValueError, AttributeError):
        return now - T_SCRIPT
    before_script = age - (now - T_SCRIPT)
    return age if 0 <= before_script < 5 else now - T_SCRIPT


def machine_facts() -> dict:
    import mpmath

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": model,
        "machine": platform.machine(),
    }


def import_package():
    """scbcert from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "scbcert", "__init__.py")
    if not os.path.isfile(init):
        raise ImportError("no scbcert sources under {}".format(SRC))
    sys.path.insert(0, SRC)
    pkg = SimpleNamespace(
        **{n: importlib.import_module("scbcert." + n)
           for n in ("analyzer", "cli", "methods", "published", "recursion")}
    )
    if os.path.dirname(os.path.abspath(pkg.analyzer.__file__)) != os.path.dirname(init):
        raise ImportError("scbcert was imported from {}".format(pkg.analyzer.__file__))
    return pkg


def run_round(ops, log):
    """Run every operation once; returns (seconds per op, failed, wrong).

    Each operation starts from a collected heap, so its time does not depend
    on the garbage its predecessors in the seed's order left behind."""
    times, failed, wrong = [], 0, 0
    clock = time.perf_counter
    for op in ops:
        gc.collect()
        t0 = clock()
        try:
            out = op.run()
        except Exception:
            times.append(clock() - t0)
            failed += 1
            log.append({"op": op.label, "error": traceback.format_exc()})
            continue
        times.append(clock() - t0)
        try:
            problems = op.check(out)
        except Exception:
            problems = ["check raised: " + traceback.format_exc()]
        del out
        if problems:
            failed += 1
            wrong += 1
            log.append({"op": op.label, "problems": problems})
    return times, failed, wrong


def summarize(rounds):
    """End-to-end timing metrics, as medians over the rounds.

    The operations are in the same order in every round.  Each operation's
    time is its median over the rounds, which spread over the whole run, so
    op_median_s and op_max_s sample the host as evenly as wall_s does.
    """
    per_op = [statistics.median(times) for times in zip(*rounds)]
    return {
        "wall_s": statistics.median(sum(times) for times in rounds),
        "op_median_s": statistics.median(per_op),
        "op_max_s": max(per_op),
    }


def unit_of(metric: str) -> str:
    for suffix, unit in ((".ms_per_kterm", "ms/kterm"), (".digits_max", "digits"),
                         ("_s", "s"), (".s", "s"), ("_mib", "MiB")):
        if metric.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None

    # set-up: import the package, then build and validate the methods
    try:
        pkg = import_package()
    except ImportError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return EXIT_NO_PACKAGE
    if tracer:
        tracer.install()
    built = {name: pkg.methods.catalog(name) for name in workload.methods}
    setup_s = process_age()

    facts = machine_facts()
    print("machine: " + json.dumps(facts, sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    log = [{"run_check": p} for p in workload.prepare(pkg, built)]
    correct = not log
    ops = workload.operations(pkg, built, args.seed)

    rounds, failed = [], 0

    def one_round():
        nonlocal correct, failed
        times, n_failed, n_wrong = run_round(ops, log)
        rounds.append(times)
        failed += n_failed
        correct = correct and not n_wrong

    if tracer:
        one_round()
        tracer.uninstall()
        one_round()
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = sum(rounds[0]) - sum(rounds[1])
    else:
        t_start = time.perf_counter()
        while True:
            t_round = time.perf_counter()
            one_round()
            now = time.perf_counter()
            if now + (now - t_round) > t_start + args.seconds:
                break
        metrics = summarize(rounds)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    stem = os.path.join(OUT_DIR, "{}-seed{}-trace{}".format(args.workload, args.seed, args.trace))
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "operations": [op.label for op in ops],
        "round_seconds": rounds,  # traced: the traced round, then the untraced one
        "setup_s": setup_s,
        "metrics": metrics,
        "log": log,
    }
    if tracer:
        detail["functions"] = tracer.function_table()
        detail["counts"] = dict(tracer.counts)
        detail["spans"] = len(tracer.span_start)
        tracer.write_spans(stem + "-spans.tsv.gz")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    for entry in log:
        print("problem: " + json.dumps(entry), file=sys.stderr)

    result = {
        "correct": bool(correct),
        "attempted": len(rounds) * len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
