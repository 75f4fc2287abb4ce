"""Span tracing of scbcert's layers from outside the package.

Tracer.install wraps every public function of the traced modules and
rebinds each wrapper wherever the original is bound in a scbcert module
namespace, so a call through an imported name (``analyzer.closed_form``)
is recorded as well as one through the defining module
(``recursion.closed_form``).  Generator functions such as
``precision_ladder`` are counted per yielded item instead of spanned.
``IntervalScalar.mul`` and the constant-time coefficient-list helpers in
COUNTED_FUNCTIONS are counted only: each runs hundreds of thousands of times
per workload, and a span apiece would outweigh the work it measures.
Nothing under ``src/`` changes; ``uninstall`` puts the original bindings
back.

Spans stay in memory (name, start, end, parent) until the run ends.  Self
time is a span's duration minus the durations of its direct children, which
nest without overlap in this single-threaded program.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Tuple

PACKAGE = "scbcert"
TRACED_MODULES = ("analyzer", "recursion", "poly", "arith", "methods", "cli")
COUNTED_METHODS = (("arith", "IntervalScalar", "mul"),)
COUNTED_FUNCTIONS = frozenset(
    ("poly.is_zero", "poly.strip", "poly.degree", "poly.sign_of", "arith.digits_to_bits")
)
# per-layer metrics read from the function table: (function, field)
TABLE_METRICS = (
    ("analyzer.check_scb", "calls"),
    ("analyzer.check_scb", "self_s"),
    ("analyzer.in_stability_interior", "calls"),
    ("analyzer.in_stability_interior", "s"),
    ("analyzer.verify_against_poly", "s"),
    ("analyzer.scb_exists", "s"),
    ("recursion.closed_form", "calls"),
    ("recursion.closed_form", "self_s"),
    ("recursion.tail_certificate", "s"),
    ("recursion.run_mu_signs", "s"),
    ("recursion.mu_prefix", "calls"),
    ("recursion.mu_prefix", "s"),
    ("recursion.tau_prefix", "s"),
    ("recursion.mu_gamma_numerators", "s"),
    ("poly.all_roots_strictly_inside", "calls"),
    ("poly.all_roots_strictly_inside", "s"),
    ("poly.enclose_all_roots", "calls"),
    ("poly.enclose_all_roots", "s"),
    ("poly.isolate_real_roots", "s"),
    ("poly.count_real_roots", "s"),
    ("poly.unit_circle_roots", "s"),
    ("cli.main", "s"),
    ("cli.emit", "s"),
    ("methods.validate", "s"),
)


def _qualname(fn) -> str:
    return "{}.{}".format(fn.__module__.rsplit(".", 1)[-1], fn.__name__)


def _run_terms(args, kwargs, run) -> int:
    """Terms a run_mu_signs call evaluated (it may stop at the first negative)."""
    stop = kwargs.get("stop_at_negative", args[4] if len(args) > 4 else False)
    if stop and run.first_negative is not None:
        return run.first_negative
    return run.n_max


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        # per-call results the layer metrics are read from
        self.check_scb_digits: List[int] = []
        self.prefix_terms: Counter = Counter()
        self.sign_runs: List[Tuple[int, int, int]] = []  # (digits, terms, span id)
        self._installed: List[tuple] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn: Callable, on_return=None) -> Callable:
        nid = self._name_id(_qualname(fn))
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(idx, args, kwargs, result)
            return result

        return wrapper

    def _counted_generator(self, fn: Callable) -> Callable:
        name = _qualname(fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            for item in fn(*args, **kwargs):
                counts[name + ".items"] += 1
                yield item

        return wrapper

    def _counted(self, fn: Callable, name: str) -> Callable:
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self):
        def check_scb(idx, args, kwargs, verdict):
            self.check_scb_digits.append(verdict.digits_used)

        def prefix(name):
            def hook(idx, args, kwargs, values):
                self.prefix_terms[name] += len(values)

            return hook

        def run_mu_signs(idx, args, kwargs, run):
            self.sign_runs.append((run.digits, _run_terms(args, kwargs, run), idx))

        return {
            "analyzer.check_scb": check_scb,
            "recursion.mu_prefix": prefix("recursion.mu_prefix"),
            "recursion.tau_prefix": prefix("recursion.tau_prefix"),
            "recursion.run_mu_signs": run_mu_signs,
        }

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers: Dict[Callable, Callable] = {}
        hooks = self._hooks()
        for short in TRACED_MODULES:
            for name, obj in vars(sys.modules[PACKAGE + "." + short]).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj in wrappers:
                    continue
                if not obj.__module__.startswith(PACKAGE + "."):
                    continue
                qual = _qualname(obj)
                if inspect.isgeneratorfunction(obj):
                    wrappers[obj] = self._counted_generator(obj)
                elif qual in COUNTED_FUNCTIONS:
                    wrappers[obj] = self._counted(obj, qual)
                else:
                    wrappers[obj] = self._span(obj, hooks.get(qual))
        for mod_name, mod in sorted(sys.modules.items()):
            if not mod_name.startswith(PACKAGE + ".") or mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._installed.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        for short, cls_name, meth in COUNTED_METHODS:
            cls = getattr(sys.modules[PACKAGE + "." + short], cls_name)
            original = cls.__dict__[meth]
            wrapper = self._counted(original, "{}.{}.{}".format(short, cls_name, meth))
            for name, obj in list(cls.__dict__.items()):
                if obj is original:  # e.g. __mul__ = mul
                    self._installed.append((cls, name, obj))
                    setattr(cls, name, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, name, obj = self._installed.pop()
            setattr(owner, name, obj)

    # -- analysis -----------------------------------------------------------

    def function_table(self) -> Dict[str, Dict[str, float]]:
        """calls, inclusive seconds (outermost spans only) and self seconds
        per traced function."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        table = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        # spans are stored in start order, so a stack replay finds the
        # outermost span of each name (recursion counted once)
        open_spans: List[int] = []
        open_names: Counter = Counter()
        for i in range(n):
            nid = self.span_name[i]
            while open_spans and open_spans[-1] != self.span_parent[i]:
                open_names[self.span_name[open_spans.pop()]] -= 1
            row = table[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            if open_names[nid] == 0:
                row["s"] += dur[i]
            open_spans.append(i)
            open_names[nid] += 1
        return table

    def layer_metrics(self) -> Dict[str, float]:
        """The per-layer metrics the benchmark reports; a function that was
        never called reads 0."""
        table = self.function_table()
        out = {
            "{}.{}".format(fn, field): table[fn][field] if fn in table else 0
            for fn, field in TABLE_METRICS
        }
        # run_mu_signs milliseconds per 1000 terms, over the calls at the
        # highest precision of the run (the workload's own digits)
        top = max((d for d, _, _ in self.sign_runs), default=None)
        top_runs = [(t, self.span_end[i] - self.span_start[i]) for d, t, i in self.sign_runs if d == top]
        top_terms = sum(t for t, _ in top_runs)
        out.update({
            "analyzer.check_scb.digits_max": max(self.check_scb_digits, default=0),
            "recursion.run_mu_signs.terms": sum(t for _, t, _ in self.sign_runs),
            "recursion.run_mu_signs.ms_per_kterm":
                1e6 * sum(s for _, s in top_runs) / top_terms if top_terms else 0.0,
            "recursion.mu_prefix.terms": self.prefix_terms["recursion.mu_prefix"],
            "recursion.tau_prefix.terms": self.prefix_terms["recursion.tau_prefix"],
            "arith.IntervalScalar.mul.calls": self.counts["arith.IntervalScalar.mul.calls"],
            "arith.precision_ladder.rungs": self.counts["arith.precision_ladder.items"],
        })
        return out

    def write_spans(self, path: str) -> None:
        """Gzipped TSV: one line per span (id, name, start, end, parent), in
        start order, times in seconds of time.perf_counter."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    "{}\t{}\t{:.9f}\t{:.9f}\t{}\n".format(
                        i,
                        names[self.span_name[i]],
                        self.span_start[i],
                        self.span_end[i],
                        self.span_parent[i],
                    )
                )
