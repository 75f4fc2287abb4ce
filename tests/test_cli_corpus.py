"""Replay of the committed CLI corpus in tests/golden/cli_corpus.json.

Every case is an argv for `scbcert`, stored with its exit code and the
sha256 of its stdout once `timings` is removed from a JSON report; short
JSON reports are also stored in full. The replay names the first case
whose output or exit code differs.

The corpus changes only on purpose, after the new values are checked
independently. To regenerate it:

    PYTHONPATH=src python tests/test_cli_corpus.py --write

A change that may move certificate constants is first checked against the
source checkout it changes (for example a `git worktree` of the parent
commit):

    PYTHONPATH=src python tests/test_cli_corpus.py --compare OLD_SRC

runs every case on this tree and on OLD_SRC and fails unless each case
keeps its exit code and every field of its output, except that an exact
interval or bound may only tighten and tail `terms` may change order. It
lists every case that moved.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter
from fractions import Fraction

from scbcert import cli, methods

CORPUS = pathlib.Path(__file__).resolve().parent / "golden" / "cli_corpus.json"

# reports up to this many bytes are stored in full as well as by digest
FULL_TEXT_BYTES = 4096

# the longest case, replayed on its own: the 27000-term sign runs at 16000
# and 15000 digits (about 5 s)
LONG_CASES = (("reproduce", "--target", "remark-bdf4", "--with-insufficiency"),)


def cases():
    """Every argv of the corpus, in replay order."""
    out = []
    for name in methods.catalog_names():
        out += [("check", "--method", name, "--gamma", "{}/10".format(i)) for i in range(1, 31)]
        out.append(("tau", "--method", name))
        out.append(("tau", "--method", name, "--format", "csv", "--n", "60"))
        out.append(("gamma-sup", "--method", name, "--tol", "1e-9"))
        out.append(("mu-curve", "--method", name, "--n", "0..21", "--gamma", "0:2:1/37"))
    out.append(("gamma-sup", "--method", "bdf4", "--tol", "1e-40"))
    out.append(("gamma-sup", "--method", "bdf6", "--tol", "1e-40"))
    out.append(("gamma-sup", "--method", "bdf3", "--with-crossover"))
    return out + list(LONG_CASES)


def run_case(argv):
    """(exit code, stdout) of one in-process run, `timings` removed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    text = buf.getvalue()
    try:
        report = json.loads(text)
    except ValueError:
        return code, text
    report.pop("timings", None)
    return code, json.dumps(report, indent=2, sort_keys=True) + "\n"


def _entry(argv, code, text):
    entry = {
        "argv": list(argv),
        "exit": code,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }
    if text.startswith("{") and len(text) <= FULL_TEXT_BYTES:
        entry["text"] = text
    return entry


def _replay(long_cases):
    """Replay the stored cases that are (not) in LONG_CASES; fail at the
    first one whose exit code or output differs."""
    stored = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert [tuple(e["argv"]) for e in stored] == cases()
    for entry in stored:
        if (tuple(entry["argv"]) in LONG_CASES) != long_cases:
            continue
        code, text = run_case(entry["argv"])
        assert _entry(entry["argv"], code, text) == entry, (
            "first differing case: scbcert {}\nexit {} (stored {})\nnew output:\n{}".format(
                " ".join(entry["argv"]), code, entry["exit"], text[:4000]
            )
        )


def test_corpus_replays():
    _replay(long_cases=False)


def test_corpus_replays_slow_cases():
    _replay(long_cases=True)


# fields --compare lets tighten: [lo, hi] pairs may only shrink, lower
# bounds only rise and upper bounds only fall; everything else stays equal
INTERVAL_FIELDS = frozenset(("pair_modulus", "coeff_modulus"))
LOWER_BOUNDS = frozenset(("dominant_root_lb", "dominant_coeff_lb"))
UPPER_BOUNDS = frozenset(("dominant_root_ub", "residual_at_start", "others_modulus_max"))


def _exact(v):
    """The exact value of a bound: a fraction string or a rational field."""
    return Fraction(v["exact"] if isinstance(v, dict) else v)


def _moves(old, new, path="report"):
    """(path, why) for each difference between two reports that is not a
    tightened interval or bound or a reordering of tail terms."""
    key = path.rsplit(".", 1)[-1]
    if old == new:
        return []
    if key == "terms" and isinstance(old, list) and isinstance(new, list):
        def canon(terms):
            return Counter(json.dumps(t, sort_keys=True) for t in terms)

        return [] if canon(old) == canon(new) else [(path, "tail terms differ as a multiset")]
    if key in INTERVAL_FIELDS:
        (olo, ohi), (nlo, nhi) = (map(Fraction, old), map(Fraction, new))
        return [] if olo <= nlo <= nhi <= ohi else [(path, "interval not inside the old one")]
    if key in LOWER_BOUNDS:
        return [] if _exact(new) >= _exact(old) else [(path, "lower bound fell")]
    if key in UPPER_BOUNDS:
        return [] if _exact(new) <= _exact(old) else [(path, "upper bound rose")]
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return [m for k in sorted(old) for m in _moves(old[k], new[k], "{}.{}".format(path, k))]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        pairs = enumerate(zip(old, new))
        return [m for i, (a, b) in pairs for m in _moves(a, b, "{}[{}]".format(path, i))]
    return [(path, "changed")]


def compare(old_src):
    """Run every case here and under old_src (a source checkout, or its
    src directory); print the cases that moved and return how many moved
    in a way the corpus does not allow."""
    src = pathlib.Path(old_src).resolve()
    if (src / "src" / "scbcert").is_dir():
        src = src / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    dumped = subprocess.run(
        [sys.executable, __file__, "--dump"], env=env, check=True, capture_output=True, text=True
    ).stdout
    moved = bad = 0
    for argv, (old_code, old_text) in zip(cases(), json.loads(dumped)):
        code, text = run_case(argv)
        if (code, text) == (old_code, old_text):
            continue
        moved += 1
        if code != old_code:
            found = [("exit", "{} instead of {}".format(code, old_code))]
        else:
            try:
                found = _moves(json.loads(old_text), json.loads(text))
            except ValueError:
                found = [("output", "changed")]
        bad += bool(found)
        print("{} scbcert {}".format("FAIL" if found else "moved", " ".join(argv)))
        for path, why in found:
            print("    {}: {}".format(path, why))
    print("{} of {} cases moved, {} not allowed".format(moved, len(cases()), bad))
    return bad


def test_compare_lets_bounds_only_tighten():
    old = {
        "status": "infeasible",
        "evidence": {"pair_modulus": ["1/3", "2/3"], "others_modulus_max": "1/2"},
        "tail": {"dominant_root_lb": {"exact": "1/4"}, "terms": [{"weight": 1}, {"weight": 2}]},
    }

    def edited(path, value):
        new = json.loads(json.dumps(old))
        *parents, last = path
        node = new
        for k in parents:
            node = node[k]
        node[last] = value
        return new

    tighter = [
        (("evidence", "pair_modulus"), ["2/5", "3/5"]),
        (("evidence", "others_modulus_max"), "1/3"),
        (("tail", "dominant_root_lb"), {"exact": "1/3"}),
        (("tail", "terms"), [{"weight": 2}, {"weight": 1}]),
    ]
    looser = [
        (("evidence", "pair_modulus"), ["1/4", "3/5"]),
        (("evidence", "others_modulus_max"), "2/3"),
        (("tail", "dominant_root_lb"), {"exact": "1/5"}),
        (("tail", "terms"), [{"weight": 2}]),
        (("status",), "feasible"),
    ]
    for path, value in tighter:
        assert _moves(old, edited(path, value)) == [], path
    for path, value in looser:
        assert _moves(old, edited(path, value)), path


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--write"]:
        entries = []
        for argv in cases():
            entries.append(_entry(argv, *run_case(argv)))
            print(entries[-1]["exit"], " ".join(argv), flush=True)
        CORPUS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    elif args == ["--dump"]:
        json.dump([run_case(argv) for argv in cases()], sys.stdout)
    elif len(args) == 2 and args[0] == "--compare":
        sys.exit(1 if compare(args[1]) else 0)
    else:
        sys.exit(
            "usage: PYTHONPATH=src python tests/test_cli_corpus.py --write | --compare OLD_SRC"
        )
