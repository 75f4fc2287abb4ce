"""Replay of the committed CLI corpus in tests/golden/cli_corpus.json.

Every case is an argv for `scbcert`, stored with its exit code and the
sha256 of its stdout once `timings` is removed from a JSON report; short
JSON reports are also stored in full. The replay names the first case
whose output or exit code differs.

The corpus changes only on purpose, after the new values are checked
independently. To regenerate it:

    PYTHONPATH=src python tests/test_cli_corpus.py --write
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_corpus.py --write")
    entries = []
    for argv in cases():
        entries.append(_entry(argv, *run_case(argv)))
        print(entries[-1]["exit"], " ".join(argv), flush=True)
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
