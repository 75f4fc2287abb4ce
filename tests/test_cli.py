import contextlib
import io
import json
import os
import tracemalloc
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scbcert import analyzer, cli, methods, published, recursion
from scbcert.cli import (
    EXIT_FEASIBLE,
    EXIT_INCONCLUSIVE,
    EXIT_INFEASIBLE,
    EXIT_USAGE,
    fraction_decimal,
    fraction_str,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestFormatting:
    def test_fraction_str(self):
        assert fraction_str(F(1, 2)) == "1/2"
        assert fraction_str(F(5)) == "5"
        assert fraction_str(F(-2, 3)) == "-2/3"

    def test_fraction_decimal(self):
        assert fraction_decimal(F(1, 2), 4) == "0.5000"
        assert fraction_decimal(F(-1, 3), 6) == "-0.333333"
        assert fraction_decimal(F(84, 529), 5) == "0.15879"


class TestCheckCommand:
    def test_ab4_exit_one(self, capsys):
        code, rep = run_json(capsys, "check", "--method", "ab4", "--gamma", "1/100")
        assert code == EXIT_INFEASIBLE
        assert rep["status"] == "infeasible"
        assert rep["evidence"]["n"] == 2

    def test_bdf2_feasible(self, capsys):
        code, rep = run_json(capsys, "check", "--method", "bdf2", "--gamma", "0.5")
        assert code == EXIT_FEASIBLE
        assert rep["status"] == "feasible"
        assert rep["gamma"]["exact"] == "1/2"

    def test_decimal_gamma_is_exact(self, capsys):
        code, rep = run_json(capsys, "check", "--method", "bdf4", "--gamma", "0.48625",
                             "--horizon", "8")
        assert rep["gamma"]["exact"] == "389/800"

    def test_parse_error(self, capsys):
        code = main(["check", "--method", "bdf2", "--gamma", "zebra"])
        assert code == EXIT_USAGE

    def test_unknown_method(self, capsys):
        code = main(["check", "--method", "bdf9", "--gamma", "1/2"])
        assert code == EXIT_USAGE

    def test_nonpositive_gamma(self, capsys):
        code = main(["check", "--method", "bdf2", "--gamma", "-1/2"])
        assert code == EXIT_USAGE


class TestDeterminism:
    def test_identical_reports_modulo_timings(self, capsys):
        _, rep1 = run_json(capsys, "check", "--method", "ab3", "--gamma", "1/10")
        _, rep2 = run_json(capsys, "check", "--method", "ab3", "--gamma", "1/10")
        rep1.pop("timings")
        rep2.pop("timings")
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


class TestGammaSupCommand:
    def test_ab2(self, capsys):
        code, rep = run_json(
            capsys, "gamma-sup", "--method", "ab2", "--tol", "1e-12"
        )
        assert code == EXIT_FEASIBLE
        lo = F(rep["enclosure"]["lo"]["exact"])
        hi = F(rep["enclosure"]["hi"]["exact"])
        assert lo <= F(4, 9) <= hi
        assert hi - lo <= F(1, 10**12)
        assert rep["poly_check"] == "confirmed"
        assert rep["mechanism"] == "simple_root"
        # how the bisection went is reported under timings only
        steps = rep["timings"]["bisection_steps"]
        assert steps["guessed"] > 0 and steps["certified"] >= 0
        assert "guessed" not in json.dumps({k: v for k, v in rep.items() if k != "timings"})

    def test_bdf4_crossover_bracket(self, capsys):
        # the optimum is the crossover itself, so the bracket holds it
        code, rep = run_json(
            capsys, "gamma-sup", "--method", "bdf4", "--tol", "1e-9", "--with-crossover"
        )
        assert code == EXIT_FEASIBLE
        cb = rep["crossover_bound"]
        assert F(cb["lo"]["exact"]) <= F("0.486220284043") <= F(cb["hi"]["exact"])

    def test_ab4_none_positive(self, capsys):
        code, rep = run_json(capsys, "gamma-sup", "--method", "ab4")
        assert code == EXIT_FEASIBLE
        assert rep["mechanism"] == "none_positive"
        assert rep["enclosure"] is None


class TestTauCommand:
    def test_ebdf3_values(self, capsys):
        code, rep = run_json(capsys, "tau", "--method", "ebdf3", "--n", "3")
        assert code == EXIT_FEASIBLE
        assert rep["values"]["1"]["exact"] == "18/11"
        assert rep["values"]["2"]["exact"] == "126/121"
        assert rep["values"]["3"]["exact"] == "1212/1331"
        assert rep["existence"] == "exists"

    def test_ebdf4_prefix(self, capsys):
        code, rep = run_json(capsys, "tau", "--method", "ebdf4", "--n", "10")
        assert rep["values"]["4"]["exact"] == "366516/390625"
        assert rep["existence"] == "exists"
        assert rep["n0"] == 1

    def test_ab1_constant(self, capsys):
        code, rep = run_json(capsys, "tau", "--method", "ab1", "--n", "5")
        assert all(rep["values"][str(n)]["exact"] == "1" for n in range(1, 6))

    def test_ab4_not_exists_exit(self, capsys):
        code, rep = run_json(capsys, "tau", "--method", "ab4", "--n", "4")
        assert code == EXIT_INFEASIBLE
        assert rep["existence"] == "not_exists"

    def test_parses_share_no_state(self, capsys):
        # the parser is built once per process; each run parses afresh
        code, rep = run_json(capsys, "tau", "--method", "bdf3", "--n", "3")
        assert sorted(rep["values"], key=int) == ["1", "2", "3"]
        code, rep = run_json(capsys, "tau", "--method", "bdf3")
        assert sorted(rep["values"], key=int) == [str(n) for n in range(1, 11)]
        assert cli.build_parser() is cli.build_parser()

    def test_csv_output(self, capsys):
        code, out = run_cli(capsys, "tau", "--method", "ebdf3", "--n", "2",
                            "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "n,value,sign"
        assert lines[1] == "1,18/11,positive"


@st.composite
def _curve_args(draw):
    """A catalog method, an index range, a grid start:end:step and maybe a
    marker; the grid starts at 0 or above and has up to 6 points."""
    name = draw(st.sampled_from(methods.catalog_names()))
    n_hi = draw(st.integers(0, 25))
    n_lo = draw(st.integers(0, n_hi))
    start = draw(st.sampled_from([F(0), F(1)]))
    start += draw(st.builds(F, st.integers(0, 50), st.integers(1, 40)))
    step = draw(st.builds(F, st.integers(1, 30), st.integers(1, 20)))
    end = start + step * draw(st.integers(0, 5))
    mark = draw(st.one_of(st.none(), st.builds(F, st.integers(0, 90), st.integers(1, 60))))
    return name, n_lo, n_hi, [start, end, step], mark


class TestMuCurveCommand:
    def test_bdf1_values(self, capsys):
        code, out = run_cli(
            capsys, "mu-curve", "--method", "bdf1",
            "--n", "1..3", "--gamma", "0:2:1/2",
        )
        assert code == EXIT_FEASIBLE
        lines = out.strip().splitlines()
        assert lines[0] == "gamma,n,value,marker"
        rows = [ln.split(",") for ln in lines[1:]]
        for g_s, n_s, v_s, _mark in rows:
            g, n, v = F(g_s), int(n_s), F(v_s)
            assert v == 1 / (g + 1) ** (n + 1)
        gammas = {r[0] for r in rows}
        assert gammas == {"0", "1/2", "1", "3/2", "2"}

    def test_marker_rows(self, capsys):
        code, out = run_cli(
            capsys, "mu-curve", "--method", "bdf1",
            "--n", "1..2", "--gamma", "0:1:1",
            "--mark-gamma", "1/3",
        )
        marked = [ln for ln in out.splitlines() if ln.endswith(",mark")]
        assert len(marked) == 2

    def test_empty_grid_is_usage_error(self, capsys):
        code = main(["mu-curve", "--method", "bdf1", "--n", "1..3",
                     "--gamma", "2:1:1/2"])
        assert code == EXIT_USAGE

    def test_output_file_equals_stdout_across_blocks(self, capsys, tmp_path):
        # 2B + 11 grid points and a marker: two full blocks and a partial one
        B = recursion._SWEEP_BLOCK
        argv = ["mu-curve", "--method", "bdf3", "--n", "0..9",
                "--gamma", "1/9:{}/9:1/9".format(2 * B + 11), "--mark-gamma", "5/6"]
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_FEASIBLE
        assert len(out.splitlines()) == 1 + (2 * B + 12) * 10
        path = tmp_path / "curve.csv"
        assert main(argv + ["--output", str(path)]) == EXIT_FEASIBLE
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == out.encode("utf-8")

    def test_streams_without_holding_the_csv(self, capsys):
        # about 2000 grid points by 21 indices give about 3 MB of CSV; rows
        # are written one block at a time, so far less is ever held
        argv = ["mu-curve", "--method", "bdf5", "--n", "1..21",
                "--gamma", "0:2:1/1000", "--output", os.devnull]
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_FEASIBLE
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @settings(max_examples=80, deadline=None)
    @given(_curve_args())
    @example(("ab1", 0, 8, [F(0), F(3), F(1)], F(1)))  # E = 1; mu_n = 0 at gamma = 1, n >= 2
    @example(("bdf1", 1, 5, [F(0), F(0), F(1)], None))  # gamma = 0 alone
    def test_rows_equal_fraction_str_of_mu_prefix(self, case):
        name, n_lo, n_hi, (start, end, step), mark = case
        argv = ["mu-curve", "--method", name, "--n", "{}..{}".format(n_lo, n_hi),
                "--gamma", ":".join(fraction_str(x) for x in (start, end, step))]
        if mark is not None:
            argv += ["--mark-gamma", fraction_str(mark)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == EXIT_FEASIBLE
        m = methods.catalog(name)
        expected = ["gamma,n,value,marker"]
        gammas = [start + i * step for i in range((end - start) // step + 1)]
        for g, tag in [(g, "") for g in gammas] + ([(mark, "mark")] if mark is not None else []):
            mus = recursion.mu_prefix(m, g, n_hi)
            expected += ["{},{},{},{}".format(fraction_str(g), n, fraction_str(mus[n]), tag)
                         for n in range(n_lo, n_hi + 1)]
        assert buf.getvalue() == "\n".join(expected) + "\n"


def never(*args, **kwargs):
    raise AssertionError("computed before the format was checked")


class TestFormatChoices:
    @pytest.mark.parametrize("argv", [
        ["check", "--method", "bdf2", "--gamma", "1/2", "--format", "csv"],
        ["gamma-sup", "--method", "bdf4", "--tol", "1e-7", "--format", "csv"],
    ])
    def test_csv_refused_before_computing(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(analyzer, "check_scb", never)
        monkeypatch.setattr(analyzer, "gamma_sup", never)
        assert main(argv) == EXIT_USAGE

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_mu_curve_is_csv_only(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(recursion, "mu_sweep", never)
        code = main(["mu-curve", "--method", "bdf2", "--n", "1..2",
                     "--gamma", "0:1:1/2", "--format", fmt])
        assert code == EXIT_USAGE

    def test_mu_curve_default_is_csv(self, capsys):
        argv = ["mu-curve", "--method", "bdf2", "--n", "1..2", "--gamma", "0:1:1/2"]
        code, default = run_cli(capsys, *argv)
        assert code == EXIT_FEASIBLE
        assert run_cli(capsys, *argv, "--format", "csv") == (code, default)
        assert default.splitlines()[0] == "gamma,n,value,marker"


class TestNumericInput:
    """Bad numbers from outside are usage errors (exit 10, an `error:` line),
    refused before any computation."""

    @pytest.mark.parametrize("flag", ["--precision", "--horizon", "--precision-cap"])
    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_check_refuses_bad_counts(self, capsys, monkeypatch, flag, value):
        monkeypatch.setattr(analyzer, "check_scb", never)
        code = main(["check", "-m", "bdf2", "-g", "1/3", flag, value])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", "-5"])
    def test_bad_precision_cap_env(self, capsys, monkeypatch, value):
        monkeypatch.setenv(cli.PRECISION_CAP_ENV, value)
        monkeypatch.setattr(analyzer, "check_scb", never)
        code = main(["check", "-m", "bdf2", "-g", "1/3"])
        assert code == EXIT_USAGE
        assert "error: {}".format(cli.PRECISION_CAP_ENV) in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["check", "-g", "1/3"], ["gamma-sup"], ["tau"]])
    def test_precision_above_the_cap(self, capsys, monkeypatch, command):
        for name in ("check_scb", "gamma_sup", "scb_exists"):
            monkeypatch.setattr(analyzer, name, never)
        monkeypatch.setattr(recursion, "tau_prefix", never)
        argv = command[:1] + ["-m", "bdf2"] + command[1:]
        assert main(argv + ["--precision", "100", "--precision-cap", "10"]) == EXIT_USAGE
        assert "exceeds the precision cap 10" in capsys.readouterr().err
        monkeypatch.setenv(cli.PRECISION_CAP_ENV, "32")
        assert main(argv) == EXIT_USAGE
        assert "--precision 64 exceeds the precision cap 32" in capsys.readouterr().err

    def test_precision_cap_is_passed_on(self, capsys, monkeypatch):
        seen = []

        def check_scb(m, gamma, horizon, digits, digits_cap):
            seen.append(digits_cap)
            return real_check_scb(m, gamma, horizon, digits, digits_cap)

        real_check_scb = analyzer.check_scb
        monkeypatch.setenv(cli.PRECISION_CAP_ENV, "256")
        monkeypatch.setattr(analyzer, "check_scb", check_scb)
        main(["check", "-m", "bdf2", "-g", "1/3", "--precision-cap", "128"])
        main(["check", "-m", "bdf2", "-g", "1/3"])
        assert seen == [128, 256]

    def test_tau_uses_the_horizon(self, capsys):
        code, rep = run_json(capsys, "tau", "--method", "ebdf3", "--horizon", "100")
        assert code == EXIT_FEASIBLE
        assert rep["evidence"]["checked_through"] == 100
        _, rep = run_json(capsys, "tau", "--method", "ebdf3")
        assert rep["evidence"]["checked_through"] == 64

    @pytest.mark.parametrize("flag", ["--horizon", "--precision", "--precision-cap"])
    def test_mu_curve_offers_no_certification_options(self, capsys, monkeypatch, flag):
        monkeypatch.setattr(recursion, "mu_prefix", never)
        code = main(["mu-curve", "--method", "bdf2", "--n", "1..2",
                     "--gamma", "0:1:1/2", flag, "100"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("n", ["abc", "1..x", "1.."])
    def test_mu_curve_bad_index_range(self, capsys, monkeypatch, n):
        monkeypatch.setattr(recursion, "mu_prefix", never)
        code = main(["mu-curve", "--method", "bdf2", "--n", n, "--gamma", "0:1:1/2"])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "gamma", ["--gamma=-1:0:1", "--gamma=-3/2:0:1/2", "--mark-gamma=-3/2"]
    )
    def test_mu_curve_refuses_negative_gamma(self, capsys, monkeypatch, gamma):
        # the paper's domain is gamma >= 0; a negative grid start or marker
        # once printed values, or failed as an internal error
        monkeypatch.setattr(recursion, "mu_prefix", never)
        argv = ["mu-curve", "--method", "bdf2", "--n", "1..2", gamma]
        if not gamma.startswith("--gamma"):
            argv.append("--gamma=0:1:1/2")
        assert main(argv) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err


class TestTauTimingAndReuse:
    def test_timer_covers_prefix_and_csv_reuses_it(self, capsys, monkeypatch):
        clock = [0.0]
        calls = []
        real_tau_prefix = recursion.tau_prefix

        def slow_tau_prefix(m, n_max):
            calls.append(n_max)
            clock[0] += 5.0
            return real_tau_prefix(m, n_max)

        # only the command's own prefix advances the clock; scb_exists keeps
        # its own binding of tau_prefix
        monkeypatch.setattr(cli, "time", SimpleNamespace(time=lambda: clock[0]))
        monkeypatch.setattr(cli, "recursion", SimpleNamespace(
            tau_prefix=slow_tau_prefix, prefix_csv_rows=recursion.prefix_csv_rows))
        code, rep = run_json(capsys, "tau", "--method", "ebdf3", "--n", "3")
        assert code == EXIT_FEASIBLE
        assert rep["timings"]["seconds"] >= 5.0
        assert calls == [3]

        calls.clear()
        code, out = run_cli(capsys, "tau", "--method", "ebdf3", "--n", "3",
                            "--format", "csv")
        assert code == EXIT_FEASIBLE
        assert calls == [3]
        assert out.strip().splitlines() == [
            "n,value,sign", "1,18/11,positive", "2,126/121,positive", "3,1212/1331,positive",
        ]


class TestCatalogCommand:
    def test_lists_all(self, capsys):
        code, rep = run_json(capsys, "catalog")
        names = [row["name"] for row in rep["methods"]]
        assert len(names) == 13
        assert "ebdf4" in names


class TestCustomMethodFile:
    def test_check_from_file(self, capsys, tmp_path):
        path = tmp_path / "bdf2_clone.json"
        path.write_text(json.dumps({
            "k": 2, "a": ["4/3", "-1/3"], "b": ["2/3", "0", "0"],
            "name": "bdf2-clone",
        }))
        code, rep = run_json(capsys, "check", "--method", str(path),
                             "--gamma", "1/2")
        assert code == EXIT_FEASIBLE
        assert rep["method"] == "bdf2-clone"

    @pytest.mark.parametrize("horizon", ["1", "2"])
    def test_order_zero_witness_past_a_short_horizon(self, capsys, tmp_path, horizon):
        # the closed form at gamma = 2 has order 0, and mu_2 = -1/8
        path = tmp_path / "order0.json"
        path.write_text(json.dumps({
            "k": 2, "a": ["4/3", "-1/3"], "b": ["1/6", "2/3", "-1/6"], "name": "order0",
        }))
        code, rep = run_json(capsys, "check", "--method", str(path), "--gamma", "2",
                             "--horizon", horizon)
        assert code == EXIT_INFEASIBLE
        assert (rep["evidence"]["n"], rep["evidence"]["value"]) == (2, "-1/8")

    def test_invalid_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "k": 2, "a": ["2", "-1"], "b": ["0", "1", "0"], "name": "bad",
        }))
        code = main(["check", "--method", str(path), "--gamma", "1/2"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "text",
        [
            None,  # no such file
            '{"k": 1,',
            '[1, ["1"], ["1", "0"]]',
            '{"k": 1, "a": 5, "b": ["1", "0"]}',
            '{"k": 1, "a": ["1"], "b": "10"}',
            '{"k": 1.7, "a": ["1"], "b": ["1", "0"]}',
            '{"k": "3/2", "a": ["1"], "b": ["1", "0"]}',
            '{"k": true, "a": ["1"], "b": ["1", "0"]}',
            '{"a": ["1"], "b": ["1", "0"]}',
            '{"k": 1, "a": ["x"], "b": ["1", "0"]}',
            b'{"k": 1, "name": "\xff"}',
        ],
        ids=[
            "missing", "truncated", "list", "a-not-list", "b-not-list", "k-float",
            "k-fraction", "k-bool", "no-k", "bad-fraction", "not-utf8",
        ],
    )
    def test_bad_method_file_is_a_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "m.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        code = main(["check", "--method", str(path), "--gamma", "1/2"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert any(line.startswith("error: ") for line in err.splitlines()), err


class TestExitCodes:
    def test_bdf1_large_gamma_feasible(self, capsys):
        code, rep = run_json(capsys, "check", "--method", "bdf1",
                             "--gamma", "1000000")
        assert code == EXIT_FEASIBLE
        assert rep["status"] == "feasible"

    def test_inconclusive_existence(self, capsys, tmp_path):
        # two unit-circle roots: the existence corollary is silent
        path = tmp_path / "ms.json"
        path.write_text(json.dumps({
            "k": 2, "a": ["0", "1"], "b": ["1/3", "4/3", "1/3"],
            "name": "milne-simpson",
        }))
        code, rep = run_json(capsys, "tau", "--method", str(path), "--n", "6", "--precision", "100")
        assert code == EXIT_INCONCLUSIVE == 2
        assert rep["existence"] == "inconclusive"
        assert rep["only_circle_root_is_one"] is False
        # no rung ran: the evidence names the ladder's first rung, which
        # the CLI's cap check keeps at --precision
        assert rep["evidence"]["digits"] == 100


class TestReproduceCommand:
    def test_theorem_2_4(self, capsys):
        code, rep = run_json(capsys, "reproduce", "--target", "theorem-2.4")
        assert code == EXIT_FEASIBLE
        assert rep["pass"] is True
        rows = {r["method"]: r for r in rep["rows"]}
        assert rows["ab2"]["expected"] == "4/9"
        assert rows["ab3"]["expected"] == "84/529"
        assert all(r["pass"] for r in rep["rows"])

    def test_theorem_2_1(self, capsys):
        code, rep = run_json(capsys, "reproduce", "--target", "theorem-2.1")
        assert code == EXIT_FEASIBLE
        assert all(r["pass"] for r in rep["rows"])
        assert all(r.get("residual_leq_9_tenths") for r in rep["rows"])

    def test_theorem_2_2(self, capsys):
        code, rep = run_json(capsys, "reproduce", "--target", "theorem-2.2")
        assert code == EXIT_FEASIBLE
        rows = {r["method"]: r for r in rep["rows"]}
        assert rows["bdf1"]["expected"] == "unbounded"
        assert all(r["pass"] for r in rep["rows"])
        assert rows["bdf5"]["poly_check"] == "confirmed"

    def test_remark_bdf4_exact_row(self, capsys, monkeypatch):
        # the 16000-digit interval run is criterion 5's; stand in for it so
        # the exact 27000-term row is checked on its own
        data = published.BDF4_WITNESS_RUN

        def interval_run(m, gamma, n_max, digits):
            return recursion.IntervalRun(n_max, digits, list(data["negative_indices"]))

        monkeypatch.setattr(recursion, "run_mu_signs", interval_run)
        code, rep = run_json(capsys, "reproduce", "--target", "remark-bdf4")
        assert code == EXIT_FEASIBLE and rep["pass"] is True
        assert len(rep["rows"]) == 2
        exact = rep["rows"][-1]
        assert exact["arithmetic"] == "exact integer-scaled recurrence"
        assert exact["gamma"] == "389/800"
        assert exact["computed_negative"] == list(data["negative_indices"])
        assert exact["pass"] is True

    def test_unknown_target(self, capsys):
        code = main(["reproduce", "--target", "theorem-9.9"])
        assert code == EXIT_USAGE
