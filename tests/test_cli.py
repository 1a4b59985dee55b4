"""End-to-end command line behavior: artifacts, exit codes, determinism."""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from mhrfit import cli, inference, mhr_estimator
from mhrfit.mhr_estimator import fit_theta
from mhrfit.simulation import SCENARIOS, generate_dataset, make_scenario
from mhrfit.survival_core import StepFunction


def write_sample_csv(path, n=80, seed=3, scenario="linear"):
    sample = generate_dataset(make_scenario(scenario), n, 0.5, seed=seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time,status,arm\n")
        for t, d, a in zip(sample.time.tolist(), sample.status.tolist(),
                           sample.arm.tolist()):
            fh.write(f"{t!r},{d},{a}\n")
    return path


def write_mass_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("support,mass\n")
        for support, mass in rows:
            fh.write(f"{support},{mass}\n")
    return path


@pytest.fixture()
def sample_csv(tmp_path):
    return write_sample_csv(tmp_path / "data.csv")


class TestEstimate:
    def test_artifacts_and_roundtrip(self, tmp_path, sample_csv):
        out = tmp_path / "run"
        code = cli.main(["estimate", "--input", str(sample_csv),
                         "--out", str(out), "--chernoff-reps", "300"])
        assert code == 0
        for name in ("fit.json", "ci.csv", "theta.svg", "manifest.json"):
            assert (out / name).is_file()

        fit_text = (out / "fit.json").read_text()
        payload = json.loads(fit_text)
        assert fit_text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert payload["gamma_n"] > 0
        assert payload["theta"]["values"] \
            == sorted(payload["theta"]["values"])

        lines = (out / "ci.csv").read_text().strip().split("\n")
        assert lines[0] == "x,estimate,lower,upper,method"
        assert len(lines) == 10  # auto grid: nine interior deciles
        for line in lines[1:]:
            x, est, lo, hi, method = line.split(",")
            assert method == "plugin"
            assert float(lo) <= float(est) <= float(hi)

        ET.fromstring((out / "theta.svg").read_text())

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "estimate"
        assert manifest["seed"] == 0
        assert manifest["inputs"] == [str(sample_csv)]
        assert len(manifest["outputs"]) == 3
        assert manifest["flags"]["ci"] == "plugin"
        assert manifest["version"]

    def test_repeat_runs_byte_identical(self, tmp_path, sample_csv):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["estimate", "--input", str(sample_csv),
                             "--out", str(out),
                             "--chernoff-reps", "300"]) == 0
            outs.append(out)
        for name in ("fit.json", "ci.csv", "theta.svg"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_both_interval_kinds(self, tmp_path, sample_csv):
        out = tmp_path / "run"
        code = cli.main(["estimate", "--input", str(sample_csv),
                         "--out", str(out), "--ci", "both",
                         "--grid", "0.4,0.8", "--chernoff-reps", "300"])
        assert code == 0
        lines = (out / "ci.csv").read_text().strip().split("\n")[1:]
        assert [row.split(",")[-1] for row in lines] \
            == ["plugin", "plugin", "split", "split"]

    def test_clamp_extends_flat(self, tmp_path, sample_csv, capsys):
        out = tmp_path / "noclamp"
        assert cli.main(["estimate", "--input", str(sample_csv),
                         "--out", str(out), "--grid", "0.5,3.0",
                         "--chernoff-reps", "300"]) == 0
        assert "beyond truncation time" in capsys.readouterr().err
        rows = (out / "ci.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 1

        out2 = tmp_path / "clamp"
        assert cli.main(["estimate", "--input", str(sample_csv),
                         "--out", str(out2), "--grid", "0.5,3.0", "--clamp",
                         "--chernoff-reps", "300"]) == 0
        rows = (out2 / "ci.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 2
        x, est, lo, hi, _ = rows[1].split(",")
        fit = json.loads((out2 / "fit.json").read_text())
        assert float(x) == 3.0
        assert float(est) == fit["theta"]["values"][-1]
        assert lo == "" and hi == ""

    def test_missing_input(self, tmp_path, capsys):
        code = cli.main(["estimate", "--input", str(tmp_path / "nope.csv"),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_header(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,event,arm\n1.0,1,0\n")
        assert cli.main(["estimate", "--input", str(bad),
                         "--out", str(tmp_path / "o")]) == 2
        assert "header must be exactly" in capsys.readouterr().err

    @pytest.mark.parametrize("row,message", [
        ("abc,1,0", "could not convert string to float: 'abc'"),
        ("-1,1,0", "time must be finite and nonnegative, got -1.0"),
        ("nan,1,0", "time must be finite and nonnegative, got nan"),
        ("2.0,2,1", "status must be 0 or 1, got 2"),
        ("2.0,1,1.0", "invalid literal for int() with base 10: '1.0'")],
        ids=["time-abc", "time-negative", "time-nan", "status-2", "arm-1.0"])
    def test_malformed_row_reports_line(self, tmp_path, capsys, row, message):
        # the blank line makes the file line differ from the data index + 2
        bad = tmp_path / "bad.csv"
        bad.write_text(f"time,status,arm\n1.0,1,0\n\n{row}\n3.0,0,1\n")
        assert cli.main(["estimate", "--input", str(bad),
                         "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err \
            == f"error: {bad}: line 4: {message}\n"

    def test_degenerate_fit_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "degenerate.csv"
        bad.write_text("time,status,arm\n1.0,1,0\n2.0,1,0\n"
                       "3.0,1,1\n4.0,1,1\n")
        assert cli.main(["estimate", "--input", str(bad),
                         "--out", str(tmp_path / "o")]) == 3
        assert "degenerate" in capsys.readouterr().err

    def test_plugin_search_failure_keeps_estimates(self, tmp_path, capsys):
        # the pinned sample whose plug-in bandwidth search is infeasible
        data = write_sample_csv(tmp_path / "infeasible.csv", n=500,
                                seed=(0, 0))
        out = tmp_path / "run"
        assert cli.main(["estimate", "--input", str(data), "--out", str(out),
                         "--ci", "plugin", "--chernoff-reps", "200",
                         "--chernoff-cache",
                         str(tmp_path / "chernoff.json")]) == 0
        err = capsys.readouterr().err
        rows = [row.split(",") for row in
                (out / "ci.csv").read_text().strip().split("\n")[1:]]
        assert len(rows) == 9
        for x, est, lo, hi, method in rows:
            assert method == "plugin"
            assert est != "" and lo == "" and hi == ""
            assert (f"warning: no plugin interval at x={float(x)}: "
                    "all candidates infeasible\n") in err
        assert err.count("all candidates infeasible") == 9

    def test_split_failure_keeps_estimates(self, tmp_path, capsys):
        # one of the 20 splits truncates at 0.856, so only x=0.5 has an
        # interval; the other rows fall back to the full-sample estimate
        data = write_sample_csv(tmp_path / "short.csv", n=300, seed=(2, 2))
        fit = fit_theta(generate_dataset(make_scenario("linear"), 300, 0.5,
                                         seed=(2, 2)))
        out = tmp_path / "run"
        assert cli.main(["estimate", "--input", str(data), "--out", str(out),
                         "--ci", "split", "--splits", "20",
                         "--grid", "0.5,1.0,1.3,1.45"]) == 0
        err = capsys.readouterr().err
        rows = [row.split(",") for row in
                (out / "ci.csv").read_text().strip().split("\n")[1:]]
        assert [row[0] for row in rows] == ["0.5", "1.0", "1.3", "1.45"]
        x, est, lo, hi, method = rows[0]
        assert method == "split" and float(lo) <= float(est) <= float(hi)
        for x, est, lo, hi, method in rows[1:]:
            assert method == "split" and lo == "" and hi == ""
            assert float(est) == fit.theta(float(x))
            assert err.count(f"warning: no split interval at x={float(x)}: "
                             "fewer than m usable splits") == 1
        assert err.count("warning:") == 3

    def test_chernoff_cache_in_new_directory(self, tmp_path, sample_csv):
        cache = tmp_path / "nodir" / "tab.json"
        assert cli.main(["estimate", "--input", str(sample_csv),
                         "--out", str(tmp_path / "o"), "--ci", "plugin",
                         "--chernoff-reps", "200",
                         "--chernoff-cache", str(cache)]) == 0
        assert json.loads(cache.read_text())["config"]["replications"] == 200

    def test_oversplit_exits_3(self, tmp_path, sample_csv, capsys):
        assert cli.main(["estimate", "--input", str(sample_csv),
                         "--out", str(tmp_path / "o"), "--ci", "split",
                         "--splits", "50"]) == 3
        assert "reduce m" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--rn", "soon"), ("--alpha", "1.5"), ("--alpha", "0"),
        ("--alpha", "0.001"), ("--grid", "nan"), ("--grid", "inf"),
        ("--chernoff-reps", "0"), ("--splits", "1"), ("--seed", "-1")])
    def test_bad_flag_exits_2(self, tmp_path, sample_csv, flag, value):
        assert cli.main(["estimate", "--input", str(sample_csv),
                         "--out", str(tmp_path / "o"), flag, value]) == 2


def refuse_to_read(path):
    raise AssertionError("the input was read before the flags were checked")


@pytest.mark.parametrize("argv,message", [
    (["estimate", "--grid", "abc"], "error: --grid: could not parse 'abc'\n"),
    (["estimate", "--grid", "nan"],
     "error: --grid: evaluation points must be finite\n"),
    (["estimate", "--rn", "soon"],
     "error: --rn must be 'auto' or a number, got 'soon'\n"),
    (["estimate", "--rn", "1.5"],
     "error: --rn: fraction must lie in (0, 1), got 1.5\n"),
    (["diagnose", "--rn", "soon"],
     "error: --rn must be 'auto' or a number, got 'soon'\n")],
    ids=["grid-text", "grid-nan", "estimate-rn", "estimate-rn-range",
         "diagnose-rn"])
def test_flags_checked_before_reading(tmp_path, sample_csv, capsys,
                                      monkeypatch, argv, message):
    monkeypatch.setattr(cli, "_read_sample", refuse_to_read)
    assert cli.main(argv + ["--input", str(sample_csv),
                            "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == message


def raise_memory_error(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("command", ["estimate", "diagnose"])
@pytest.mark.parametrize("target", ["read", "fit"])
def test_out_of_memory_is_one_line(tmp_path, sample_csv, capsys, monkeypatch,
                                   command, target):
    if target == "read":
        monkeypatch.setattr(np, "loadtxt", raise_memory_error)
    else:
        monkeypatch.setattr(cli, "fit_theta", raise_memory_error)
        monkeypatch.setattr(mhr_estimator, "fit_theta", raise_memory_error)
    assert cli.main([command, "--input", str(sample_csv),
                     "--out", str(tmp_path / "o")]) == 4
    captured = capsys.readouterr()
    assert captured.err == ("error: out of memory; the input is too large "
                            "for this machine\n")
    assert not (tmp_path / "o").exists()


TAIL = ("50.00,370.00 201.20,370.00 201.20,282.73 "
        "460.40,282.73 460.40,50.00 590.00,50.00")


class TestStepPlot:
    @pytest.mark.parametrize("knots,values,x_end,points", [
        ([0.7, 1.9], [0.3, 1.1], 2.5, TAIL),
        # ending on the last knot adds no flat tail
        ([0.7, 1.9], [0.3, 1.1], 1.9,
         "50.00,370.00 248.95,370.00 248.95,282.73 "
         "590.00,282.73 590.00,50.00"),
        # knots where the value stays put draw nothing of their own
        ([0.7, 1.2, 1.9], [0.3, 0.3, 1.1], 2.5, TAIL),
        ([0.7, 1.9, 2.5], [0.3, 1.1, 1.1], 2.5, TAIL)],
        ids=["tail", "no-tail", "flat-knot", "flat-last-knot"])
    def test_theta_polyline_coordinates(self, knots, values, x_end, points):
        theta = StepFunction(knots, values, 0.0)
        xs, ys = cli._step_points(theta.knots, theta.values,
                                  theta.value_at_zero, x_end)
        svg = cli._svg_render([{"x": xs, "y": ys}])
        assert re.findall(r'points="([^"]*)"', svg) == [points]


class TestDiagnose:
    def test_artifacts(self, tmp_path, sample_csv):
        out = tmp_path / "diag"
        assert cli.main(["diagnose", "--input", str(sample_csv),
                         "--out", str(out)]) == 0
        lines = (out / "diagnostic.csv").read_text().strip().split("\n")
        assert lines[0] == "lambda_T,lambda_S,hull"
        first = lines[1].split(",")
        assert first == ["0.0", "0.0", "0.0"]
        for line in lines[1:]:
            _, lam_s, hull = line.split(",")
            assert float(hull) <= float(lam_s) + 1e-12
        ET.fromstring((out / "diagnostic.svg").read_text())
        assert json.loads((out / "manifest.json").read_text())["command"] \
            == "diagnose"

    def test_convex_input_touches_everywhere(self, tmp_path):
        path = tmp_path / "same.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("time,status,arm\n")
            for t in (1.0, 2.0, 3.0):
                fh.write(f"{t},1,0\n{t},1,1\n")
        out = tmp_path / "diag"
        assert cli.main(["diagnose", "--input", str(path),
                         "--out", str(out)]) == 0
        for line in (out / "diagnostic.csv").read_text().strip().split("\n")[1:]:
            _, lam_s, hull = line.split(",")
            assert float(hull) == float(lam_s)

    def test_seed_flag_removed(self, tmp_path, sample_csv):
        with pytest.raises(SystemExit) as exc:
            cli.main(["diagnose", "--input", str(sample_csv),
                      "--out", str(tmp_path / "o"), "--seed", "1"])
        assert exc.value.code == 2


class TestSimulate:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "sim"
        code = cli.main(["simulate", "--scenario", "linear", "--n", "80",
                         "--reps", "2", "--grid", "0.8", "--methods", "split",
                         "--threads", "1", "--out", str(out)])
        assert code == 0
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert lines[0].startswith("method,x,n,")
        assert len(lines) == 2
        body = json.loads((out / "metrics.json").read_text())
        assert len(body["cells"]) == 1
        assert json.loads((out / "manifest.json").read_text())["command"] \
            == "simulate"

    def test_serial_parallel_identical(self, tmp_path):
        texts = []
        for threads, name in (("1", "s"), ("2", "p")):
            out = tmp_path / name
            assert cli.main(["simulate", "--scenario", "linear", "--n", "120",
                             "--reps", "8", "--grid", "0.6,1.0",
                             "--methods", "split", "--seed", "5",
                             "--threads", threads, "--out", str(out)]) == 0
            texts.append((out / "metrics.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_unknown_scenario_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--scenario", "cubic", "--n", "80",
                      "--reps", "1", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_scenario_choices_are_the_registry(self):
        commands = next(action for action in cli.build_parser()._actions
                        if action.dest == "command")
        scenario = next(action for action
                        in commands.choices["simulate"]._actions
                        if action.dest == "scenario")
        assert scenario.choices == tuple(SCENARIOS)
        assert all(make_scenario(name) is SCENARIOS[name]
                   for name in scenario.choices)

    def test_grid_outside_range(self, tmp_path, capsys):
        assert cli.main(["simulate", "--scenario", "linear", "--n", "80",
                         "--reps", "1", "--grid", "2.5", "--methods", "split",
                         "--threads", "1", "--out", str(tmp_path / "o")]) == 2
        assert "grid points must lie in (0, 2)" in capsys.readouterr().err

    def test_bad_method(self, tmp_path):
        assert cli.main(["simulate", "--scenario", "linear", "--n", "80",
                         "--reps", "1", "--methods", "magic",
                         "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("methods", [",", ""])
    def test_empty_method_list(self, tmp_path, capsys, methods):
        out = tmp_path / "o"
        assert cli.main(["simulate", "--scenario", "linear", "--n", "80",
                         "--reps", "1", "--methods", methods,
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --methods: empty list\n"
        assert not out.exists()

    def test_repeated_method(self, tmp_path, capsys, monkeypatch):
        def no_study(config):
            raise AssertionError("study ran")

        monkeypatch.setattr(cli, "run_study", no_study)
        out = tmp_path / "o"
        assert cli.main(["simulate", "--scenario", "linear", "--n", "80",
                         "--reps", "1", "--methods", "split,kernel,split",
                         "--threads", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: method 'split' repeated\n"
        assert not out.exists()

    def test_bad_sizes(self, tmp_path):
        assert cli.main(["simulate", "--scenario", "linear", "--n", "1",
                         "--reps", "1", "--out", str(tmp_path / "o")]) == 2
        assert cli.main(["simulate", "--scenario", "linear", "--n", "80",
                         "--reps", "0", "--out", str(tmp_path / "o")]) == 2

    def test_negative_seed(self, tmp_path):
        assert cli.main(["simulate", "--scenario", "linear", "--n", "80",
                         "--reps", "1", "--seed", "-1", "--threads", "1",
                         "--out", str(tmp_path / "o")]) == 2

    def test_alpha_beyond_table_refused_before_monte_carlo(self, tmp_path,
                                                           capsys,
                                                           monkeypatch):
        def no_simulation(config):
            raise AssertionError("Monte Carlo ran")

        monkeypatch.setattr(inference, "_simulate_chernoff", no_simulation)
        argv = ["simulate", "--scenario", "linear", "--n", "80", "--reps", "1",
                "--grid", "0.8", "--alpha", "0.001", "--threads", "1"]
        out = tmp_path / "o"
        assert cli.main(argv + ["--methods", "monotone,kernel",
                                "--out", str(out)]) == 2
        assert "too small for a plug-in interval" in capsys.readouterr().err
        assert not out.exists()
        # without the plug-in interval any alpha in (0, 1) is served
        assert cli.main(argv + ["--methods", "split",
                                "--out", str(out)]) == 0

    def test_chernoff_cache_reused(self, tmp_path):
        cache = tmp_path / "tab.json"
        argv = ["simulate", "--scenario", "linear", "--n", "80", "--reps", "1",
                "--grid", "0.8", "--methods", "monotone", "--threads", "1",
                "--chernoff-reps", "300", "--chernoff-cache", str(cache)]
        assert cli.main(argv + ["--out", str(tmp_path / "a")]) == 0
        stamp = os.stat(cache).st_mtime_ns
        assert cli.main(argv + ["--out", str(tmp_path / "b")]) == 0
        assert os.stat(cache).st_mtime_ns == stamp
        assert (tmp_path / "a" / "metrics.csv").read_bytes() \
            == (tmp_path / "b" / "metrics.csv").read_bytes()

    def test_chernoff_cache_in_new_directory(self, tmp_path):
        cache = tmp_path / "nodir" / "tab.json"
        assert cli.main(["simulate", "--scenario", "linear", "--n", "80",
                         "--reps", "1", "--grid", "0.8",
                         "--methods", "monotone", "--threads", "1",
                         "--chernoff-reps", "300", "--chernoff-cache",
                         str(cache), "--out", str(tmp_path / "o")]) == 0
        assert json.loads(cache.read_text())["config"]["replications"] == 300


class TestOrderCheck:
    def test_figure1_gallery(self, capsys):
        assert cli.main(["order-check", "--figure1"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert len(lines) == 5
        assert "weibull increasing ratio" in out
        assert "geometric constant ratio" in out
        for line in lines[1:3]:
            assert "mhr=True" in line and "st=False" in line
        for line in lines[3:5]:
            assert "lr=True" in line and "mhr=False" in line

    def test_two_files(self, tmp_path, capsys):
        a = write_mass_csv(tmp_path / "uniform.csv",
                           [(k, "0.2") for k in range(1, 6)])
        b = write_mass_csv(tmp_path / "slumped.csv",
                           [(1, "0.210"), (2, "0.209"), (3, "0.206"),
                            (4, "0.200"), (5, "0.175")])
        assert cli.main(["order-check", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        rows = {line.split()[0]: line.split()[1]
                for line in out.strip().split("\n")[1:]}
        assert rows == {"mhr": "False", "hr": "True", "st": "True",
                        "lr": "True"}

    def test_self_comparison_all_hold(self, tmp_path, capsys):
        a = write_mass_csv(tmp_path / "u.csv",
                           [(k, "0.25") for k in range(1, 5)])
        assert cli.main(["order-check", str(a), str(a)]) == 0
        out = capsys.readouterr().out
        assert out.count("True") == 4

    def test_near_one_mass_sum_normalized(self, tmp_path, capsys):
        a = write_mass_csv(tmp_path / "thirds.csv",
                           [(1, "0.3333333333"), (2, "0.3333333333"),
                            (3, "0.3333333333")])
        assert cli.main(["order-check", str(a), str(a)]) == 0
        assert capsys.readouterr().out.count("True") == 4

    def test_bad_mass_sum(self, tmp_path, capsys):
        a = write_mass_csv(tmp_path / "half.csv", [(1, "0.25"), (2, "0.25")])
        assert cli.main(["order-check", str(a), str(a)]) == 2
        assert "masses sum to" in capsys.readouterr().err

    def test_single_file_is_error(self, tmp_path):
        a = write_mass_csv(tmp_path / "u.csv", [(1, "1.0")])
        assert cli.main(["order-check", str(a)]) == 2


class TestChernoffCommand:
    def test_table_file(self, tmp_path, capsys):
        out = tmp_path / "tab.json"
        assert cli.main(["chernoff", "--reps", "400",
                         "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "table with 999 quantiles" in stdout
        assert "variance" in stdout
        body = json.loads(out.read_text())
        assert len(body["quantiles"]) == 999
        assert body["config_digest"]
        qs = body["quantiles"]
        assert all(a <= b for a, b in zip(qs, qs[1:]))

    def test_cache_hit_preserves_file(self, tmp_path):
        out = tmp_path / "tab.json"
        argv = ["chernoff", "--reps", "400", "--out", str(out)]
        assert cli.main(argv) == 0
        stamp = os.stat(out).st_mtime_ns
        assert cli.main(argv) == 0
        assert os.stat(out).st_mtime_ns == stamp

    def test_design_flags_removed(self, tmp_path):
        # --reps is the whole Monte Carlo design a command line can set
        for flag, value in (("--L", "5"), ("--delta", "0.01"),
                            ("--seed", "7"), ("--probs", "0.5,0.975")):
            with pytest.raises(SystemExit) as exc:
                cli.main(["chernoff", "--reps", "400", flag, value,
                          "--out", str(tmp_path / "t.json")])
            assert exc.value.code == 2, flag

    def test_table_is_the_one_estimate_and_simulate_read(self, tmp_path,
                                                         sample_csv,
                                                         monkeypatch):
        table = tmp_path / "tab.json"
        assert cli.main(["chernoff", "--reps", "400",
                         "--out", str(table)]) == 0
        written = table.read_bytes()

        def no_simulation(config):
            raise AssertionError("Monte Carlo ran")

        monkeypatch.setattr(inference, "_simulate_chernoff", no_simulation)
        reads = ["--chernoff-reps", "400", "--chernoff-cache", str(table)]
        assert cli.main(["estimate", "--input", str(sample_csv), "--ci",
                         "plugin", "--out", str(tmp_path / "e")] + reads) == 0
        assert cli.main(["simulate", "--scenario", "linear", "--n", "80",
                         "--reps", "1", "--grid", "0.8",
                         "--methods", "monotone", "--threads", "1",
                         "--out", str(tmp_path / "s")] + reads) == 0
        assert table.read_bytes() == written


@pytest.mark.parametrize("command", ["chernoff", "estimate", "simulate"])
def test_table_path_that_is_a_directory(tmp_path, sample_csv, capsys,
                                        monkeypatch, command):
    def no_simulation(config):
        raise AssertionError("Monte Carlo ran")

    monkeypatch.setattr(inference, "_simulate_chernoff", no_simulation)
    table_dir = tmp_path / "tables"
    table_dir.mkdir()
    out = tmp_path / "o"
    argv, flag = {
        "chernoff": (["chernoff", "--reps", "400", "--out", str(table_dir)],
                     "--out"),
        "estimate": (["estimate", "--input", str(sample_csv), "--out", str(out),
                      "--chernoff-cache", str(table_dir)], "--chernoff-cache"),
        "simulate": (["simulate", "--scenario", "linear", "--n", "80",
                      "--reps", "1", "--threads", "1", "--out", str(out),
                      "--chernoff-cache", str(table_dir)], "--chernoff-cache"),
    }[command]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {flag}: {table_dir} is a directory, not a table file\n")
    assert not out.exists()
    assert list(table_dir.iterdir()) == []


@pytest.mark.parametrize("command", ["chernoff", "estimate", "simulate"])
def test_chernoff_replications_rule(tmp_path, sample_csv, capsys, command):
    # one rule and one message, whichever command takes the count
    out = str(tmp_path / "o")
    argv = {
        "chernoff": ["chernoff", "--reps", "0", "--out", out],
        "estimate": ["estimate", "--input", str(sample_csv), "--out", out,
                     "--chernoff-reps", "0"],
        "simulate": ["simulate", "--scenario", "linear", "--n", "80",
                     "--reps", "1", "--threads", "1", "--out", out,
                     "--chernoff-reps", "0"],
    }[command]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: replications must be at least 1\n"
    assert not os.path.exists(out)


class TestThreadResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("THREADS", "7")
        assert cli._resolve_threads(2) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("THREADS", "3")
        assert cli._resolve_threads(None) == 3

    def test_bad_env(self, monkeypatch):
        monkeypatch.setenv("THREADS", "many")
        with pytest.raises(cli.InputError):
            cli._resolve_threads(None)

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_env_below_one(self, monkeypatch, value):
        monkeypatch.setenv("THREADS", value)
        with pytest.raises(cli.InputError,
                           match="THREADS environment variable must be at least 1"):
            cli._resolve_threads(None)

    def test_bad_explicit(self):
        with pytest.raises(cli.InputError):
            cli._resolve_threads(0)


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "mhrfit.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "estimate" in proc.stdout
