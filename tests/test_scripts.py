"""The scripts and the benchmark's traced layers stay in step with the package."""
from __future__ import annotations

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

from mhrfit import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_reproduce_study_runs_simulate(tmp_path):
    flags = ["--n", "80", "--reps", "2", "--grid", "0.8,1.2",
             "--methods", "monotone,split,kernel", "--seed", "3",
             "--threads", "1", "--chernoff-reps", "300"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_study.py"),
         "--out", str(tmp_path / "study"), "--scenarios", "linear"] + flags,
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    study = tmp_path / "study" / "linear"
    assert {p.name for p in study.iterdir()} \
        == {"metrics.csv", "metrics.json", "manifest.json"}
    direct = tmp_path / "direct"
    assert cli.main(["simulate", "--scenario", "linear", "--out", str(direct)]
                    + flags) == 0
    assert (study / "metrics.csv").read_bytes() \
        == (direct / "metrics.csv").read_bytes()
    assert "split" in proc.stdout and "kernel" in proc.stdout


def test_reproduce_study_returns_simulate_exit(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_study.py"),
         "--out", str(tmp_path), "--scenarios", "linear", "--reps", "0"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "error: --reps must be at least 1" in proc.stderr


def test_reproduce_study_forwards_simulate_flags(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_study.py"),
         "--out", str(tmp_path), "--scenarios", "linear", "--n", "80",
         "--reps", "1", "--grid", "0.8", "--methods", "split",
         "--splits", "3", "--alpha", "0.1"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    flags = json.loads((tmp_path / "linear" / "manifest.json")
                       .read_text())["flags"]
    assert (flags["n"], flags["reps"]) == (80, 1)
    assert (flags["splits"], flags["alpha"]) == (3, 0.1)
    # left to simulate, which resolves THREADS or the CPU count itself
    assert flags["threads"] is None
    assert "linear  (n=80, reps=1, alpha=0.1," in proc.stdout


def test_order_gallery_matrix_matches_labels():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "order_gallery.py"),
         "--witness"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = lines.index("exact verdicts, one pair per strictness gap") + 1
    kinds = lines[header].split()[1:]
    assert sorted(kinds) == ["hr", "lr", "mhr", "st"]
    rows = []  # (line, verdict per order, orders with a witness line)
    for line in lines[header + 1:]:
        if " fails at t=" in line:
            rows[-1][2].append(line.split()[0])
        else:
            rows.append((line, dict(zip(kinds, line.split()[-4:])), []))
    assert len(rows) == 4
    for line, verdicts, failing in rows:
        held, _, rest = line.strip().partition(" holds, ")
        broken = rest.split()[0]
        assert verdicts[held] == "yes" and verdicts[broken] == "no", line
        # one witness line per failing order, in column order
        assert failing == [k for k in kinds if verdicts[k] == "no"], line


def test_traced_layers_exist():
    # a layer the benchmark traces but cannot find drops its metrics
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for layer, path in spans.TARGETS.items():
        module = "mhrfit." + layer.split(".")[0]
        owner = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(owner, part), f"{layer}: {module} has no {path}"
            owner = getattr(owner, part)
        assert callable(owner), layer


def test_benchmark_command_lines_parse(tmp_path, monkeypatch):
    # a flag the benchmark passes and the CLI lacks fails every timed call
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", ROOT / "perfbench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the body runs
    monkeypatch.setitem(sys.modules, spec.name, worker)
    spec.loader.exec_module(worker)
    work, out = str(tmp_path), str(tmp_path / "out")
    argvs = [["chernoff", "--reps", str(worker.CHERNOFF_REPS),
              "--out", worker.cache_path(work)]]
    argvs += [worker.call_argv(w, work, 0, 0, out)
              for w in worker.WORKLOADS.values()]
    assert len(argvs) == 4
    parser = cli.build_parser()
    for argv in argvs:
        parser.parse_args(argv)
