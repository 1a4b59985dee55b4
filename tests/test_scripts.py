"""The scripts and the benchmark's traced layers stay in step with the package."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import mhrfit
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


def test_order_gallery_matrix_matches_labels(capsys):
    assert cli.main(["order-check", "--figure1"]) == 0
    blocks = capsys.readouterr().out.split("\npair: ")[1:]
    assert len(blocks) == 4
    for block in blocks:
        label, header, *rows = block.splitlines()
        assert header.split() == ["order", "holds", "witness"]
        held, _, rest = label.partition(" holds, ")
        broken = rest.split()[0]
        cells = {row.split()[0]: row.split()[1:] for row in rows}
        assert sorted(cells) == ["hr", "lr", "mhr", "st"]
        assert cells[held][0] == "True" and cells[broken][0] == "False", label
        # a witness on exactly the orders that fail
        for kind, (holds, *witness) in cells.items():
            assert len(witness) == (holds == "False"), (label, kind)


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


def test_readme_commands_parse():
    # a README command naming a removed script or flag fails for its reader
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["mhrfit"]:
                commands.append(words[1:])
    assert len(commands) >= 5
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README: mhrfit {shlex.join(argv)} does not parse")
    scripts = re.findall(r"python3 (scripts/\S+\.py)", text)
    assert scripts
    for script in scripts:
        assert (ROOT / script).is_file(), f"README names missing {script}"


def test_readme_imports_are_public():
    # a README snippet importing a renamed, deleted or internal name fails
    # for its reader
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    names = []
    for block in re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "mhrfit":
                names += [alias.name for alias in node.names]
    assert len(names) >= 10
    missing = sorted(set(names) - set(mhrfit.__all__))
    assert not missing, f"README imports names not in mhrfit.__all__: {missing}"
