"""The CLI imports scipy.special, scipy.stats and scipy.optimize only on the
paths that use them, and the process-pool machinery (`concurrent.futures`,
`multiprocessing`) only where a pool may start, never at import.

Each command runs in its own fresh interpreter, because this test process
has loaded all three already and one command's import would hide the
next one's.  It records which modules are loaded; it does not time
anything.
"""
from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from mhrfit.inference import ChernoffConfig, chernoff_table
from mhrfit.simulation import generate_dataset, make_scenario

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Runs `import mhrfit`, `import mhrfit.cli`, then one argv (JSON) through
# cli.main; prints, as its last stdout line, the scipy and pool modules
# loaded after each import and the exit code with the lazy modules loaded
# after the call.
SCRIPT = """
import json, sys
LAZY = ("scipy.special", "scipy.stats", "scipy.optimize")
def eager():
    return sorted(m for m in sys.modules if m.split(".")[0] in
                  ("scipy", "concurrent", "multiprocessing"))
def lazy():
    return sorted({".".join(m.split(".")[:2]) for m in sys.modules
                   if m.startswith(LAZY)})
import mhrfit
after_package = eager()
from mhrfit import cli
after_cli = eager()
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([after_package, after_cli, code, lazy()]))
"""


def run_command(argv):
    """(exit code, lazy modules after), once the imports loaded none."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argv)],
                          capture_output=True, text=True, env=env, check=True)
    after_package, after_cli, code, lazy = json.loads(
        proc.stdout.strip().split("\n")[-1])
    assert after_package == [] and after_cli == []
    return code, lazy


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(data CSV, the flags that read a warm 50-replication table, tmp dir)."""
    tmp = tmp_path_factory.mktemp("lazy")
    sample = generate_dataset(make_scenario("linear"), 300, 0.5, seed=3)
    data = tmp / "data.csv"
    data.write_text("time,status,arm\n" + "".join(
        f"{t!r},{d},{a}\n" for t, d, a in zip(
            sample.time.tolist(), sample.status.tolist(), sample.arm.tolist())))
    cache = tmp / "table.json"
    chernoff_table(ChernoffConfig(replications=50), cache_path=cache)
    warm = ["--chernoff-reps", "50", "--chernoff-cache", str(cache)]
    return data, warm, tmp


def simulate(methods, scenario="linear"):
    return ["simulate", "--scenario", scenario, "--n", "80", "--reps", "1",
            "--grid", "0.8", "--methods", methods, "--threads", "1"]


# label -> (argv before --out, reads the warm table, lazy modules loaded)
COMMANDS = {
    "estimate-plugin": (["estimate", "--ci", "plugin"], True, []),
    "diagnose": (["diagnose"], False, []),
    "simulate-monotone": (simulate("monotone"), True, []),
    "estimate-split": (["estimate", "--ci", "split"], False, []),
    "estimate-both": (["estimate", "--ci", "both"], True, []),
    "simulate-split": (simulate("split"), False, []),
    "simulate-kernel": (simulate("kernel"), False, []),
    "simulate-concave-monotone": (simulate("monotone", "concave"), True,
                                  ["scipy.special"]),
}


@pytest.mark.parametrize("label", COMMANDS)
def test_command_loads_only_what_it_calls(inputs, label):
    data, warm, tmp = inputs
    argv, reads_table, expected = COMMANDS[label]
    if argv[0] != "simulate":
        argv = argv + ["--input", str(data)]
    argv = argv + ["--out", str(tmp / label)]
    assert run_command(argv + (warm if reads_table else [])) == (0, expected)


def test_cold_chernoff_table_loads_optimize(tmp_path):
    code, lazy = run_command(["chernoff", "--reps", "50",
                              "--out", str(tmp_path / "cold.json")])
    assert code == 0 and "scipy.optimize" in lazy


def test_figure1_loads_stats():
    code, lazy = run_command(["order-check", "--figure1"])
    assert code == 0 and "scipy.stats" in lazy


def test_order_check_of_two_files_loads_none(tmp_path):
    files = [tmp_path / "s.csv", tmp_path / "t.csv"]
    for path, masses in zip(files, ((0.25, 0.75), (0.75, 0.25))):
        path.write_text("support,mass\n" + "".join(
            f"{k + 1}.0,{m}\n" for k, m in enumerate(masses)))
    assert run_command(["order-check"] + [str(f) for f in files]) == (0, [])
