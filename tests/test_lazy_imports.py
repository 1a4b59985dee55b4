"""The CLI imports scipy.stats and scipy.optimize only on the paths that use them.

Each check runs in a fresh interpreter, because this test process has
loaded both packages already.  It records which modules are loaded; it
does not time anything.
"""
from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

from mhrfit.inference import ChernoffConfig, chernoff_table
from mhrfit.simulation import generate_dataset, make_scenario

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Runs `import mhrfit`, `import mhrfit.cli`, then each argv (a JSON list of
# [label, argv] pairs) through cli.main in the same process; prints, as its
# last stdout line, [label, exit code, lazy modules loaded] per step.
SCRIPT = """
import json, sys
LAZY = ("scipy.stats", "scipy.optimize")
def lazy():
    return sorted({m.split(".")[0] + "." + m.split(".")[1]
                   for m in sys.modules if m.startswith(LAZY)})
steps = []
import mhrfit
steps.append(["import mhrfit", 0, lazy()])
from mhrfit import cli
steps.append(["import mhrfit.cli", 0, lazy()])
for label, argv in json.loads(sys.argv[1]):
    steps.append([label, cli.main(argv), lazy()])
print(json.dumps(steps))
"""


def run_steps(calls):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(calls)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.strip().split("\n")[-1])


def test_timed_commands_load_neither(tmp_path):
    sample = generate_dataset(make_scenario("linear"), 300, 0.5, seed=3)
    data = tmp_path / "data.csv"
    data.write_text("time,status,arm\n" + "".join(
        f"{t!r},{d},{a}\n" for t, d, a in zip(
            sample.time.tolist(), sample.status.tolist(), sample.arm.tolist())))
    cache = tmp_path / "table.json"
    chernoff_table(ChernoffConfig(replications=50), cache_path=cache)
    warm = ["--chernoff-reps", "50", "--chernoff-cache", str(cache)]
    calls = [
        ["estimate split", ["estimate", "--input", str(data), "--ci", "split",
                            "--out", str(tmp_path / "split")]],
        ["estimate plugin", ["estimate", "--input", str(data), "--ci", "plugin",
                             "--out", str(tmp_path / "plugin")] + warm],
        ["diagnose", ["diagnose", "--input", str(data),
                      "--out", str(tmp_path / "diag")]],
        ["simulate", ["simulate", "--scenario", "linear", "--n", "80",
                      "--reps", "1", "--grid", "0.8",
                      "--methods", "monotone,split,kernel", "--threads", "1",
                      "--out", str(tmp_path / "sim")] + warm],
    ]
    labels = ["import mhrfit", "import mhrfit.cli"] + [c[0] for c in calls]
    assert run_steps(calls) == [[label, 0, []] for label in labels]


def test_cold_chernoff_table_loads_optimize(tmp_path):
    steps = run_steps([["chernoff", ["chernoff", "--reps", "50",
                                     "--out", str(tmp_path / "cold.json")]]])
    assert steps[1] == ["import mhrfit.cli", 0, []]
    label, code, lazy = steps[2]
    assert code == 0 and "scipy.optimize" in lazy


def test_figure1_loads_stats():
    steps = run_steps([["figure1", ["order-check", "--figure1"]]])
    assert steps[1] == ["import mhrfit.cli", 0, []]
    label, code, lazy = steps[2]
    assert code == 0 and "scipy.stats" in lazy
