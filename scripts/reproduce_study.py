#!/usr/bin/env python3
"""Desk-scale interval study across the built-in hazard scenarios.

For each requested scenario this runs `mhrfit simulate`, which draws
synthetic two-arm right-censored datasets, estimates the hazard ratio at
each grid point with each requested method, and reports cube-root scaled
bias and variance plus interval coverage.  Each scenario's
metrics.csv, metrics.json and manifest.json go to <out>/<scenario>/, and
the scenarios share one Chernoff table cached at
<out>/chernoff_cache.json.  Defaults finish in minutes on a workstation;
raise --reps and --n to shrink the Monte Carlo error.

The script owns --out, --scenarios, --n and --reps; every other flag
goes to `mhrfit simulate` as given (see `mhrfit simulate --help`), so
simulate's own defaults apply.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import time

from mhrfit import cli


def parse_args(argv=None) -> tuple[argparse.Namespace, list]:
    """The script's own flags, and the rest for `simulate`."""
    parser = argparse.ArgumentParser(
        description="coverage and risk study on synthetic two-arm data; "
                    "other flags go to `mhrfit simulate`",
        allow_abbrev=False)
    parser.add_argument("--out", default="study_out",
                        help="output directory (default: %(default)s)")
    parser.add_argument("--scenarios", default="linear,convex,concave",
                        help="comma separated scenario names")
    parser.add_argument("--n", type=int, default=500,
                        help="observations per dataset")
    parser.add_argument("--reps", type=int, default=100,
                        help="replications per scenario")
    return parser.parse_known_args(argv)


def print_table(scenario: str, out: str, elapsed: float) -> None:
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        flags = json.load(fh)["flags"]
    print(f"\n{scenario}  (n={flags['n']}, reps={flags['reps']}, "
          f"alpha={flags['alpha']}, {elapsed:.1f}s)")
    print(f"  {'method':<10}{'x':>6}{'coverage':>10}"
          f"{'scaled bias':>13}{'scaled var':>12}{'excluded':>10}")
    with open(os.path.join(out, "metrics.csv"), newline="",
              encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            print(f"  {row['method']:<10}{float(row['x']):>6.2f}"
                  f"{float(row['coverage']):>10.3f}"
                  f"{float(row['scaled_bias']):>13.4f}"
                  f"{float(row['scaled_var']):>12.4f}"
                  f"{int(row['n_excluded']):>10d}")


def main(argv=None) -> int:
    args, simulate_flags = parse_args(argv)
    scenarios = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    cache = os.path.join(args.out, "chernoff_cache.json")
    for scenario in scenarios:
        out = os.path.join(args.out, scenario)
        started = time.perf_counter()
        code = cli.main(["simulate", "--scenario", scenario,
                         "--n", str(args.n), "--reps", str(args.reps),
                         "--chernoff-cache", cache, "--out", out]
                        + simulate_flags)
        if code != 0:
            return code
        print_table(scenario, out, time.perf_counter() - started)
    print(f"\nwrote {len(scenarios)} scenario directories under {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
