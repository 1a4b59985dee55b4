"""Output checks for the benchmark's CLI calls.

Invariant checks hold for every seed.  Summaries of the artifacts are
compared with `reference.json`, made at the default seed by
`make_reference.py`, to the relative tolerance stored in that file.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os

SAMPLED_KNOTS = 33
ABS_TOL = 1e-12     # for reference values that are zero up to rounding


def digest(out_dir: str, names) -> str:
    """sha256 over the named artifacts, which are byte-identical on reruns."""
    h = hashlib.sha256()
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def read_ci(out_dir: str) -> list:
    """ci.csv rows as [x, estimate, lower, upper, method]; empty cells are None."""
    with open(os.path.join(out_dir, "ci.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["x", "estimate", "lower", "upper", "method"]:
        raise ValueError(f"unexpected ci.csv header {rows[0]}")
    return [[float(x)] + [float(c) if c else None for c in (e, lo, hi)] + [m]
            for x, e, lo, hi, m in rows[1:]]


def estimate_summary(out_dir: str) -> dict:
    """The parts of fit.json and ci.csv that the reference pins down."""
    with open(os.path.join(out_dir, "fit.json"), encoding="utf-8") as fh:
        fit = json.load(fh)
    knots, values = fit["theta"]["knots"], fit["theta"]["values"]
    count = len(knots)
    picks = sorted({round(i * (count - 1) / (SAMPLED_KNOTS - 1))
                    for i in range(SAMPLED_KNOTS)}) if count else []
    return {
        "n_knots": count,
        "knots_sum": math.fsum(knots),
        "values_sum": math.fsum(values),
        "knots_sampled": [knots[i] for i in picks],
        "values_sampled": [values[i] for i in picks],
        "value_at_zero": fit["theta"]["value_at_zero"],
        "gamma_n": fit["gamma_n"],
        "eta_n": fit["eta_n"],
        "ci": read_ci(out_dir),
    }


def study_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "metrics.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def estimate_errors(out_dir: str) -> list:
    """Invariant violations in one `estimate` call's artifacts."""
    errors = []
    with open(os.path.join(out_dir, "fit.json"), encoding="utf-8") as fh:
        fit = json.load(fh)
    theta = fit["theta"]
    numbers = (theta["knots"] + theta["values"] + [theta["value_at_zero"],
               fit["gamma_n"], fit["eta_n"]] + fit["hull"]["u"]
               + fit["hull"]["v"] + fit["hull"]["slopes"])
    if not all(_finite(v) for v in numbers):
        errors.append("fit.json holds a non-finite number")
    levels = [theta["value_at_zero"]] + theta["values"]
    if any(b < a for a, b in zip(levels, levels[1:])):
        errors.append("theta is not nondecreasing")
    rows = read_ci(out_dir)
    if not rows:
        errors.append("ci.csv has no rows")
    for x, est, lo, hi, method in rows:
        if not _finite(x) or not _finite(est):
            errors.append(f"{method} x={x}: estimate missing or not finite")
        elif (lo is None) != (hi is None):
            errors.append(f"{method} x={x}: half an interval")
        elif lo is not None and not (_finite(lo) and _finite(hi)
                                     and lo <= est <= hi):
            errors.append(f"{method} x={x}: not lower <= estimate <= upper")
    return errors


def study_errors(out_dir: str, reps: int) -> list:
    """Invariant violations in one `simulate` call's metrics.json."""
    errors = []
    for cell in study_summary(out_dir)["cells"]:
        where = f"{cell['method']} x={cell['x']}"
        for key in ("scaled_bias", "scaled_var", "mse", "coverage"):
            if cell[key] is not None and not _finite(cell[key]):
                errors.append(f"{where}: {key} not finite")
        if cell["coverage"] is not None and not 0.0 <= cell["coverage"] <= 1.0:
            errors.append(f"{where}: coverage outside [0, 1]")
        if not 0 <= cell["n_excluded"] <= reps:
            errors.append(f"{where}: n_excluded outside [0, {reps}]")
    return errors


def compare(observed, reference, rtol: float, path: str = "") -> list:
    """Mismatches between two summaries; floats compare to rtol."""
    if isinstance(reference, dict):
        if not isinstance(observed, dict) or observed.keys() != reference.keys():
            return [f"{path}: keys differ"]
        return [e for key in reference
                for e in compare(observed[key], reference[key], rtol,
                                 f"{path}.{key}")]
    if isinstance(reference, list):
        if not isinstance(observed, list) or len(observed) != len(reference):
            return [f"{path}: length {len(observed) if isinstance(observed, list) else '?'}"
                    f" != {len(reference)}"]
        return [e for i, (o, r) in enumerate(zip(observed, reference))
                for e in compare(o, r, rtol, f"{path}[{i}]")]
    if isinstance(reference, float) and isinstance(observed, (int, float)):
        if math.isclose(observed, reference, rel_tol=rtol, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {observed!r} != {reference!r} (rtol {rtol})"]
    if observed != reference:
        return [f"{path}: {observed!r} != {reference!r}"]
    return []
