"""Command line surface.

Subcommands: `estimate` (fit + confidence intervals from a CSV),
`diagnose` (convexity diagnostic of the composed cumulative hazards),
`simulate` (synthetic-study metrics), `order-check` (stochastic order
verdicts for discrete mass functions), and `chernoff` (limit-law
quantile table generation).

Input CSVs are comma separated with a `time,status,arm` header, `.`
decimals, UTF-8; status and arm are 0/1.  Every run with artifacts also
writes a manifest recording the command, flags, seed and paths.  Exit
codes: 0 success, 2 input error, 3 statistical degeneracy, 4 out of
memory.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import warnings
from fractions import Fraction

import numpy as np

from . import __version__
from .inference import (ChernoffConfig, _interval_probability, _usable_cpus,
                        chernoff_table, plugin_ci, plugin_probability,
                        plugin_scale, split_ci, split_fit)
from .mhr_estimator import (TruncationPolicy, diagnostic_curve, fit_theta,
                            theta_at)
from .simulation import SCENARIOS, StudyConfig, run_study
from .stochastic_orders import (DiscreteDistribution, _separation_pairs,
                                check_order, figure1_suite)
from .survival_core import CensoredSample, _first_invalid_row

__all__ = ["main", "cmd_estimate", "cmd_diagnose",
           "cmd_simulate", "cmd_order_check", "cmd_chernoff"]


class InputError(Exception):
    """User-input problem; maps to exit code 2."""


def _json_text(obj, depth: int = 0) -> str:
    """Exactly json.dumps(obj, indent=2, sort_keys=True), for string keys.

    That call encodes element by element in Python.  Here a list of plain
    finite floats is joined from their reprs in one call, which is what
    the encoder writes for each; everything else is encoded item by item.
    """
    pad = "\n" + "  " * (depth + 1)
    close = pad[:-2]
    if isinstance(obj, dict) and obj:
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("keys must be strings")
        items = [json.dumps(key) + ": " + _json_text(obj[key], depth + 1)
                 for key in sorted(obj)]
        return "{" + pad + ("," + pad).join(items) + close + "}"
    if isinstance(obj, (list, tuple)) and obj:
        body = None
        if set(map(type, obj)) == {float}:
            body = ("," + pad).join(_float_reprs(obj))
            if "n" in body:  # nan or inf, which JSON spells otherwise
                body = None
        if body is None:
            body = ("," + pad).join(_json_text(item, depth + 1) for item in obj)
        return "[" + pad + body + close + "]"
    return json.dumps(obj)


def _float_reprs(values: list) -> list:
    """repr of each float, computed once per run of bitwise-equal neighbours.

    A step function's values repeat in long runs, and repr is the cost.
    """
    array = np.array(values)
    bits = array.view(np.int64)
    starts = np.flatnonzero(np.append(True, bits[1:] != bits[:-1]))
    reprs = list(map(float.__repr__, array[starts].tolist()))
    if len(reprs) == len(values):
        return reprs
    runs = np.diff(np.append(starts, len(values)))
    return np.repeat(np.array(reprs, dtype=object), runs).tolist()


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(obj) + "\n")


def _write_manifest(out_dir: str, command: str, args, inputs, outputs) -> None:
    flags = {}
    for key, value in vars(args).items():
        if key == "func" or callable(value):
            continue
        flags[key] = value if isinstance(value, (int, float, bool, str,
                                                 type(None))) else str(value)
    manifest = {"command": command, "flags": flags,
                "seed": getattr(args, "seed", None), "inputs": list(inputs),
                "outputs": list(outputs), "version": __version__}
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _open_csv(path: str, header: list):
    """The open file and its records, positioned after an exact header row."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise InputError(str(exc)) from exc
    records = _records(path, csv.reader(fh))
    try:
        first = next(records, None)
        if first is None:
            raise InputError(f"{path}: empty file")
        if [h.strip() for h in first[1]] != header:
            raise InputError(f"{path}: header must be exactly '{','.join(header)}'")
    except BaseException:
        fh.close()
        raise
    return fh, records


def _records(path: str, reader):
    """(first file line, row) for each of the reader's records.

    A quoted cell may span lines, so records and lines are counted apart.
    An undecodable byte or oversized cell is an input error.
    """
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8: cannot decode byte "
                         f"0x{exc.object[exc.start]:02x}") from exc
    except csv.Error as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from exc


def _csv_rows(path: str, header: list):
    """Yield (line number, fields) for each nonblank row under an exact header."""
    fh, records = _open_csv(path, header)
    empty = True
    with fh:
        for lineno, row in records:
            # blank when every cell is; a filled first cell settles it
            if not row or (not row[0].strip()
                           and all(not cell.strip() for cell in row)):
                continue
            if len(row) != len(header):
                raise InputError(f"{path}: line {lineno}: expected "
                                 f"{len(header)} fields, got {len(row)}")
            empty = False
            yield lineno, row
    if empty:
        raise InputError(f"{path}: no data rows")


_SAMPLE_HEADER = ["time", "status", "arm"]
_SAMPLE_DTYPE = [("time", np.float64), ("status", np.int64), ("arm", np.int64)]
# Over these bytes numpy splits lines and cells as the csv module does and
# reads each cell as float() or int() would.  Outside them it does not
# always: it takes \x1c-\x1f as blanks and some letters as digits, and it
# keeps quotes.  Letters would only spell inf or nan, which are refused.
_PLAIN_CELLS = b"0123456789.eE+-, \t\r\n"
_LINE_END = re.compile(rb"[\r\n]")


def _parse_rows(path: str) -> tuple:
    """The sample's columns and their line numbers; the source of parse messages."""
    times, status, arms, linenos = [], [], [], []
    for lineno, row in _csv_rows(path, _SAMPLE_HEADER):
        try:
            times.append(float(row[0]))
            status.append(int(row[1]))
            arms.append(int(row[2]))
        except ValueError as exc:
            raise InputError(f"{path}: line {lineno}: {exc}") from exc
        linenos.append(lineno)
    return (np.asarray(times), np.asarray(status), np.asarray(arms)), linenos


def _load_columns(path: str):
    """The sample's columns from one numpy parse, or None if it is not clean.

    None means the row parser must read the file: a character outside
    `_PLAIN_CELLS` after the header line, a line longer than the row
    parser's cell limit, or any exception or warning of the parse.
    """
    _open_csv(path, _SAMPLE_HEADER)[0].close()  # the row parser's header check
    with open(path, "rb") as fh:
        raw = fh.read()
    header_end = _LINE_END.search(raw)
    if (header_end is None
            or raw[header_end.start():].translate(None, _PLAIN_CELLS)
            or _has_long_line(raw, csv.field_size_limit())):
        return None
    del raw
    with warnings.catch_warnings():
        # some numpy versions read "1.0" into an int column with only a
        # DeprecationWarning, so every warning sends the file to the rows
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(path, dtype=_SAMPLE_DTYPE, delimiter=",",
                               comments=None, quotechar=None, skiprows=1,
                               encoding="utf-8", ndmin=1)
        except MemoryError:
            raise
        except Exception:
            return None
    return table["time"], table["status"], table["arm"]


def _has_long_line(raw: bytes, limit: int) -> bool:
    """Whether a line of raw is longer than limit, found in len/limit steps.

    From each line start, the last line end within the next limit + 1
    bytes starts the next step; a window without one holds a long line.
    """
    start = 0
    while len(raw) - start > limit:
        end = max(raw.rfind(b"\n", start, start + limit + 1),
                  raw.rfind(b"\r", start, start + limit + 1))
        if end < 0:
            return True
        start = end + 1
    return False


def _read_sample(path: str) -> CensoredSample:
    """Parse the CSV in one numpy call; the row parser reads what either refuses."""
    columns = _load_columns(path)
    if columns is not None:
        try:
            return CensoredSample.from_arrays(*columns)
        except ValueError:
            pass  # a parse error anywhere wins over the first bad row's line
    columns, linenos = _parse_rows(path)
    try:
        return CensoredSample.from_arrays(*columns)
    except ValueError as exc:
        index, message = _first_invalid_row(*columns)
        raise InputError(f"{path}: line {linenos[index]}: {message}") from exc


def _parse_policy(text: str) -> TruncationPolicy:
    if text == "auto":
        return TruncationPolicy.recommended()
    try:
        fraction = float(text)
    except ValueError as exc:
        raise InputError(f"--rn must be 'auto' or a number, got {text!r}") from exc
    try:
        return TruncationPolicy(fraction)
    except ValueError as exc:
        raise InputError(f"--rn: {exc}") from exc


def _parse_list(text: str, flag: str, cast) -> tuple:
    """The nonblank comma-separated items of text, each passed through cast."""
    try:
        values = tuple(cast(part.strip()) for part in text.split(",")
                       if part.strip())
    except ValueError as exc:
        raise InputError(f"{flag}: could not parse {text!r}") from exc
    if not values:
        raise InputError(f"{flag}: empty list")
    return values


def _parse_grid(text: str):
    """The sorted evaluation points, or None for 'auto', fixed by the fit."""
    if text == "auto":
        return None
    values = _parse_list(text, "--grid", float)
    if not np.all(np.isfinite(values)):
        raise InputError("--grid: evaluation points must be finite")
    if any(v < 0 for v in values):
        raise InputError("--grid: evaluation points must be nonnegative")
    for i, x in enumerate(values):
        if x in values[:i]:
            raise InputError(f"--grid: evaluation point {x!r} repeated")
    return tuple(sorted(values))


def _check_out_path(path, flag: str, table: bool = False) -> None:
    """Refuse, from the path alone, an output path that cannot be written.

    An artifact directory may not be an existing file, nor a Chernoff
    table file an existing directory, and the nearest existing ancestor
    of either must be a directory.
    """
    if path is None:
        return
    if not path:
        raise InputError(f"{flag}: empty path")
    if table and os.path.isdir(path):
        raise InputError(f"{flag}: {path} is a directory, not a table file")
    if not table and os.path.lexists(path) and not os.path.isdir(path):
        raise InputError(f"{flag}: {path} is a file, not a directory")
    parent = os.path.dirname(os.path.normpath(path))
    while parent and not os.path.lexists(parent):
        parent = os.path.dirname(parent)
    if parent and not os.path.isdir(parent):
        raise InputError(f"{flag}: {parent} is a file, not a directory")


def _resolve_threads(value) -> int:
    if value is not None:
        if value < 1:
            raise InputError("--threads must be at least 1")
        return value
    env = os.environ.get("THREADS")
    if env:
        try:
            threads = int(env)
        except ValueError as exc:
            raise InputError("THREADS environment variable must be an "
                             "integer") from exc
        if threads < 1:
            raise InputError("THREADS environment variable must be at least 1")
        return threads
    return _usable_cpus()


# ---------------------------------------------------------------------------
# SVG emission.  Hand-rolled, single <svg> root, numbers only, so the
# output is well-formed XML without a plotting dependency.

def _svg_render(series, width=640, height=420, margin=50.0) -> str:
    """One polyline per series; each series holds "x" and "y" arrays."""
    xs = np.concatenate([s["x"] for s in series])
    ys = np.concatenate([s["y"] for s in series])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y1 = y0 + 1.0

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
             f'height="{height - 2 * margin}" fill="none" stroke="black" '
             'stroke-width="1"/>']
    for s in series:
        sx = margin + (s["x"] - x0) / (x1 - x0) * (width - 2 * margin)
        sy = height - margin - (s["y"] - y0) / (y1 - y0) * (height - 2 * margin)
        coords = " ".join(f"{px:.2f},{py:.2f}"
                          for px, py in zip(sx.tolist(), sy.tolist()))
        dash = ' stroke-dasharray="6,4"' if s.get("dashed") else ""
        color = s.get("color", "black")
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"{dash}/>')
    labels = [(margin, height - margin + 16, repr(round(x0, 6)), "start"),
              (width - margin, height - margin + 16, repr(round(x1, 6)), "end"),
              (margin - 6, height - margin, repr(round(y0, 6)), "end"),
              (margin - 6, margin + 10, repr(round(y1, 6)), "end")]
    for lx, ly, text, anchor in labels:
        parts.append(f'<text x="{lx}" y="{ly}" font-size="11" '
                     f'text-anchor="{anchor}">{text}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _step_points(knots, values, value_at_zero, x_end):
    """(x, y) vertices of the step function drawn from 0, to x_end if later.

    Knots where the value does not change would add only collinear
    vertices, so the drawing keeps just the steps.
    """
    steps = np.diff(values, prepend=value_at_zero) != 0
    knots, values = knots[steps], values[steps]
    xs = np.append(0.0, np.repeat(knots, 2))
    ys = np.repeat(np.append(value_at_zero, values), 2)
    if len(knots) and x_end <= knots[-1]:
        return xs, ys[:-1]
    return np.append(xs, x_end), ys


def _fit_payload(fit) -> dict:
    return {
        "theta": {"knots": fit.theta.knots.tolist(),
                  "values": fit.theta.values.tolist(),
                  "value_at_zero": float(fit.theta.value_at_zero)},
        "gamma_n": float(fit.gamma_n),
        "eta_n": float(fit.eta_n),
        "hull": {"u": fit.hull.u.tolist(),
                 "v": fit.hull.v.tolist(),
                 "slopes": fit.hull.slopes.tolist()},
    }


def _format_cell(value) -> str:
    return "" if value is None else repr(float(value))


def cmd_estimate(args) -> int:
    if not 0.0 < args.alpha < 1.0:
        raise InputError("--alpha must lie in (0, 1)")
    try:
        if args.ci == "split":
            _interval_probability(args.alpha)
        else:
            plugin_probability(args.alpha)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.splits < 2:
        raise InputError("--splits must be at least 2")
    try:
        chernoff = ChernoffConfig(replications=args.chernoff_reps)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _check_out_path(args.out, "--out")
    _check_out_path(args.chernoff_cache, "--chernoff-cache", table=True)
    policy = _parse_policy(args.rn)
    grid = _parse_grid(args.grid)
    sample = _read_sample(args.input)
    try:
        fit = fit_theta(sample, policy=policy)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if grid is None:
        grid = tuple(float(f) * fit.gamma_n for f in np.linspace(0.1, 0.9, 9))
    methods = {"plugin": ("plugin",), "split": ("split",),
               "both": ("plugin", "split")}[args.ci]

    table = scale = None
    if "plugin" in methods:
        table = chernoff_table(chernoff, cache_path=args.chernoff_cache)
        scale = plugin_scale(fit, sample)
    sfit = None
    if "split" in methods:
        try:
            sfit = split_fit(sample, args.splits, seed=args.seed, policy=policy)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    intervals = {
        "plugin": lambda x: plugin_ci(fit, sample, x, args.alpha, table,
                                      scale=scale),
        "split": lambda x: split_ci(sfit, x, alpha=args.alpha),
    }

    if not args.clamp:
        for x in grid:
            if x > fit.gamma_n:
                print(f"warning: x={x} beyond truncation time "
                      f"{fit.gamma_n}; skipped (use --clamp)", file=sys.stderr)
        grid = tuple(x for x in grid if x <= fit.gamma_n)

    rows = []
    for method in methods:
        for x in grid:
            estimate = lower = upper = None
            if x > fit.gamma_n:
                estimate = float(fit.theta(fit.gamma_n))
            else:
                try:
                    ci = intervals[method](x)
                    estimate, lower, upper = ci.estimate, ci.lower, ci.upper
                except ValueError as exc:
                    print(f"warning: no {method} interval at x={x}: {exc}",
                          file=sys.stderr)
                    estimate = theta_at(fit, x)
            rows.append((x, estimate, lower, upper, method))

    os.makedirs(args.out, exist_ok=True)
    fit_path = os.path.join(args.out, "fit.json")
    _write_json(fit_path, _fit_payload(fit))
    ci_path = os.path.join(args.out, "ci.csv")
    with open(ci_path, "w", encoding="utf-8") as fh:
        fh.write("x,estimate,lower,upper,method\n")
        for x, est, lo, hi, method in rows:
            fh.write(",".join([repr(float(x)), _format_cell(est),
                               _format_cell(lo), _format_cell(hi),
                               method]) + "\n")
    svg_path = os.path.join(args.out, "theta.svg")
    xs, ys = _step_points(fit.theta.knots, fit.theta.values,
                          fit.theta.value_at_zero, fit.gamma_n)
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(_svg_render([{"x": xs, "y": ys}]))
    _write_manifest(args.out, "estimate", args, [args.input],
                    [fit_path, ci_path, svg_path])
    return 0


def cmd_diagnose(args) -> int:
    _check_out_path(args.out, "--out")
    policy = _parse_policy(args.rn)
    sample = _read_sample(args.input)
    try:
        (u, v), hull = diagnostic_curve(sample, policy=policy)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "diagnostic.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("lambda_T,lambda_S,hull\n")
        for row in zip(u.tolist(), v.tolist(), hull.value_at(u).tolist()):
            fh.write("{!r},{!r},{!r}\n".format(*row))
    svg_path = os.path.join(args.out, "diagnostic.svg")
    series = [{"x": u, "y": v},
              {"x": hull.u, "y": hull.v, "dashed": True, "color": "gray"}]
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(_svg_render(series))
    _write_manifest(args.out, "diagnose", args, [args.input],
                    [csv_path, svg_path])
    return 0


def cmd_simulate(args) -> int:
    if args.n < 2:
        raise InputError("--n must be at least 2")
    if args.reps < 1:
        raise InputError("--reps must be at least 1")
    methods = _parse_list(args.methods, "--methods", str)
    _check_out_path(args.out, "--out")
    _check_out_path(args.chernoff_cache, "--chernoff-cache", table=True)
    grid = _parse_list(args.grid, "--grid", float)
    try:
        config = StudyConfig(scenario=args.scenario, n=args.n,
                             replications=args.reps, grid=grid,
                             alpha=args.alpha, methods=methods,
                             seed=args.seed, splits=args.splits,
                             threads=_resolve_threads(args.threads),
                             chernoff=ChernoffConfig(
                                 replications=args.chernoff_reps),
                             chernoff_cache=args.chernoff_cache)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    metrics = run_study(config)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "metrics.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(metrics.to_csv_text())
    json_path = os.path.join(args.out, "metrics.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(metrics.to_json_text())
    _write_manifest(args.out, "simulate", args, [], [csv_path, json_path])
    return 0


def _read_distribution(path: str) -> DiscreteDistribution:
    pairs = []
    for lineno, row in _csv_rows(path, ["support", "mass"]):
        try:
            point = float(row[0])
            # parse the mass from its decimal text so 0.2 means 1/5
            mass = Fraction(row[1].strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{path}: line {lineno}: {exc}") from exc
        pairs.append((point, mass))
    total = sum(m for _, m in pairs)
    if abs(total - 1) > Fraction(1, 10 ** 9):
        raise InputError(f"{path}: masses sum to {float(total)!r}, not 1 "
                         "(tolerance 1e-9)")
    pairs = [(p, m / total) for p, m in pairs]
    try:
        return DiscreteDistribution.from_pairs(pairs)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _print_orders(dist_s, dist_t) -> None:
    """Whether S dominates T in each order, with the time where it first fails."""
    print("order  holds  witness")
    for kind in ("mhr", "hr", "st", "lr"):
        verdict = check_order(dist_s, dist_t, kind)
        witness = "" if verdict.holds else str(verdict.point)
        print(f"{kind:5s}  {str(verdict.holds):5s}  {witness}")


def cmd_order_check(args) -> int:
    if args.figure1:
        if args.files:
            raise InputError("--figure1 takes no files")
        print(f"{'pair':34s}{'claims'}")
        for entry in figure1_suite():
            claims = ", ".join(f"{k}={v}" for k, v in entry["claims"].items())
            print(f"{entry['name']:34s}{claims}")
        for label, dist_s, dist_t in _separation_pairs():
            print(f"pair: {label}")
            _print_orders(dist_s, dist_t)
        return 0
    if len(args.files) != 2:
        raise InputError("provide two mass-function CSVs or --figure1")
    _print_orders(_read_distribution(args.files[0]),
                  _read_distribution(args.files[1]))
    return 0


def cmd_chernoff(args) -> int:
    _check_out_path(args.out, "--out", table=True)
    try:
        config = ChernoffConfig(replications=args.reps)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    table = chernoff_table(config, cache_path=args.out)
    print(f"table with {len(table.probabilities)} quantiles at {args.out}; "
          f"variance {table.variance:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhrfit",
        description="Monotone hazard ratio estimation for two-arm "
                    "right-censored data.")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="fit the monotone hazard ratio "
                                          "and write intervals")
    est.add_argument("--input", required=True, help="CSV with time,status,arm")
    est.add_argument("--out", default="mhrfit_out", help="output directory")
    est.add_argument("--alpha", type=float, default=0.05)
    est.add_argument("--ci", choices=("plugin", "split", "both"),
                     default="plugin")
    est.add_argument("--splits", type=int, default=5)
    est.add_argument("--rn", default="auto",
                     help="'auto' or a fixed truncation fraction")
    est.add_argument("--grid", default="auto",
                     help="comma-separated evaluation points, or 'auto' "
                          "for interior deciles of the truncation range")
    est.add_argument("--clamp", action="store_true",
                     help="extend the fit flat beyond the truncation time "
                          "(no intervals there)")
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--chernoff-reps", type=int,
                     default=ChernoffConfig.replications)
    est.add_argument("--chernoff-cache", default=None)
    est.set_defaults(func=cmd_estimate)

    dia = sub.add_parser("diagnose", help="convexity diagnostic of the "
                                          "composed cumulative hazards")
    dia.add_argument("--input", required=True)
    dia.add_argument("--out", default="mhrfit_out")
    dia.add_argument("--rn", default="auto")
    dia.set_defaults(func=cmd_diagnose)

    sim = sub.add_parser("simulate", help="synthetic-study metrics")
    sim.add_argument("--scenario", required=True, choices=tuple(SCENARIOS))
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--reps", type=int, required=True)
    sim.add_argument("--out", default="mhrfit_out")
    sim.add_argument("--grid", default="0.5,1.0,1.5")
    sim.add_argument("--methods", default=",".join(StudyConfig.methods))
    sim.add_argument("--alpha", type=float, default=0.05)
    sim.add_argument("--splits", type=int, default=5)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--threads", type=int, default=None,
                     help="worker processes; defaults to the THREADS "
                          "environment variable, then the usable CPUs")
    sim.add_argument("--chernoff-reps", type=int,
                     default=ChernoffConfig.replications)
    sim.add_argument("--chernoff-cache", default=None)
    sim.set_defaults(func=cmd_simulate)

    orc = sub.add_parser("order-check", help="stochastic order verdicts")
    orc.add_argument("files", nargs="*",
                     help="two CSVs with support,mass columns")
    orc.add_argument("--figure1", action="store_true",
                     help="print the built-in four-pair gallery, then "
                          "the verdicts of one pair per order gap")
    orc.set_defaults(func=cmd_order_check)

    che = sub.add_parser("chernoff", help="generate or refresh the "
                                          "limit-law quantile table")
    che.add_argument("--out", default="chernoff_table.json",
                     help="table file path (also used as the cache)")
    che.add_argument("--reps", type=int, default=ChernoffConfig.replications,
                     help="Monte Carlo replications; --chernoff-reps of "
                          "estimate and simulate reads the same table")
    che.set_defaults(func=cmd_chernoff)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise InputError("--seed must be nonnegative")
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; the input is too large for this machine",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
