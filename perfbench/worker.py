"""One benchmark workload in a fresh process.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  It sets
up (imports mhrfit, writes the seeded datasets, builds the Chernoff table
cold), prints a READY line, and with --role run or trace then times calls
of `mhrfit.cli.main`, checks every call's artifacts, and prints one RESULT
line of JSON.  Lines run.py reads start with PROTOCOL; the program's own
output goes to stderr.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import checks
import spans

PROTOCOL = "PERFBENCH"
CHERNOFF_REPS = 20_000
STUDY_METHODS = ("monotone", "split", "kernel")
STUDY_GRID = (0.25, 0.5, 0.75, 1.0, 1.25)
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str             # "estimate" or "study"
    n: int
    ci: str = ""          # estimate workloads: --ci
    datasets: int = 0     # estimate workloads: CSVs written in set-up
    reps_per_call: int = 1
    chernoff: bool = False


# Why each workload exists is recorded in README.md.
WORKLOADS = {w.name: w for w in (
    Workload("estimate_plugin", "estimate", 20_000, ci="plugin", datasets=5,
             chernoff=True),
    Workload("estimate_split", "estimate", 50_000, ci="split", datasets=5),
    Workload("study_n500", "study", 500, reps_per_call=2, chernoff=True),
)}


def study_seed(seed: int, k: int) -> int:
    """`simulate --seed` of call k; the call's datasets are (this, rep)."""
    return seed * 1000 + k


def csv_path(work: str, k: int) -> str:
    return os.path.join(work, f"data_{k}.csv")


def cache_path(work: str) -> str:
    return os.path.join(work, "chernoff.json")


def sample_columns(sample):
    """(times, status, arms) of a CensoredSample, whatever its layout."""
    observations = getattr(sample, "observations", None)
    if observations is not None:
        return ([o.time for o in observations], [o.status for o in observations],
                [o.arm for o in observations])
    for names in (("time", "status", "arm"), ("times", "status", "arms")):
        if all(hasattr(sample, name) for name in names):
            return tuple(list(getattr(sample, name)) for name in names)
    raise TypeError("cannot read columns from the generated CensoredSample")


def write_csv(sample, path: str) -> None:
    times, status, arms = sample_columns(sample)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time,status,arm\n")
        fh.writelines(f"{float(t)!r},{int(s)},{int(a)}\n"
                      for t, s, a in zip(times, status, arms))


def call_argv(w: Workload, work: str, seed: int, k: int, out: str) -> list:
    chernoff = (["--chernoff-reps", str(CHERNOFF_REPS),
                 "--chernoff-cache", cache_path(work)] if w.chernoff else [])
    if w.kind == "estimate":
        return (["estimate", "--input", csv_path(work, k % w.datasets),
                 "--out", out, "--ci", w.ci, "--grid", "auto"] + chernoff)
    return (["simulate", "--scenario", "linear", "--n", str(w.n),
             "--reps", str(w.reps_per_call), "--methods", ",".join(STUDY_METHODS),
             "--grid", ",".join(map(str, STUDY_GRID)), "--threads", "1",
             "--seed", str(study_seed(seed, k)), "--out", out] + chernoff)


def setup(w: Workload, work: str, seed: int, tracer=None) -> None:
    """Everything before the first timed call, after the import."""
    from mhrfit import cli, simulation

    os.makedirs(work, exist_ok=True)
    if tracer is not None:
        tracer.install()
        tracer.call_id = "setup"
    scenario = simulation.make_scenario("linear")
    for k in range(w.datasets):
        write_csv(simulation.generate_dataset(scenario, w.n, 0.5, seed=(seed, k)),
                  csv_path(work, k))
    if w.chernoff:
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(["chernoff", "--reps", str(CHERNOFF_REPS),
                             "--out", cache_path(work)])
        if code != 0:
            raise RuntimeError(f"chernoff table exited {code}")
    if tracer is not None:
        tracer.uninstall()


def timed_pass(w: Workload, work: str, seed: int, label: str, *,
               seconds: float | None = None, calls: int | None = None,
               chunks: int = 1, pause=None, tracer=None) -> list:
    """Time calls 0, 1, ... until `calls` are done, or for `seconds`.

    Timed seconds are split into `chunks` equal slices with `pause()`
    between them, so that one run samples the machine over a longer stretch.
    A slice ends at the first call that brings the total past its share.
    """
    from mhrfit import cli

    records, timed = [], 0.0
    for chunk in range(chunks):
        if chunk:
            pause()
        first = len(records)
        while (len(records) < calls if calls is not None
               else len(records) == first
               or timed < seconds * (chunk + 1) / chunks):
            k = len(records)
            out = os.path.join(work, "out", label, str(k))
            argv = call_argv(w, work, seed, k, out)
            if tracer is not None:
                tracer.call_id = f"{label}{k}"
            # A CLI user gets a fresh process: leave no garbage of the
            # previous call for this one to collect.
            gc.collect()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sys.stderr):
                    code = cli.main(argv)
            except Exception as exc:  # a crashing call is a failed operation
                traceback.print_exc()
                code = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            timed += elapsed
            records.append({"k": k, "seconds": elapsed, "code": code, "out": out})
    return records


def wait_for_resume() -> None:
    """Tell run.py the worker is idle, and block until it says GO."""
    print(f"{PROTOCOL} PAUSE", flush=True)
    if sys.stdin.readline().strip() != "GO":
        raise RuntimeError("run.py did not resume the worker")


def replay_monotone(call_seed: int, w: Workload, work: str):
    """Grid points where `simulate`'s monotone method formed no interval.

    metrics.json cannot show these: the monotone estimate survives a failed
    plug-in interval.  Returns (missing points, points with no estimate,
    x values where plugin_ci raised), replaying the replications with the
    same seeds, policy, level and Chernoff table as the call.
    """
    from mhrfit import inference, mhr_estimator, simulation

    table = inference.chernoff_table(
        inference.ChernoffConfig(replications=CHERNOFF_REPS),
        cache_path=cache_path(work))
    scenario = simulation.make_scenario("linear")
    policy = mhr_estimator.TruncationPolicy.recommended()
    missing = no_estimate = 0
    plugin_failed = []
    for rep in range(w.reps_per_call):
        sample = simulation.generate_dataset(scenario, w.n, 0.5,
                                             seed=(call_seed, rep))
        try:
            fit = mhr_estimator.fit_theta(sample, policy=policy)
        except ValueError:
            missing += len(STUDY_GRID)
            no_estimate += len(STUDY_GRID)
            continue
        for x in STUDY_GRID:
            try:
                mhr_estimator.theta_at(fit, x)
            except ValueError:
                missing += 1
                no_estimate += 1
                continue
            try:
                inference.plugin_ci(fit, sample, x, 0.05, table)
            except ValueError:
                missing += 1
                plugin_failed.append(x)
    return missing, no_estimate, sorted(plugin_failed)


def analyse(w: Workload, work: str, seed: int, records: list) -> tuple:
    """Check each call's artifacts.

    Returns (errors, attempted grid points, method -> grid points with no
    interval, and per call the digest and the failure points).
    """
    errors, points, missing, per_call = [], 0, {}, []

    def lose(method, count):
        if count:
            missing[method] = missing.get(method, 0) + count

    for rec in records:
        where = f"call {rec['k']}"
        if rec["code"] != 0:
            errors.append(f"{where}: exit {rec['code']}")
            per_call.append(None)
            continue
        out = rec["out"]
        if w.kind == "estimate":
            errors += [f"{where}: {e}" for e in checks.estimate_errors(out)]
            rows = checks.read_ci(out)
            failed = sorted((m, x) for x, _, lo, _, m in rows if lo is None)
            points += len(rows)
            for m, _ in failed:
                lose(m, 1)
            per_call.append({"digest": checks.digest(out, ["fit.json", "ci.csv"]),
                             "failed": [x for m, x in failed if m == "plugin"]})
            continue
        errors += [f"{where}: {e}" for e in checks.study_errors(out, w.reps_per_call)]
        cells = checks.study_summary(out)["cells"]
        lost, no_estimate, plugin_failed = replay_monotone(
            study_seed(seed, rec["k"]), w, work)
        excluded = sum(c["n_excluded"] for c in cells if c["method"] == "monotone")
        if excluded != no_estimate:
            errors.append(f"{where}: replay finds {no_estimate} monotone points "
                          f"without an estimate, metrics.json {excluded}")
        points += w.reps_per_call * len(STUDY_METHODS) * len(STUDY_GRID)
        lose("monotone", lost)
        for c in cells:
            if c["method"] != "monotone":
                lose(c["method"], c["n_excluded"])
        per_call.append({"digest": checks.digest(out, ["metrics.json", "metrics.csv"]),
                         "failed": plugin_failed})
    if w.kind == "estimate":
        first = {}
        for rec, info in zip(records, per_call):
            if info is not None:
                d = first.setdefault(rec["k"] % w.datasets, info["digest"])
                if d != info["digest"]:
                    errors.append(f"call {rec['k']}: artifacts differ from the "
                                  "earlier call on the same dataset")
    return errors, points, missing, per_call


def reference_errors(w: Workload, records: list) -> tuple:
    """Mismatches against reference.json, and how many calls were compared."""
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    expected = reference["workloads"][w.name]
    summarise = (checks.estimate_summary if w.kind == "estimate"
                 else checks.study_summary)
    errors, seen = [], set()
    for rec in records:
        key = str(rec["k"] % w.datasets if w.kind == "estimate" else rec["k"])
        if rec["code"] != 0 or key in seen or key not in expected:
            continue
        seen.add(key)
        errors += [f"reference {w.name}[{key}]{e}" for e in
                   checks.compare(summarise(rec["out"]), expected[key],
                                  reference["rtol"])]
    if not seen:
        errors.append("reference: no call matched a reference entry")
    return errors, len(seen)


def summary_metrics(w: Workload, records: list) -> dict:
    times = [r["seconds"] for r in records]
    return {
        "estimate_s.p50": [statistics.median(times), len(times)],
        "study_reps_per_s": [w.reps_per_call * len(times) / sum(times),
                             w.reps_per_call * len(times)],
    }


def software() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def plugin_failures_from_spans(tracer, label: str, count: int) -> list:
    found = [[] for _ in range(count)]
    for span in tracer.spans:
        call = span[spans.CALL]
        if (span[spans.NAME] == "inference.plugin_ci"
                and span[spans.ERROR] is not None
                and call and call.startswith(label)):
            found[int(call[len(label):])].append(span[spans.ARG])
    return [sorted(xs) for xs in found]


def run(w: Workload, work: str, seed: int, seconds: float, chunks: int,
        trace: bool, spans_path: str | None) -> dict:
    tracer = spans.Tracer() if trace else None
    setup(w, work, seed, tracer)
    print(f"{PROTOCOL} READY", flush=True)
    records = timed_pass(w, work, seed, "A",
                         seconds=seconds / 2 if trace else seconds,
                         chunks=chunks, pause=wait_for_resume)
    traced = []
    if trace:
        tracer.install()
        try:
            traced = timed_pass(w, work, seed, "B", calls=len(records),
                                tracer=tracer)
        finally:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors, points, missing, per_call = analyse(w, work, seed, records)
    result = {
        "workload": w.name, "seed": seed, "n": w.n,
        "reps_per_call": w.reps_per_call,
        "calls": [{k: r[k] for k in ("k", "seconds", "code")} for r in records],
        "failed_calls": sum(r["code"] != 0 for r in records + traced),
        "points": points, "missing_points": missing,
        "peak_rss_mb": peak_rss_mb,
        "metrics": summary_metrics(w, records),
        "software": software(),
    }
    if seed == DEFAULT_SEED:
        ref_errors, compared = reference_errors(w, records)
        errors += ref_errors
        result["reference"] = f"compared {compared} calls"
    else:
        result["reference"] = f"not compared (seed {seed} != {DEFAULT_SEED})"
    if trace:
        errors += trace_checks(w, work, seed, traced, per_call, tracer)
        result.update(
            traced_calls=[{k: r[k] for k in ("k", "seconds", "code")} for r in traced],
            traced_metrics=summary_metrics(w, traced),
            layers=spans.layer_stats(tracer.spans, tracer.absent),
            absent=tracer.absent,
            per_call_by_n=spans.per_call_by_size(tracer.spans),
            plugin_ci_errors=spans.error_messages(tracer.spans,
                                                  "inference.plugin_ci"),
            span_count=len(tracer.spans),
            wrappers_left=spans.installed_wrappers(),
        )
        if result["wrappers_left"]:
            errors.append(f"wrappers left installed: {result['wrappers_left']}")
        if spans_path:
            write_spans(tracer.spans, spans_path)
    result["errors"] = errors
    return result


def trace_checks(w, work, seed, traced, per_call, tracer) -> list:
    """The traced pass must reproduce the untraced one call for call."""
    errors = []
    _, _, _, traced_per_call = analyse(w, work, seed, traced)
    from_spans = plugin_failures_from_spans(tracer, "B", len(traced))
    for k, (plain, with_trace) in enumerate(zip(per_call, traced_per_call)):
        if plain is None or with_trace is None:
            continue
        if plain["digest"] != with_trace["digest"]:
            errors.append(f"call {k}: traced artifacts differ from untraced")
        if plain["failed"] != from_spans[k]:
            errors.append(f"call {k}: plug-in intervals fail at {plain['failed']} "
                          f"untraced but at {from_spans[k]} traced")
    return errors


def write_spans(span_list, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fields = ("name", "start_ns", "end_ns", "parent", "call", "error", "arg",
              "cache_hit")
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for span in span_list:
            fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--dir", required=True, help="work directory")
    parser.add_argument("--chunks", type=int, default=1,
                        help="slices of the timed calls, with a pause between")
    parser.add_argument("--spans", default=None, help="gzipped span file to write")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.role == "setup":
        setup(w, args.dir, args.seed)
        print(f"{PROTOCOL} READY", flush=True)
        return 0
    result = run(w, args.dir, args.seed, args.seconds, args.chunks,
                 args.role == "trace", args.spans)
    print(f"{PROTOCOL} RESULT {json.dumps(result)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
