"""mhrfit benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; mhrfit is imported from its src/.  With
--trace 0 the run sets up several times (each in a fresh process, the
last of which goes on to the timed calls) and reports the end-to-end
metrics of BENCHMARK.json.  With --trace 1 it reports the per-layer
metrics from spans around mhrfit's public functions.  The last line of
standard output is the result; README.md beside this file explains the
workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
PROTOCOL = "PERFBENCH"
SETUP_REPEATS = 3          # set-ups per untraced run; setup_s is their median
CHILD_TIMEOUT_S = 150.0    # every worker process is killed after this


class BenchError(Exception):
    """The run could not produce a result."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # One BLAS thread (never more than nproc); the study runs --threads 1.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(root: str, args, role: str, work: str, *, chunks=1,
               on_pause=None, spans=None):
    """Start worker.py; return (seconds from spawn to READY, RESULT or None).

    Each time the worker pauses between slices of its timed calls,
    `on_pause()` runs while it waits.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--role", role, "--dir", work,
           "--chunks", str(chunks)]
    if spans:
        cmd += ["--spans", spans]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith(f"{PROTOCOL} READY"):
                ready = time.perf_counter() - start
            elif line.startswith(f"{PROTOCOL} PAUSE"):
                on_pause()
                proc.stdin.write("GO\n")
                proc.stdin.flush()
            elif line.startswith(f"{PROTOCOL} RESULT "):
                result = json.loads(line[len(PROTOCOL) + 8:])
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdin.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None or (role != "setup" and result is None):
        raise BenchError(f"worker ({role}) exited {code} before finishing")
    return ready, result


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model or platform.processor(),
            "platform": platform.platform()}


def source_identity(root: str) -> dict:
    """The git commit when there is one, and always a digest of src/."""
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, _, filenames in sorted(os.walk(src)):
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def report(line: str) -> None:
    print(line, flush=True)


def untraced(root, args, work, declared) -> tuple:
    """Time calls in one worker; between slices of them, set up again.

    Each extra set-up runs in its own fresh process while the worker
    idles, so set-ups and timed calls never share the CPUs.  Spreading the
    calls over the run also samples a noisy machine over a longer stretch.
    """
    setups = []

    def extra_setup():
        setup_dir = os.path.join(work, f"setup{len(setups)}")
        setups.append(run_worker(root, args, "setup", setup_dir)[0])
        shutil.rmtree(setup_dir, ignore_errors=True)

    ready, result = run_worker(root, args, "run", os.path.join(work, "run"),
                               chunks=SETUP_REPEATS, on_pause=extra_setup)
    setups.insert(0, ready)
    calls = len(result["calls"])
    attempted = calls + result["points"]
    missing = result["missing_points"]
    failed = result["failed_calls"] + sum(missing.values())
    values = {
        "estimate_s.p50": result["metrics"]["estimate_s.p50"],
        "study_reps_per_s": result["metrics"]["study_reps_per_s"],
        "setup_s": [statistics.median(setups), len(setups)],
        "peak_rss_mb": [result["peak_rss_mb"], 1],
        "success_share": [1.0 - failed / attempted, attempted],
    }
    report(f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}")
    report(f"failed_share: {failed / attempted:.6f} ratio "
           f"({result['failed_calls']} calls with a nonzero exit + "
           f"{sum(missing.values())} grid points with no interval "
           f"{json.dumps(missing, sort_keys=True)}, "
           f"of {calls} calls + {result['points']} grid points)")
    for name, unit in declared.items():
        value, samples = values[name]
        report(f"{name}: {value:.6g} {unit} (samples: {samples})")
    return result, {name: values[name][0] for name in declared}


def traced(root, args, work, declared) -> tuple:
    spans_file = os.path.join(root, ".perfbench", f"spans-{args.workload}.jsonl.gz")
    _, result = run_worker(root, args, "trace", os.path.join(work, "trace"),
                           spans=spans_file)
    layers = result["layers"]
    plain, with_trace = result["metrics"], result["traced_metrics"]
    layers["trace_overhead_s"] = (with_trace["estimate_s.p50"][0]
                                  - plain["estimate_s.p50"][0])
    report(f"spans: {result['span_count']} written to "
           f"{os.path.relpath(spans_file, root)}")
    report(f"tracing overhead: estimate_s.p50 {plain['estimate_s.p50'][0]:.4f} s "
           f"untraced -> {with_trace['estimate_s.p50'][0]:.4f} s traced; "
           f"study_reps_per_s {plain['study_reps_per_s'][0]:.4f} -> "
           f"{with_trace['study_reps_per_s'][0]:.4f} 1/s "
           f"({len(result['traced_calls'])} calls each)")
    for layer, by_n in result["per_call_by_n"].items():
        text = "; ".join(f"n={n}: {ms * 1e3:.3f} ms x {count}"
                         for n, (count, ms) in by_n.items()) or "not called"
        report(f"per call {layer}: {text}")
    for message, count in sorted(result["plugin_ci_errors"].items()):
        report(f"inference.plugin_ci raised {count}x: {message}")
    for layer in result["absent"]:
        report(f"absent layer (function no longer exists): {layer}")
    metrics = {}
    for name, unit in declared.items():
        if name not in layers:
            report(f"{name}: absent")
            continue
        metrics[name] = layers[name]
        report(f"{name}: {layers[name]:.6g} {unit}")
    return result, metrics


def load_declared(root: str, trace: bool) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mhrfit", "cli.py")):
        print("error: run from the root of an mhrfit checkout "
              "(src/mhrfit/cli.py not found)", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    declared = load_declared(root, bool(args.trace))
    work = os.path.join(root, ".perfbench", f"work-{args.workload}-{os.getpid()}")
    try:
        report(f"workload {args.workload}, seed {args.seed}, "
               f"{args.seconds:g} s, trace {args.trace}")
        report(f"machine: {json.dumps(machine())}")
        report(f"source: {json.dumps(source_identity(root))}")
        run = traced if args.trace else untraced
        result, metrics = run(root, args, work, declared)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(f"software: {json.dumps(result['software'])}")
    report(f"inputs: n={result['n']}, replications per call="
           f"{result['reps_per_call']}, calls={len(result['calls'])}; "
           f"reference: {result['reference']}")
    for error in result["errors"]:
        report(f"CHECK FAILED: {error}")
    correct = not result["errors"]
    report(json.dumps({
        "correct": correct,
        "attempted": len(result["calls"]) + len(result.get("traced_calls", [])),
        "failed": result["failed_calls"],
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
