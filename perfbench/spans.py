"""In-memory spans around calls into mhrfit's public functions.

Only the traced benchmark run installs these wrappers.  `from .x import f`
copies a binding into the importing module, so a wrapper is put at every
binding of a target across the loaded `mhrfit.*` namespaces, not only in
the defining module, and `uninstall` restores each binding it replaced.
"""
from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time

# Layer name -> attribute path inside mhrfit.<module>.  The layer name is
# the prefix of every per-layer metric, <module>.<function>.<stat>.
TARGETS = {
    "cli.main": "main",
    "survival_core.from_arrays": "CensoredSample.from_arrays",
    "survival_core.nelson_aalen": "nelson_aalen",
    "survival_core.kaplan_meier": "kaplan_meier",
    "survival_core.reverse_kaplan_meier": "reverse_kaplan_meier",
    "survival_core.generalized_inverse": "generalized_inverse",
    "gcm.gcm_of_composed_hazards": "gcm_of_composed_hazards",
    "gcm.left_slope_at": "left_slope_at",
    "mhr_estimator.fit_theta": "fit_theta",
    "inference.plugin_ci": "plugin_ci",
    "inference.estimate_tau": "estimate_tau",
    "inference.cv_bandwidth": "cv_bandwidth",
    "inference.split_fit": "split_fit",
    "inference.split_ci": "split_ci",
    "inference.chernoff_table": "chernoff_table",
    "kernel_baseline.smooth_hr_ci": "smooth_hr_ci",
    "kernel_baseline.cv_bandwidth_hazard": "cv_bandwidth_hazard",
    "simulation.generate_dataset": "generate_dataset",
    "simulation.run_study": "run_study",
}

# Layers that take a CensoredSample; their spans record its n
# as ARG so that per-call time can be read against input size.  Spans of
# plugin_ci record the evaluation point x there instead.
SIZED = ("mhr_estimator.fit_theta", "inference.estimate_tau",
         "kernel_baseline.cv_bandwidth_hazard")

CHERNOFF = "inference.chernoff_table"
PLUGIN_CI = "inference.plugin_ci"

# Span fields, kept as a list per span to stay cheap.
NAME, START, END, PARENT, CALL, ERROR, ARG, CACHE_HIT = range(8)


def _cache_stamp(args, kwargs):
    """(mtime, size) of the Chernoff cache file, or None if there is none.

    A call that finds a usable cache leaves the file untouched; a miss
    simulates and rewrites it, so an unchanged stamp marks a hit.
    """
    path = kwargs.get("cache_path", args[2] if len(args) > 2 else None)
    if path is None:
        return None
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_mtime_ns, st.st_size


def failure_reason(message: str) -> str:
    """Short slug for an exception message, used in per-reason counts."""
    if "all candidates infeasible" in message:
        return "cv_infeasible"
    if message.startswith("scale undefined"):
        return "scale_undefined"
    return "other"


def _mhrfit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mhrfit" or name.startswith("mhrfit."))]


class Tracer:
    """Records one span per call of every installed target."""

    def __init__(self):
        self.spans: list[list] = []
        self.call_id: str | None = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, func):
        spans, stack = self.spans, self._stack
        sized = name in SIZED
        chernoff = name == CHERNOFF
        plugin = name == PLUGIN_CI

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.call_id,
                    None, None, None]
            if sized:
                span[ARG] = next((a.n for a in args
                                  if isinstance(getattr(a, "n", None), int)), None)
            elif plugin:
                span[ARG] = kwargs.get("x", args[2] if len(args) > 2 else None)
            stamp = _cache_stamp(args, kwargs) if chernoff else None
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                return func(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = str(exc) or type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
                if chernoff:
                    span[CACHE_HIT] = (stamp is not None
                                       and stamp == _cache_stamp(args, kwargs))

        wrapper.__perfbench_span__ = name
        return wrapper

    def install(self) -> None:
        """Wrap every target at each of its bindings in mhrfit.*."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for name, path in TARGETS.items():
            module = importlib.import_module("mhrfit." + name.split(".")[0])
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(name)
                continue
            if isinstance(raw, classmethod):
                # A classmethod lives on its class, which every module
                # shares, so the class holds the only binding.
                self._patch(owner, attr, raw,
                            classmethod(self._wrap(name, raw.__func__)))
                continue
            wrapped = self._wrap(name, raw)
            for mod in _mhrfit_modules():
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, key, raw, wrapped)

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def installed_wrappers() -> list[str]:
    """Bindings in mhrfit.* that still hold a span wrapper."""
    found = []
    for mod in _mhrfit_modules():
        for key, value in vars(mod).items():
            if hasattr(value, "__perfbench_span__"):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type):
                for attr, member in vars(value).items():
                    inner = getattr(member, "__func__", member)
                    if hasattr(inner, "__perfbench_span__"):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children, in ns."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_stats(spans, absent=()) -> dict:
    """<layer>.<stat> -> value for every target that is not absent.

    s is inclusive seconds, self_s excludes time inside child spans, calls
    counts calls, failed counts calls that raised (with failed.<reason>
    per reason), and cache_hits counts Chernoff tables read from cache.
    """
    own = self_times(spans)
    out = {}
    for name in TARGETS:
        if name in absent:
            continue
        out.update({f"{name}.s": 0.0, f"{name}.self_s": 0.0,
                    f"{name}.calls": 0, f"{name}.failed": 0})
        if name == PLUGIN_CI:
            for reason in ("cv_infeasible", "scale_undefined", "other"):
                out[f"{name}.failed.{reason}"] = 0
        if name == CHERNOFF:
            out[f"{name}.cache_hits"] = 0
    for span, self_ns in zip(spans, own):
        name = span[NAME]
        out[f"{name}.s"] += (span[END] - span[START]) / 1e9
        out[f"{name}.self_s"] += self_ns / 1e9
        out[f"{name}.calls"] += 1
        if span[ERROR] is not None:
            out[f"{name}.failed"] += 1
            key = f"{name}.failed.{failure_reason(span[ERROR])}"
            if key in out:
                out[key] += 1
        if span[CACHE_HIT]:
            out[f"{name}.cache_hits"] += 1
    return out


def per_call_by_size(spans) -> dict:
    """For each sized layer: n -> (calls, median seconds per call)."""
    groups: dict = {name: {} for name in SIZED}
    for span in spans:
        if span[NAME] in groups:
            groups[span[NAME]].setdefault(span[ARG], []).append(
                (span[END] - span[START]) / 1e9)
    return {name: {str(n): [len(ts), statistics.median(ts)]
                   for n, ts in sorted(by_n.items(), key=lambda kv: kv[0] or 0)}
            for name, by_n in groups.items()}


def error_messages(spans, name) -> dict:
    """Exception message -> count for the spans of one layer."""
    counts: dict = {}
    for span in spans:
        if span[NAME] == name and span[ERROR] is not None:
            counts[span[ERROR]] = counts.get(span[ERROR], 0) + 1
    return counts
