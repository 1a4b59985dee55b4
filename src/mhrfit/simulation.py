"""Synthetic two-arm studies with known monotone hazard ratios.

Three scenarios share the control hazard family
lambda(x) = 0.25 + sin^2(6 pi x) and differ in the treatment arm so that
the true ratio is linear, convex, or concave.  Cumulative hazards have
closed forms (the concave case needs a Fresnel integral), so event times
come from exact inversion of Exp(1) draws.  Each event time is the
midpoint of the final dyadic bracket of a bisection to 1e-10.  The
bracket's top, the first power of two where the cumulative hazard
reaches the target, comes from a running maximum of the hazard at
1, 2, 4, ..., 2**79, evaluated once for all targets; a target that no
power reaches, NaN included, is refused.  A secant root finds the final
bracket in about a seventh of the bisection's evaluations of the
cumulative hazard (about 6 per target against 41-43), and a check of its
two ends certifies it, so every dataset is bitwise the one the bisection
gives.  Censoring is exponential-ish on [0, 2] with atoms at 1 and 2.

`run_study` runs replications of estimate-plus-interval at fixed
evaluation points and aggregates scaled bias, scaled variance, mse and
coverage per method.  Replications are independently seeded, so serial
and process-parallel runs aggregate identically.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Callable

import numpy as np

from .inference import (ChernoffConfig, ChernoffTable, _integer_fields,
                        _interval_probability, _plain_int, _process_pool,
                        chernoff_table, plugin_ci, plugin_probability,
                        plugin_scale, split_ci, split_fit)
from .kernel_baseline import smooth_hr_ci, smooth_hr_fit
from .mhr_estimator import fit_theta, theta_at
from .survival_core import CensoredSample

__all__ = [
    "Scenario",
    "SCENARIOS",
    "make_scenario",
    "generate_dataset",
    "StudyConfig",
    "MetricCell",
    "StudyMetrics",
    "run_study",
]

_A = 12.0 * math.pi


def _base_hazard(x):
    # 0.25 + sin^2(6 pi x), written via the double angle to match the integrals
    return 0.75 - 0.5 * np.cos(_A * np.asarray(x, dtype=float))


def _cum_base(x):
    x = np.asarray(x, dtype=float)
    return 0.75 * x - np.sin(_A * x) / (2.0 * _A)


def _cum_linear(x):
    # integral of t * base(t)
    x = np.asarray(x, dtype=float)
    s, c = np.sin(_A * x), np.cos(_A * x)
    return 0.375 * x ** 2 - 0.5 * (x * s / _A + (c - 1.0) / _A ** 2)


def _cum_quadratic(x):
    # integral of t^2 * base(t)
    x = np.asarray(x, dtype=float)
    s, c = np.sin(_A * x), np.cos(_A * x)
    return 0.25 * x ** 3 - 0.5 * (x ** 2 * s / _A + 2.0 * x * c / _A ** 2
                                  - 2.0 * s / _A ** 3)


def _cum_sqrt(x):
    # integral of sqrt(t) * base(t); the oscillatory part is a Fresnel S integral
    x = np.asarray(x, dtype=float)
    r = np.sqrt(x)
    # imported here so that only the concave scenario pays for scipy.special
    from scipy.special import fresnel
    fs, _ = fresnel(np.sqrt(2.0 * _A * x / math.pi))
    return 0.5 * x ** 1.5 - 0.5 * (r * np.sin(_A * x) / _A
                                   - math.sqrt(math.pi / (2.0 * _A)) * fs / _A)


@dataclass(frozen=True)
class Scenario:
    """One synthetic-study configuration with its exact functionals."""

    name: str
    true_theta: Callable
    hazard_treatment: Callable
    hazard_control: Callable
    cumulative_treatment: Callable
    cumulative_control: Callable


# The built-in scenarios by name: what `make_scenario`, the study and
# `simulate --scenario` accept.
SCENARIOS = {scenario.name: scenario for scenario in (
    Scenario("linear", lambda x: np.asarray(x, dtype=float) + 0.0,
             lambda x: np.asarray(x) * _base_hazard(x), _base_hazard,
             _cum_linear, _cum_base),
    Scenario("convex", lambda x: np.asarray(x, dtype=float) ** 2,
             lambda x: np.asarray(x) ** 2 * _base_hazard(x), _base_hazard,
             _cum_quadratic, _cum_base),
    Scenario("concave", lambda x: np.sqrt(np.asarray(x, dtype=float)),
             lambda x: np.asarray(x) * _base_hazard(x),
             lambda x: np.sqrt(np.asarray(x)) * _base_hazard(x),
             _cum_linear, _cum_sqrt),
)}


def make_scenario(name: str) -> Scenario:
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}")
    return SCENARIOS[name]


# The bracket tops 1, 2, 4, ..., 2**79 that an event time may need; the
# start table's size and the secant steps that polish each start; a root
# below _NEAR_ZERO * top goes to the bisection (see _invert_cumulative).
_POWERS = np.ldexp(1.0, np.arange(80))
_TABLE_POINTS = 4097
_SECANT_STEPS = 4
_NEAR_ZERO = 2.0 ** -10


def _invert_cumulative(cum: Callable, targets: np.ndarray) -> np.ndarray:
    """Solve cum(t) = target per entry, bitwise as a bisection to 1e-10.

    The bisection is defined by its dyadic brackets.  Each target's upper
    end `top` is the first of 1, 2, 4, ..., 2**79 with cum(top) >= target,
    which is where the running maximum of cum over those powers first
    reaches the target, however cum rounds; one evaluation of cum at the
    80 powers finds every target's top.  A target that no power reaches,
    infinite or NaN, is refused.  From [0, top], `steps` exact halvings
    leave a bracket [lo, lo + delta] with delta = top / 2**steps, where
    `steps`, one for all targets, is the number of halvings of top.max(),
    a power of two, down to 1e-10 or less: 34 more than its exponent,
    since 2**-34 < 1e-10 < 2**-33.  The answer is the bracket's midpoint
    lo + delta / 2, where lo is the multiple of delta with
    cum(lo) < target <= cum(lo + delta).

    A secant root, started from a table of cum, is snapped down to a
    multiple of delta and checked with those two comparisons.  They are
    comparisons the bisection makes on its way to [lo, lo + delta], and
    every other point it tests there lies in [lo / 2, top], beyond one of
    the bracket's ends.  So where the computed cum does not decrease over
    [lo / 2, top] at the scale of delta, those points fall on the same
    side of the target and the bisection ends in the same bracket.  The
    built-in hazards vanish only at 0, where their closed forms cancel
    terms and the computed cum is not monotone at that scale, so a bracket
    below _NEAR_ZERO * top is not trusted.  The targets that fail the
    check are bisected from [0, top].
    """
    targets = np.asarray(targets, dtype=float)
    k = np.searchsorted(np.maximum.accumulate(cum(_POWERS)), targets)
    if np.any(k == _POWERS.size):
        raise ValueError("failed to bracket event time")
    top = _POWERS[k]
    steps = int(k.max()) + 34
    delta = np.ldexp(top, -steps)
    root = _secant_root(cum, targets, float(top.max()))
    lo = np.clip(np.floor(root / delta) * delta, 0.0, top - delta)
    fails = ~((lo >= _NEAR_ZERO * top) & (cum(lo) < targets)
              & (targets <= cum(lo + delta)))
    if fails.any():
        goal = targets[fails]
        left, right = np.zeros_like(goal), top[fails]
        for _ in range(steps):
            mid = 0.5 * (left + right)
            below = cum(mid) < goal
            left = np.where(below, mid, left)
            right = np.where(below, right, mid)
        lo[fails] = left
    return lo + 0.5 * delta


def _secant_root(cum: Callable, targets: np.ndarray, top: float) -> np.ndarray:
    """Approximate roots of cum(t) = target on [0, top].

    Linear interpolation in a table of cum over [0, top] starts each root,
    and secant steps from the table point above it polish it.  A step
    that is not finite, where the secant has converged and divides zero
    by zero, is skipped without a warning.
    """
    grid = np.linspace(0.0, top, _TABLE_POINTS)
    table = cum(grid)
    i = np.clip(np.searchsorted(table, targets), 1, _TABLE_POINTS - 1)
    a, fa, prev, fprev = grid[i - 1], table[i - 1], grid[i], table[i]
    x = a + (targets - fa) * (prev - a) / (fprev - fa)
    fprev = fprev - targets
    for _ in range(_SECANT_STEPS):
        f = cum(x) - targets
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f * (x - prev) / (f - fprev)
        x, prev, fprev = np.where(np.isfinite(step), x - step, x), x, f
    return x


def _censoring_quantile(p: np.ndarray) -> np.ndarray:
    """Inverse of the censoring cdf: exponential pieces and atoms at 1 and 2."""
    p = np.asarray(p, dtype=float)
    c_below_1 = 1.0 - math.exp(-0.1)
    c_at_1 = 1.0 - math.exp(-0.15)
    c_below_2 = 1.0 - math.exp(-0.3)
    out = np.full_like(p, 2.0)
    piece1 = p < c_below_1
    atom1 = (~piece1) & (p < c_at_1)
    piece2 = (~piece1) & (~atom1) & (p < c_below_2)
    out[piece1] = -np.log1p(-p[piece1]) / 0.1
    out[atom1] = 1.0
    out[piece2] = -np.log1p(-p[piece2]) / 0.15
    return out


def _sample_censoring(rng: np.random.Generator, size) -> np.ndarray:
    return _censoring_quantile(1.0 - rng.random(size))


def generate_dataset(scenario: Scenario, n: int, pi: float,
                     seed) -> CensoredSample:
    """One synthetic dataset: arm flags, event times by inversion, censoring."""
    if _plain_int(n) is None:
        raise ValueError(f"n must be an integer, got {n!r}")
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0.0 < pi < 1.0:
        raise ValueError("pi must lie in (0, 1)")
    key = tuple(_plain_int(k)
                for k in (seed if isinstance(seed, tuple) else (seed,)))
    if not all(k is not None and k >= 0 for k in key):
        raise ValueError("seed must be a nonnegative integer or a tuple of "
                         f"them, got {seed!r}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))
    arm = (rng.random(n) < pi).astype(np.int64)
    targets = rng.exponential(size=n)
    event = np.empty(n, dtype=float)
    for a, cum in ((0, scenario.cumulative_control),
                   (1, scenario.cumulative_treatment)):
        mask = arm == a
        if mask.any():
            event[mask] = _invert_cumulative(cum, targets[mask])
    censor = _sample_censoring(rng, size=n)
    time = np.minimum(event, censor)
    status = (event <= censor).astype(np.int64)
    return CensoredSample.from_arrays(time, status, arm)


@dataclass(frozen=True)
class StudyConfig:
    """Everything a study run depends on, all hashable and process-safe."""

    scenario: str
    n: int
    replications: int
    grid: tuple[float, ...]
    alpha: float = 0.05
    # the default is every method the study knows
    methods: tuple[str, ...] = ("monotone", "split", "kernel")
    seed: int = 0
    splits: int = 5
    threads: int = 1
    chernoff: ChernoffConfig = field(default_factory=ChernoffConfig)
    chernoff_cache: str | None = None

    def __post_init__(self):
        _integer_fields(self, "n", "replications", "seed", "splits", "threads")
        make_scenario(self.scenario)
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if not self.grid:
            raise ValueError("grid must not be empty")
        if not all(0.0 < x < 2.0 for x in self.grid):
            raise ValueError("grid points must lie in (0, 2)")
        for i, x in enumerate(self.grid):
            if x in self.grid[:i]:
                raise ValueError(f"grid point {x!r} repeated")
        _interval_probability(self.alpha)
        if not self.methods:
            raise ValueError("methods must not be empty")
        for i, method in enumerate(self.methods):
            if method not in StudyConfig.methods:
                raise ValueError(f"unknown method {method!r}")
            if method in self.methods[:i]:
                raise ValueError(f"method {method!r} repeated")
        if "monotone" in self.methods:
            plugin_probability(self.alpha)
        if self.splits < 2 or self.threads < 1:
            raise ValueError("need splits >= 2 and threads >= 1")


@dataclass(frozen=True)
class MetricCell:
    method: str
    x: float
    n: int
    scaled_bias: float
    scaled_var: float
    mse: float
    coverage: float
    n_excluded: int


@dataclass(frozen=True)
class StudyMetrics:
    cells: tuple[MetricCell, ...]

    def to_csv_text(self) -> str:
        names = [f.name for f in fields(MetricCell)]
        lines = [",".join(names)]
        for c in self.cells:
            lines.append(",".join(str(getattr(c, name)) for name in names))
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        import json

        def clean(v):
            return None if isinstance(v, float) and math.isnan(v) else v

        rows = [{k: clean(v) for k, v in asdict(c).items()} for c in self.cells]
        return json.dumps({"cells": rows}, indent=2, sort_keys=True) + "\n"


def _estimators(method: str, config: StudyConfig, sample: CensoredSample,
                rep: int, table: ChernoffTable | None):
    """A method's (point estimate at x or None, interval at x) for one sample.

    The fit runs here, once; both callables raise ValueError at a point
    they cannot serve.  The monotone estimate comes from its own call, so
    it is kept when the plug-in interval fails.
    """
    if method == "monotone":
        fit = fit_theta(sample)
        scale = plugin_scale(fit, sample)
        return (lambda x: theta_at(fit, x),
                lambda x: plugin_ci(fit, sample, x, config.alpha, table,
                                    scale=scale))
    if method == "split":
        sfit = split_fit(sample, config.splits, seed=(config.seed, rep, 1))
        return None, lambda x: split_ci(sfit, x, alpha=config.alpha)
    kfit = smooth_hr_fit(sample)
    return None, lambda x: smooth_hr_ci(kfit, x, alpha=config.alpha)


def _run_replication(payload):
    """Worker for one replication; maps each method to its result arrays.

    Estimates are nan when the point is not estimable for that replication
    (for example beyond the truncation time); interval endpoints are nan
    when no interval could be formed.
    """
    config, table, rep = payload
    # balanced arms, the only allocation the study draws
    sample = generate_dataset(make_scenario(config.scenario), config.n, 0.5,
                              seed=(config.seed, rep))
    grid = np.asarray(config.grid, dtype=float)
    out = {}
    for method in config.methods:
        est, lo, hi = (np.full(grid.size, np.nan) for _ in range(3))
        out[method] = (est, lo, hi)
        try:
            point, interval = _estimators(method, config, sample, rep, table)
        except ValueError:
            continue
        for i, x in enumerate(grid):
            try:
                if point is not None:
                    est[i] = point(x)
                ci = interval(x)
            except ValueError:
                continue
            est[i], lo[i], hi[i] = ci.estimate, ci.lower, ci.upper
    return out


def run_study(config: StudyConfig) -> StudyMetrics:
    """Run all replications and aggregate error and coverage metrics."""
    table = None
    if "monotone" in config.methods:
        table = chernoff_table(config.chernoff, cache_path=config.chernoff_cache)
    payloads = [(config, table, rep) for rep in range(config.replications)]
    # one worker per chunk of four replications at most
    workers = min(config.threads, math.ceil(config.replications / 4))
    pool = _process_pool(workers) if config.threads > 1 else None
    if pool is None:
        results = [_run_replication(payload) for payload in payloads]
    else:
        with pool:
            results = list(pool.map(_run_replication, payloads, chunksize=4))
    return _aggregate(config, results)


def _aggregate(config: StudyConfig, results) -> StudyMetrics:
    """Metric cells per method and grid point from the replications' results.

    results holds one mapping per replication, in order, from each method
    of config.methods to its (estimate, lower, upper) arrays over the grid.
    """
    grid = np.asarray(config.grid, dtype=float)
    scenario = make_scenario(config.scenario)
    truth = np.asarray(scenario.true_theta(grid), dtype=float)
    cells = []
    root_n = float(np.cbrt(config.n))
    for method in config.methods:
        # rows are replications, in order; columns are grid points
        est, lo, hi = (np.array(a) for a in
                       zip(*(out[method] for out in results)))
        for i, x in enumerate(grid):
            truth_i = float(truth[i])
            ok = ~np.isnan(est[:, i])
            n_ok = int(ok.sum())
            if n_ok > 0:
                vals = est[ok, i]
                bias = float(np.mean(vals)) - truth_i
                scaled_bias = root_n * abs(bias)
                mse = float(np.mean((vals - truth_i) ** 2))
                scaled_var = (root_n ** 2 * float(np.var(vals, ddof=1))
                              if n_ok > 1 else float("nan"))
            else:
                scaled_bias = scaled_var = mse = float("nan")
            ci_ok = ~np.isnan(lo[:, i]) & ~np.isnan(hi[:, i])
            if ci_ok.any():
                covered = (lo[ci_ok, i] <= truth_i) & (truth_i <= hi[ci_ok, i])
                coverage = float(np.mean(covered))
            else:
                coverage = float("nan")
            cells.append(MetricCell(method=method, x=float(x), n=config.n,
                                    scaled_bias=scaled_bias,
                                    scaled_var=scaled_var, mse=mse,
                                    coverage=coverage,
                                    n_excluded=config.replications - n_ok))
    return StudyMetrics(cells=tuple(cells))
