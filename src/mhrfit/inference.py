"""Pointwise confidence intervals for the monotone hazard ratio.

Two routes:

* plug-in: theta_n(x) +/- tau_n(x) q_{1-alpha/2} / n^{1/3}, where q is a
  quantile of the Chernoff distribution (simulated once and cached) and
  tau_n estimates the limiting scale from the fitted curves, with the
  derivative of theta_n on the cumulative-hazard scale obtained by a
  cross-validated local linear smoother.  The x-free parts of tau_n (the
  derivative grid, its bandwidth search and the survival curves) are
  built once per fit by `plugin_scale`; only the local slope and the
  curve lookups are done per x.  The bandwidth search sums its
  leave-level-out scores over compact-support windows of the sorted grid,
  in row blocks, so it holds O(block * m) numbers for m grid points
  (`_windows` is shared with the kernel baseline's search);
* sample splitting: average the fits on m random disjoint subsets and form
  a t-interval from their spread, with the t quantile from
  `scipy.special.stdtrit`.

Only `scipy.special` is imported at module level.  The Monte Carlo for the
Chernoff table imports `scipy.optimize.isotonic_regression` when it runs,
so a call that reads a cached table, or needs none, never loads
`scipy.optimize`.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import stdtrit

from .mhr_estimator import MhrFit, TruncationPolicy, fit_theta, theta_at
from .survival_core import (CensoredSample, SurvivalCurve, kaplan_meier,
                            reverse_kaplan_meier)

__all__ = [
    "ChernoffConfig",
    "ChernoffTable",
    "ConfidenceInterval",
    "SplitFit",
    "chernoff_table",
    "cv_bandwidth",
    "PluginScale",
    "plugin_scale",
    "plugin_probability",
    "plugin_ci",
    "split_fit",
    "split_ci",
]

# The probabilities every table covers, as Python floats.
DEFAULT_PROBABILITIES = tuple(
    float(p) for p in np.round(np.arange(1, 1000) / 1000.0, 3))


@dataclass(frozen=True)
class ChernoffConfig:
    """Monte Carlo design for the Chernoff quantile table."""

    replications: int = 100_000
    domain_half_width: float = 10.0
    grid_step: float = 0.005
    seed: int = 1234

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.domain_half_width <= 0 or self.grid_step <= 0:
            raise ValueError("invalid Chernoff Monte Carlo configuration")
        if self.grid_step >= self.domain_half_width:
            raise ValueError("grid step must be smaller than the domain half-width")

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class ChernoffTable:
    """Empirical quantiles of the Chernoff distribution.

    W is the location of the maximum of B(t) - t^2 for a standard two-sided
    Brownian motion B; the left slope at zero of the greatest convex
    minorant of B(t) + t^2 equals 2W, which is what the simulation
    computes on a truncated grid before halving.
    """

    probabilities: tuple[float, ...]
    quantiles: tuple[float, ...]
    mean: float
    variance: float
    config: ChernoffConfig

    def quantile(self, p: float) -> float:
        _check_tabulated(p, self.probabilities)
        return float(np.interp(p, np.asarray(self.probabilities),
                               np.asarray(self.quantiles)))


def _check_tabulated(p: float, probabilities) -> None:
    """Raise ValueError unless p lies in the range of sorted probabilities."""
    if not probabilities[0] <= p <= probabilities[-1]:
        raise ValueError(f"p={p} outside tabulated range "
                         f"[{probabilities[0]}, {probabilities[-1]}]")


def plugin_probability(alpha: float) -> float:
    """1 - alpha/2, the Chernoff probability of a plug-in interval.

    Raises ValueError unless alpha lies in (0, 1) and 1 - alpha/2 lies in
    the range every table covers, [0.001, 0.999]: alpha >= 0.002.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    p = 1.0 - alpha / 2.0
    try:
        _check_tabulated(p, DEFAULT_PROBABILITIES)
    except ValueError as exc:
        raise ValueError(f"alpha={alpha} is too small for a plug-in "
                         f"interval: {exc}") from None
    return p


def _simulate_chernoff(config: ChernoffConfig) -> np.ndarray:
    """Per-replication slope-at-zero draws, already halved to the W scale.

    Replication streams are derived from (seed, replication index) so the
    result does not depend on any execution batching.
    """
    half = int(round(config.domain_half_width / config.grid_step))
    n_grid = 2 * half + 1
    i0 = half
    t = (np.arange(n_grid) - i0) * config.grid_step
    parabola = t * t
    sqrt_step = math.sqrt(config.grid_step)
    # Imported here so that only a cold table pays for scipy.optimize.
    from scipy.optimize import isotonic_regression
    draws = np.empty(config.replications)
    for rep in range(config.replications):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence((config.seed, rep))))
        incr = rng.standard_normal(n_grid - 1) * sqrt_step
        b = np.empty(n_grid)
        b[i0] = 0.0
        np.cumsum(incr[i0:], out=b[i0 + 1:])
        b[:i0] = -np.cumsum(incr[:i0][::-1])[::-1]
        z = b + parabola
        slopes = np.diff(z) / config.grid_step
        # GCM slopes on a uniform grid are the isotonic regression of the
        # finite differences; the segment ending at 0 has index i0 - 1.
        iso = isotonic_regression(slopes).x
        draws[rep] = 0.5 * iso[i0 - 1]
    return draws


def chernoff_table(config: ChernoffConfig = ChernoffConfig(), *,
                   cache_path: str | os.PathLike | None = None) -> ChernoffTable:
    """Build (or load from cache) the quantile table for a MC config.

    The table covers DEFAULT_PROBABILITIES.  A cache file is used only if
    its digest, config and probabilities match; otherwise it is rewritten.
    """
    if cache_path is not None and os.path.isdir(cache_path):
        raise ValueError(f"cache path {cache_path} is a directory")
    if cache_path is not None and os.path.exists(cache_path):
        table = _load_table(cache_path)
        if (table is not None and table.config == config
                and table.probabilities == DEFAULT_PROBABILITIES):
            return table
    draws = _simulate_chernoff(config)
    table = ChernoffTable(
        probabilities=DEFAULT_PROBABILITIES,
        quantiles=tuple(float(q) for q in
                        np.quantile(draws, DEFAULT_PROBABILITIES)),
        mean=float(draws.mean()),
        variance=float(draws.var()),
        config=config,
    )
    if cache_path is not None:
        _save_table(table, cache_path)
    return table


def _save_table(table: ChernoffTable, path: str | os.PathLike) -> None:
    """Write the table as JSON, creating the file's directory if needed."""
    payload = {
        "config": asdict(table.config),
        "config_digest": table.config.digest(),
        "probabilities": list(table.probabilities),
        "quantiles": list(table.quantiles),
        "mean": table.mean,
        "variance": table.variance,
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_table(path: str | os.PathLike) -> ChernoffTable | None:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        config = ChernoffConfig(**payload["config"])
        if payload.get("config_digest") != config.digest():
            return None
        return ChernoffTable(
            probabilities=tuple(payload["probabilities"]),
            quantiles=tuple(payload["quantiles"]),
            mean=payload["mean"],
            variance=payload["variance"],
            config=config,
        )
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError):
        return None


def _epanechnikov(z: np.ndarray) -> np.ndarray:
    """0.75 (1 - z^2) on |z| < 1 and 0 elsewhere, written over z.

    Callers pass a temporary such as d / h.  For |z| >= 1, z*z >= 1 after
    rounding, so the clip at 0 gives the strict support without a
    comparison.
    """
    np.multiply(z, z, out=z)
    np.subtract(1.0, z, out=z)
    z *= 0.75
    return np.maximum(z, 0.0, out=z)


def _local_linear_slope(points, u0: float, bandwidth: float) -> float:
    """Slope of the Epanechnikov-weighted least-squares line at u0."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    pts = np.asarray(points, dtype=float)
    u, y = pts[:, 0], pts[:, 1]
    d = u - u0
    w = _epanechnikov(d / bandwidth)
    active = w > 0
    if np.unique(u[active]).size < 2:
        raise ValueError("bandwidth too small: fewer than 2 points in window")
    sw = w.sum()
    swd = (w * d).sum()
    den = (w * d * d).sum() - swd * swd / sw
    if den <= 0:
        raise ValueError("bandwidth too small: degenerate design")
    num = (w * d * y).sum() - swd * (w * y).sum() / sw
    return float(num / den)


def _select_bandwidth(candidates, score, tolerance) -> float:
    """The candidate of least score (inf: infeasible); ties take the largest.

    ``score`` maps the sorted candidate array to one score per candidate.
    Scores within tolerance(scores) of the least count as ties.
    """
    candidates = np.sort(np.asarray(candidates, dtype=float))
    if np.any(candidates <= 0):
        raise ValueError("bandwidths must be positive")
    scores = np.asarray(score(candidates), dtype=float)
    if not np.any(np.isfinite(scores)):
        raise ValueError("all candidates infeasible")
    best = scores.min()
    return float(candidates[np.nonzero(scores <= best + tolerance(scores))[0][-1]])


# Rows per block of the windowed CV engine: each block holds at most
# _BLOCK x len(x) differences, whatever the bandwidth.
_BLOCK = 64
# Widening of every window, relative to reach + max|x|, that covers the
# rounding of x_j - x_i, of its ratio to h and of the window bounds.
_SLACK = 8.0 * np.finfo(float).eps


def _windows(x: np.ndarray, reaches: np.ndarray):
    """Row blocks of sorted x, each with the columns its kernels can reach.

    For each block of up to _BLOCK rows, yields (rows, cols, d, spans):
    d[i, j] = x[cols][j] - x[rows][i] over the block's widest window, and
    spans[k] is the slice of d's columns within reaches[k] of some row of
    the block (both window ends from ``np.searchsorted``).  The windows are
    widened by a rounding slack, so a compactly supported kernel evaluated
    on d sees every pair it sees on the full pairwise matrix, and its own
    support test decides membership.  Memory is O(_BLOCK * len(x)).
    """
    pad = reaches + _SLACK * (reaches + float(np.abs(x).max()))
    starts = np.arange(0, x.size, _BLOCK)
    stops = np.minimum(starts + _BLOCK, x.size)
    lo = np.searchsorted(x, x[starts] - pad[:, None], "left")
    hi = np.searchsorted(x, x[stops - 1] + pad[:, None], "right")
    for b, (i0, i1) in enumerate(zip(starts.tolist(), stops.tolist())):
        first, last = int(lo[:, b].min()), int(hi[:, b].max())
        spans = [slice(a - first, z - first)
                 for a, z in zip(lo[:, b].tolist(), hi[:, b].tolist())]
        yield (slice(i0, i1), slice(first, last),
               x[first:last] - x[i0:i1, None], spans)


def _loo_predictions(u: np.ndarray, y: np.ndarray, bandwidths: np.ndarray):
    """Leave-level-out local-linear predictions at every u_i, per bandwidth.

    u is sorted.  Row k of the result predicts every point at
    bandwidths[k], or is nan when that bandwidth is infeasible.  Point i is
    predicted with every j where y_j == y_i held out, not just itself.
    With all-distinct responses this is ordinary leave-one-out.  With
    piecewise-constant responses (slopes read off a convex minorant) plain
    LOO lets a point be interpolated by its own flat run, which drives the
    score to favor bandwidths too narrow to see any level change; holding
    the run out scores real smoothing.  Bandwidths whose windows leave some
    point with fewer than two usable neighbors are infeasible.  The five
    row sums are taken over each block's window; the block's differences
    and held-out mask are formed once for every bandwidth.
    """
    pred = np.full((bandwidths.size, u.size), np.nan)
    feasible = np.ones(bandwidths.size, dtype=bool)
    for rows, cols, d, spans in _windows(u, bandwidths):
        y_cols = y[cols]
        held_out = y_cols == y[rows, None]
        for k, (h, span) in enumerate(zip(bandwidths.tolist(), spans)):
            if not feasible[k]:
                continue
            dk = d[:, span]
            w = _epanechnikov(dk / h)
            np.putmask(w, held_out[:, span], 0.0)
            if (w > 0).sum(axis=1).min() < 2:
                feasible[k] = False
                continue
            wd = w * dk
            s0 = w.sum(axis=1)
            s1 = wd.sum(axis=1)
            s2 = (wd * dk).sum(axis=1)
            t0 = w @ y_cols[span]
            t1 = wd @ y_cols[span]
            den = s0 * s2 - s1 * s1
            if den.min() <= 0:
                feasible[k] = False
                continue
            pred[k, rows] = (s2 * t0 - s1 * t1) / den
    pred[~feasible] = np.nan
    return pred


def cv_bandwidth(points, candidates) -> float:
    """Leave-level-out cross-validated bandwidth over a candidate grid.

    Each point is predicted with every point sharing its response held out
    (see `_loo_predictions`).

    Ties within 1e-12 (1 + y.y), which absorbs float noise on exactly-linear
    data, take the largest.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 3:
        raise ValueError("need at least 3 points for cross validation")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    u, y = pts[order, 0], pts[order, 1]

    def scores(bandwidths):
        sums = ((_loo_predictions(u, y, bandwidths) - y) ** 2).sum(axis=1)
        return np.where(np.isnan(sums), np.inf, sums)

    return _select_bandwidth(candidates, scores,
                             lambda _: 1e-12 * (1.0 + float(np.dot(y, y))))


@dataclass(frozen=True)
class ConfidenceInterval:
    x: float
    estimate: float
    lower: float
    upper: float
    level: float
    method: str

    def __post_init__(self):
        if not self.lower <= self.estimate <= self.upper:
            raise ValueError("interval must contain its estimate")
        if self.method not in ("plugin", "split", "kernel"):
            raise ValueError(f"unknown method {self.method!r}")

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def _derivative_grid(fit: MhrFit, n: int):
    """theta_n on the cumulative-hazard scale, on ceil(n^(2/3)) grid points."""
    m = math.ceil(round(n ** (2.0 / 3.0), 9))
    if m < 9:
        raise ValueError("sample too small for the derivative grid")
    grid = np.linspace(0.0, fit.eta_n, m)
    # theta_n(Lambda_T^-(u)) is the hull's left slope at u, its first at u = 0
    left = np.maximum(np.searchsorted(fit.hull.u, grid, "left") - 1, 0)
    return np.column_stack([grid, fit.hull.slopes[left]]), m


@dataclass(frozen=True)
class PluginScale:
    """The x-free parts of the plug-in scale tau_n, built once per fit.

    ``points`` is theta_n o Lambda_T^- on the derivative grid and
    ``bandwidth`` its cross-validated smoothing bandwidth (None for an
    entirely flat fit, whose derivative is zero).  ``survival_S`` and
    ``survival_T`` are the arms' Kaplan-Meier curves, ``censoring_S`` and
    ``censoring_T`` their reverse Kaplan-Meier (censoring) curves.
    ``failure`` holds the message of an x-free error (grid too small,
    bandwidth search failed); ``tau`` raises it for every x inside the
    domain.
    """

    fit: MhrFit
    points: np.ndarray | None
    bandwidth: float | None
    pi_n: float
    survival_S: SurvivalCurve
    survival_T: SurvivalCurve
    censoring_S: SurvivalCurve
    censoring_T: SurvivalCurve
    failure: str | None

    def tau(self, x: float) -> float:
        """Plug-in scale tau_n(x) for the plug-in confidence interval.

        tau^3 = 4 * d/du[theta_n o Lambda_T^-](Lambda_T(x))
                  * [theta/(pi Fbar_S(x) Fbar_U(x-)) +
                     theta^2/((1-pi) Fbar_T(x) Fbar_V(x-))].

        The derivative is clamped at zero: theta_n is nondecreasing, so a
        negative cross-validated slope is smoothing noise.
        """
        fit = self.fit
        if not 0.0 < x < fit.gamma_n:
            raise ValueError(f"x must lie strictly inside (0, gamma_n={fit.gamma_n})")
        if self.failure is not None:
            raise ValueError(self.failure)
        if self.bandwidth is None:
            deriv = 0.0
        else:
            deriv = max(_local_linear_slope(self.points, fit.lambda_T_hat(x),
                                            self.bandwidth), 0.0)
        theta = theta_at(fit, x)
        pi = self.pi_n
        factors = {
            "pi": pi,
            "1-pi": 1.0 - pi,
            "Fbar_S": self.survival_S(x),
            "Fbar_T": self.survival_T(x),
            "Fbar_U": self.censoring_S.left_limit(x),
            "Fbar_V": self.censoring_T.left_limit(x),
        }
        for name, value in factors.items():
            if value <= 0:
                raise ValueError(f"scale undefined at x: {name} estimate is 0")
        bracket = (theta / (pi * factors["Fbar_S"] * factors["Fbar_U"])
                   + theta ** 2 / ((1.0 - pi) * factors["Fbar_T"] * factors["Fbar_V"]))
        return float(np.cbrt(4.0 * deriv * bracket))


def plugin_scale(fit: MhrFit, sample: CensoredSample) -> PluginScale:
    """Derivative grid, CV bandwidth and survival curves of tau_n for a fit.

    The bandwidth search runs here, once; an x-free failure is recorded
    in ``failure`` rather than raised, so that evaluation points outside
    the domain still get their own message first.
    """
    points = bandwidth = failure = None
    try:
        points, m = _derivative_grid(fit, sample.n)
        if np.unique(points[:, 1]).size > 1:
            candidates = np.geomspace(4.0 * fit.eta_n / m, fit.eta_n / 2.0, 20)
            bandwidth = cv_bandwidth(points, candidates)
    except ValueError as exc:
        failure = str(exc)
    return PluginScale(fit=fit, points=points, bandwidth=bandwidth,
                       pi_n=sample.pi_n,
                       survival_S=kaplan_meier(sample, 1),
                       survival_T=kaplan_meier(sample, 0),
                       censoring_S=reverse_kaplan_meier(sample, 1),
                       censoring_T=reverse_kaplan_meier(sample, 0),
                       failure=failure)


def estimate_tau(fit: MhrFit, sample: CensoredSample, x: float) -> float:
    """tau_n(x) for one x; callers use `plugin_scale(fit, sample).tau(x)`.

    Not exported and not called: the benchmark's trace list
    (perfbench/spans.py) still names this layer, and it goes when that
    list names `plugin_scale` instead.
    """
    return plugin_scale(fit, sample).tau(x)


def plugin_ci(fit: MhrFit, sample: CensoredSample, x: float, alpha: float,
              chernoff: ChernoffTable,
              scale: PluginScale | None = None) -> ConfidenceInterval:
    """theta_n(x) +/- tau_n(x) q_{1-alpha/2} / n^{1/3}.

    ``scale`` is ``plugin_scale(fit, sample)``; pass it when evaluating
    many x on one fit, so the bandwidth search runs once.
    """
    p = plugin_probability(alpha)
    if scale is None:
        scale = plugin_scale(fit, sample)
    elif scale.fit is not fit:
        raise ValueError("scale was built for another fit")
    tau = scale.tau(x)
    q = chernoff.quantile(p)
    half = float(tau * q / np.cbrt(sample.n))
    estimate = theta_at(fit, x)
    return ConfidenceInterval(x=x, estimate=estimate, lower=estimate - half,
                              upper=estimate + half, level=1.0 - alpha,
                              method="plugin")


@dataclass(frozen=True)
class SplitFit:
    """Fits on m random disjoint subsets, evaluable at any x."""

    fits: tuple[MhrFit, ...]
    m: int

    def estimates_at(self, x: float) -> list[float]:
        short = [f.gamma_n for f in self.fits if f.gamma_n < x]
        if short:
            raise ValueError(
                f"fewer than m usable splits at x={x}: "
                f"a split truncates at {min(short)}")
        return [theta_at(f, x) for f in self.fits]


def split_fit(sample: CensoredSample, m: int,
              policy: TruncationPolicy = TruncationPolicy(),
              seed=0) -> SplitFit:
    """Fit theta_n on m random disjoint subsets of roughly equal size."""
    if m < 2:
        raise ValueError("m must be at least 2")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(sample.n)
    fits = []
    for part in np.array_split(perm, m):
        idx = np.sort(part)
        try:
            sub = CensoredSample(sample.time[idx], sample.status[idx], sample.arm[idx])
            fits.append(fit_theta(sub, policy))
        except ValueError as exc:
            raise ValueError("split degenerate; reduce m") from exc
    return SplitFit(fits=tuple(fits), m=m)


def split_ci(splitfit: SplitFit, x: float, alpha: float) -> ConfidenceInterval:
    """t-interval from the spread of the per-split estimates."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    estimates = splitfit.estimates_at(x)
    pooled = float(np.mean(estimates))
    sd = float(np.std(estimates, ddof=1))
    tq = float(stdtrit(splitfit.m - 1, 1.0 - alpha / 2.0))
    half = tq * sd / math.sqrt(splitfit.m)
    return ConfidenceInterval(x=x, estimate=pooled, lower=pooled - half,
                              upper=pooled + half, level=1.0 - alpha,
                              method="split")
