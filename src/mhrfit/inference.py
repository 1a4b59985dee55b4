"""Pointwise confidence intervals for the monotone hazard ratio.

Two routes:

* plug-in: theta_n(x) +/- tau_n(x) q_{1-alpha/2} / n^{1/3}, where q is a
  quantile of the Chernoff distribution (simulated once and cached) and
  tau_n estimates the limiting scale from the fitted curves, with the
  derivative of theta_n on the cumulative-hazard scale obtained by a
  cross-validated local linear smoother.  The x-free parts of tau_n (the
  derivative grid, its bandwidth search and the survival curves) are
  built once per fit by `plugin_scale`; only the local slope and the
  curve lookups are done per x.  The bandwidth search takes the grid as
  it comes, distinct abscissae with nondecreasing responses (the hull's
  slopes), so each response level is one run of the grid.  It reads each
  grid point's window sums, with its level's run held out, off
  cumulative moments (`_Moments`, shared with the kernel baseline's
  search): for K candidates and m grid points it takes O(K m log m)
  time, the log for the exact window ends, and holds O(m) numbers per
  candidate, at most _BLOCK // 3 candidates at a time;
* sample splitting: average the fits on m random disjoint subsets and form
  a t-interval from their spread, with the t quantile from `_t_quantile`,
  Newton steps on the closed-form t distribution function for integer
  degrees of freedom.

The Monte Carlo for a cold Chernoff table runs on a process pool with one
worker per usable CPU (`taskset` limits them); every replication draws from
its own seeded stream, so the table is bitwise the same for any number of
workers.  A small table, or a process with one usable CPU, runs it
in-process.

No scipy module is imported at module level, so plug-in intervals from a
cached table and split intervals run on numpy alone.  The Monte Carlo
imports `scipy.optimize.isotonic_regression` where it runs: in the pool's
workers for a large table, in the calling process for a small one.  A
call that reads a cached table, or needs none, never loads
`scipy.optimize`.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import math
import operator
import os
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

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

# Replications per chunk of a cold table's Monte Carlo on the process pool;
# a table of fewer than two chunks is built in-process.
_MIN_REPS_PER_WORKER = 2500


@dataclass(frozen=True)
class ChernoffConfig:
    """Monte Carlo design for the Chernoff quantile table."""

    replications: int = 100_000
    domain_half_width: float = 10.0
    grid_step: float = 0.005
    seed: int = 1234

    def __post_init__(self):
        _integer_fields(self, "replications", "seed")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.seed < 0:
            raise ValueError(
                f"ChernoffConfig seed must be nonnegative, got {self.seed}")
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
        return float(np.interp(p, *self._interpolation_nodes))

    @cached_property
    def _interpolation_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        # built on the first quantile call; not a field, so equality,
        # asdict and the cache file see only the tuples
        return np.asarray(self.probabilities), np.asarray(self.quantiles)


def _plain_int(value) -> int | None:
    """value as a plain int when it is an integer (a numpy one too), else None.

    A bool is refused: it is an integer to Python, but never a count or a
    seed here.
    """
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _integer_fields(config, *names) -> None:
    """Store each named field of a frozen dataclass as a plain int.

    Any integer (a numpy integer too) passes through `operator.index`, so
    the field hashes into the digest and serialises as JSON; a float or a
    bool raises ValueError naming the field.
    """
    for name in names:
        value = getattr(config, name)
        index = _plain_int(value)
        if index is None:
            raise ValueError(f"{type(config).__name__} {name} must be an "
                             f"integer, got {value!r}")
        object.__setattr__(config, name, index)


def _check_tabulated(p: float, probabilities) -> None:
    """Raise ValueError unless p lies in the range of sorted probabilities."""
    if not probabilities[0] <= p <= probabilities[-1]:
        raise ValueError(f"p={p} outside tabulated range "
                         f"[{probabilities[0]}, {probabilities[-1]}]")


def _interval_probability(alpha: float) -> float:
    """1 - alpha/2, the probability whose quantile sets a two-sided interval.

    Raises ValueError unless alpha lies in (0, 1) and 1 - alpha/2 stays
    below 1 in floating point (alpha above about 1.1e-16).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    p = 1.0 - alpha / 2.0
    if p == 1.0:
        raise ValueError(f"alpha={alpha} is too small: 1 - alpha/2 rounds to 1")
    return p


def plugin_probability(alpha: float) -> float:
    """1 - alpha/2, the Chernoff probability of a plug-in interval.

    Raises ValueError unless alpha lies in (0, 1) and 1 - alpha/2 lies in
    the range every table covers, [0.001, 0.999]: alpha >= 0.002.
    """
    p = _interval_probability(alpha)
    try:
        _check_tabulated(p, DEFAULT_PROBABILITIES)
    except ValueError as exc:
        raise ValueError(f"alpha={alpha} is too small for a plug-in "
                         f"interval: {exc}") from None
    return p


def _usable_cpus() -> int:
    """How many CPUs this process may run on.

    The affinity mask counts (so `taskset -c 0` gives 1) where the OS has
    one; elsewhere this is `os.cpu_count()`.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _process_pool(workers: int):
    """A process pool of `workers` workers, or None in a daemonic process.

    A daemonic process (a multiprocessing.Pool worker) may not start one.
    The pool machinery is imported here, so that only a call that may start
    a pool loads it: a cold table of 2 * _MIN_REPS_PER_WORKER replications
    or more on two usable CPUs or more, and `run_study` with threads
    above 1.

    The pool uses the platform's default start method: fork on Linux.
    Spawned workers re-import numpy, scipy and mhrfit (a 20k table took
    4.1-4.6 s against 3.4-3.6 s forked, on a 2-CPU VM) and re-run a calling
    script that lacks a __main__ guard.
    """
    import multiprocessing
    if multiprocessing.current_process().daemon:
        return None
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def _simulate_chernoff(config: ChernoffConfig) -> np.ndarray:
    """Per-replication slope-at-zero draws, already halved to the W scale.

    Replication streams are derived from (seed, replication index) so the
    result does not depend on any execution batching: contiguous chunks
    of _MIN_REPS_PER_WORKER replications run on one worker per usable CPU,
    at most one per full chunk, and are concatenated in order.  With fewer
    than two workers, or inside a daemonic process, the draws are made
    in-process.
    """
    reps = config.replications
    workers = min(_usable_cpus(), reps // _MIN_REPS_PER_WORKER)
    pool = _process_pool(workers) if workers >= 2 else None
    if pool is None:
        return _chernoff_draws(config, 0, reps)
    starts = range(0, reps, _MIN_REPS_PER_WORKER)
    stops = [min(start + _MIN_REPS_PER_WORKER, reps) for start in starts]
    try:
        return np.concatenate(list(pool.map(
            _chernoff_draws, [config] * len(stops), starts, stops)))
    finally:
        # after a worker's error the chunks not yet started are dropped;
        # either way every worker has exited when this returns
        pool.shutdown(wait=True, cancel_futures=True)


def _chernoff_draws(config: ChernoffConfig, start: int, stop: int) -> np.ndarray:
    """The draws of replications start, ..., stop - 1, in order.

    One Brownian path lives in buffers allocated once per call: the
    increments, the path plus parabola z, and its finite-difference
    slopes.
    """
    half = int(round(config.domain_half_width / config.grid_step))
    n_grid = 2 * half + 1
    i0 = half
    t = (np.arange(n_grid) - i0) * config.grid_step
    parabola = t * t
    sqrt_step = math.sqrt(config.grid_step)
    # Imported here so that only a cold table pays for scipy.optimize.
    from scipy.optimize import isotonic_regression
    incr = np.empty(n_grid - 1)
    z = np.empty(n_grid)
    z[i0] = 0.0  # parabola[i0] is 0, so z[i0] stays 0
    left = z[:i0][::-1]  # left[k] is z[i0 - 1 - k]
    slopes = np.empty(n_grid - 1)
    draws = np.empty(stop - start)
    for k, rep in enumerate(range(start, stop)):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence((config.seed, rep))))
        rng.standard_normal(out=incr)
        incr *= sqrt_step
        # the path is 0 at t = 0 and sums increments away from it
        np.cumsum(incr[i0:], out=z[i0 + 1:])
        np.cumsum(incr[:i0][::-1], out=left)
        np.negative(left, out=left)
        np.add(z, parabola, out=z)
        np.subtract(z[1:], z[:-1], out=slopes)
        slopes /= config.grid_step
        # GCM slopes on a uniform grid are the isotonic regression of the
        # finite differences; the segment ending at 0 has index i0 - 1.
        draws[k] = 0.5 * isotonic_regression(slopes).x[i0 - 1]
    return draws


def chernoff_table(config: ChernoffConfig = ChernoffConfig(), *,
                   cache_path: str | os.PathLike | None = None) -> ChernoffTable:
    """Build (or load from cache) the quantile table for a MC config.

    The table covers DEFAULT_PROBABILITIES.  A cache file is used only if
    its digest, config and probabilities match and its numbers are sound
    (see `_load_table`); otherwise it is rewritten.
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
    """Write the table as JSON, creating the file's directory if needed.

    The JSON goes to `<path>.<pid>.tmp` beside the file, which then
    replaces it, so a concurrent reader sees the old table or the new one
    and a failed write leaves the old one in place.
    """
    payload = {
        "config": asdict(table.config),
        "config_digest": table.config.digest(),
        "probabilities": list(table.probabilities),
        "quantiles": list(table.quantiles),
        "mean": table.mean,
        "variance": table.variance,
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _load_table(path: str | os.PathLike) -> ChernoffTable | None:
    """The cached table, or None if the file is unreadable or unsound.

    Sound means a valid digest, one finite quantile per probability,
    nondecreasing, and a finite mean and variance.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        config = ChernoffConfig(**payload["config"])
        if payload.get("config_digest") != config.digest():
            return None
        table = ChernoffTable(
            probabilities=tuple(payload["probabilities"]),
            quantiles=tuple(payload["quantiles"]),
            mean=payload["mean"],
            variance=payload["variance"],
            config=config,
        )
        q = table.quantiles
        if (len(q) != len(table.probabilities)
                or not all(map(math.isfinite, q + (table.mean, table.variance)))
                or any(a > b for a, b in zip(q, q[1:]))):
            return None
        return table
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


# The fast-sum engine takes the bandwidth candidates _BLOCK // 3 at a time.
# Its tables hold about three copies of x per candidate, so one pass holds
# about _BLOCK * len(x) numbers per moment column, however many candidates.
_BLOCK = 64
# Widening of every window-end bracket, relative to h + max|x|, that covers
# the rounding of x_j - x_i, of its ratio to h and of the bounds.
_SLACK = 8.0 * np.finfo(float).eps


def _window_end(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The first j > i outside row i's kernel window, per bandwidth.

    Row i's window at h[k] holds the j with |fl(fl(x_j - x_i) / h[k])| < 1
    on sorted x, which is the Epanechnikov kernel's own rounded support
    test: for a double z, 0.75 (1 - z*z) > 0 exactly when |z| < 1.  Returns
    a (len(h), len(x)) array.  Two searchsorted calls, widened by _SLACK,
    bracket each end; a bracket that holds more than one index is closed by
    bisection on the test itself.
    """
    n = x.size
    pad = (_SLACK * (h + float(np.abs(x).max())))[:, None]
    edge = x + h[:, None]
    after = np.arange(1, n + 1)
    first = np.maximum(np.searchsorted(x, edge - pad, "left"), after).ravel()
    last = np.maximum(np.searchsorted(x, edge + pad, "right"), after).ravel()
    todo = np.flatnonzero(first < last)
    while todo.size:
        mid = (first[todo] + last[todo]) // 2
        k, i = np.divmod(todo, n)
        inside = np.abs((x[mid] - x[i]) / h[k]) < 1.0
        first[todo[inside]] = mid[inside] + 1
        last[todo[~inside]] = mid[~inside]
        todo = todo[first[todo] < last[todo]]
    return first.reshape(h.size, n)


def _window_start(end: np.ndarray) -> np.ndarray:
    """The first j in row i's window, from the window ends of `_window_end`.

    The support test is symmetric in i and j, so j < i lies in row i's
    window just when i < end[j]: the window starts at the first j whose
    window ends beyond i.
    """
    K, n = end.shape
    # candidate k's ends, shifted past candidate k - 1's, make one sorted key
    k = np.arange(K)[:, None]
    start = np.searchsorted((end + (n + 1) * k).ravel(),
                            (np.arange(n) + (n + 1) * k).ravel(), "right")
    return start.reshape(K, n) - n * k


def _half_values(x, head, size, origin, centre, inv, weights, values, ref,
                 slope, order, lowest):
    """The values that `_Moments` accumulates, one run of slots per half.

    Block b's right half is run b and its left half run b + len(origin);
    run r takes the size[r] slots from head[r].  Slot 0 of a run is its
    head; slot t holds the t-th point out from the origin, x[origin + t - 1]
    on the right and x[origin - t] on the left, negated on the left so
    that the left prefixes come out signed.
    """
    def per_slot(block_values):
        return np.repeat(np.concatenate((block_values, block_values)), size)

    right = np.repeat(np.arange(size.size) < origin.size, size)
    t = np.arange(head[-1] + size[-1]) - np.repeat(head, size)
    idx = per_slot(origin) + np.where(right, t - 1, -t)
    np.clip(idx, 0, x.size - 1, out=idx)
    z = (x[idx] - per_slot(centre)) * per_slot(inv)
    w = np.where(right, 1.0, -1.0)
    if weights is not None:
        w *= weights[idx]
    table = np.empty((1 if values is None else 2, order - lowest + 1, t.size))
    np.multiply(w, z ** lowest, out=table[0, 0])
    if values is not None:
        rel = values[idx] - per_slot(ref) - per_slot(slope) * z
        np.multiply(rel, w, out=table[1, 0])
    for q in range(1, order - lowest + 1):
        np.multiply(table[:, q - 1], z, out=table[:, q])
    return table


def _run_cumsum(table, head, size):
    """Cumulative sums along the last axis within each run of slots.

    Run r takes the size[r] slots from head[r].  In place, slot head[r] + t
    becomes the sum of the run's slots 1 to t, and the head slot 0.  One
    cumsum serves all runs: each head slot first takes minus the total of
    the run before it, and what rounding leaves there is then subtracted
    from the whole run.
    """
    table[..., head] = 0.0
    total = np.add.reduceat(table, head, axis=-1)
    table[..., head[1:]] = -total[..., :-1]
    np.cumsum(table, axis=-1, out=table)
    for column in table:
        column -= np.repeat(column[:, head], size, axis=-1)


class _Moments:
    """Cumulative moments of w z^q and w (v - line) z^q, in row blocks.

    For bandwidth h[k], the rows with equal floor((x_i - min x) / h[k])
    form a block.  Its origin is its middle row and its centre a is x
    there, so that z = (x - a) / h[k].  Over the block's reach, from
    ``reach_lo`` of its first row to ``reach_hi`` of its last, the table
    holds the cumulative sums of w z^q, lowest <= q <= order, and, given
    ``values`` v, of w (v - line) z^q, q <= order - lowest.  They are
    accumulated outward from the origin: entry e is the sum over
    [origin, e), or minus the sum over [e, origin).  The sum over any
    [s, e) in the reach is the difference of two entries, neither of which
    spans more than the reach, about three bandwidths, so the cancellation
    of prefix sums over all of x cannot arise.

    w is ``weights``, or ones.  The line goes through v at the block's
    origin with the slope between its first and last rows, and ``line`` is
    its value at each row.  ``c`` is (x_i - a) / h[k] for row i, and
    ``span(lo, hi)`` holds the sums over [lo, hi) for each (k, i), in the
    frame of row i's block.
    """

    def __init__(self, x, h, reach_lo, reach_hi, *, weights=None, values=None,
                 order=4, lowest=0):
        K, n = reach_lo.shape
        cell = np.floor((x - x.min()) / h[:, None])
        new = np.ones((K, n), dtype=bool)
        new[:, 1:] = cell[:, 1:] != cell[:, :-1]
        first = np.flatnonzero(new)
        last = np.append(first[1:], new.size) - 1
        k, first_row = np.divmod(first, n)
        last_row = last - k * n
        origin = (first_row + last_row) // 2
        centre = x[origin]
        inv = 1.0 / h[k]
        ref = np.zeros(origin.size)
        slope = np.zeros(origin.size)
        if values is not None:
            ref = values[origin]
            rise = (x[last_row] - x[first_row]) * inv
            np.divide(values[last_row] - values[first_row], rise, out=slope,
                      where=rise > 0)
        # each block's right half [origin, hi) and left half [lo, origin),
        # laid end to end as runs of slots
        nb = origin.size
        size = np.concatenate((reach_hi.ravel()[last] - origin,
                               origin - np.minimum(reach_lo.ravel()[first],
                                                   origin))) + 1
        head = np.cumsum(size) - size
        table = _half_values(x, head, size, origin, centre, inv, weights,
                             values, ref, slope, order, lowest)
        _run_cumsum(table, head, size)
        self._shape = table.shape[:2]
        self._table = table.reshape(-1, table.shape[-1])
        row_block = np.cumsum(new.ravel()) - 1
        self._origin = origin[row_block]
        self._right = head[:nb][row_block]
        self._left = head[nb:][row_block]
        rows = row_block.reshape(K, n)
        self.c = (x - centre[rows]) * inv[rows]
        self.line = ref[rows] + slope[rows] * self.c

    def span(self, lo, hi):
        """(columns, powers, K, n) sums over [lo, hi) in row i's block."""
        total = self._entry(hi)
        total -= self._entry(lo)
        return total.reshape(self._shape + self.c.shape)

    def _entry(self, e):
        e = e.ravel()
        return self._table[:, np.where(e >= self._origin,
                                       self._right + (e - self._origin),
                                       self._left + (self._origin - e))]


def _local_linear(u, y, h, lo, hi, p, q, usable):
    """Local-linear predictions at every u_i from its usable neighbours.

    Row i's neighbours at h[k] are [lo, hi) less the held-out run [p, q);
    ``usable`` counts them.  The weighted sums come from `_Moments` in the
    frame of row i's block, with weights 1 - (z - c)^2 = (1 - c^2) + 2cz -
    z^2, and the fitted line is read off at z = c.  y enters less its
    block's line, which the fit reproduces exactly, so the sums stay small
    where y is locally linear.
    """
    mom = _Moments(u, h, lo, hi, values=y, lowest=1)
    # the usable points are [lo, p) and [q, hi)
    s = mom.span(lo, p)
    s += mom.span(q, hi)
    # sums of z^q over the usable points, q <= 4, and of (y - line) z^q, q <= 3
    m, my = np.concatenate([usable[None], s[0]]), s[1]
    c = mom.c
    w0, w1 = 1.0 - c * c, 2.0 * c
    s0, s1, s2 = (w0 * m[j] + w1 * m[j + 1] - m[j + 2] for j in range(3))
    t0, t1 = (w0 * my[j] + w1 * my[j + 1] - my[j + 2] for j in range(2))
    with np.errstate(divide="ignore", invalid="ignore"):
        return mom.line + ((s2 * t0 - s1 * t1 + c * (s0 * t1 - s1 * t0))
                           / (s0 * s2 - s1 * s1))


def _loo_predictions(u: np.ndarray, y: np.ndarray, bandwidths: np.ndarray):
    """Leave-level-out local-linear predictions at every u_i, per bandwidth.

    u is strictly increasing and y nondecreasing in it, as on the
    derivative grid, where y holds the hull's slopes.  Row k of the result
    predicts every point at bandwidths[k], or is nan when that bandwidth is
    infeasible.  Point i is predicted with every j where y_j == y_i held
    out, not just itself.  With all-distinct responses this is ordinary
    leave-one-out.  With piecewise-constant responses (slopes read off a
    convex minorant) plain LOO lets a point be interpolated by its own flat
    run, which drives the score to favor bandwidths too narrow to see any
    level change; holding the run out scores real smoothing.  As y is
    sorted, each level is one contiguous run, and the held-out points of
    row i are its run clipped to its window.  Bandwidths whose windows
    leave some point with fewer than two usable neighbors are infeasible;
    two neighbours never share an abscissa, so no other design degenerates.
    The rule is integer arithmetic on the exact window ends of `_window_end`, and only
    feasible bandwidths are fitted, by `_local_linear`.
    """
    bandwidths = np.asarray(bandwidths, dtype=float)
    pred = np.full((bandwidths.size, u.size), np.nan)
    # row i's level is the run [begin, end)
    begin = np.searchsorted(y, y, "left")
    end = np.searchsorted(y, y, "right")
    step = _BLOCK // 3
    for s in range(0, bandwidths.size, step):
        h = bandwidths[s:s + step]
        hi = _window_end(u, h)
        lo = _window_start(hi)
        p, q = np.maximum(lo, begin), np.minimum(hi, end)
        usable = (hi - lo) - (q - p)
        ok = np.flatnonzero((usable >= 2).all(axis=1))
        if ok.size:
            pred[s + ok] = _local_linear(u, y, h[ok], lo[ok], hi[ok], p[ok],
                                         q[ok], usable[ok])
    return pred


def cv_bandwidth(points, candidates) -> float:
    """Leave-level-out cross-validated bandwidth over a candidate grid.

    points are (u, y) pairs in any row order.  Sorted by u, the u must be
    strictly increasing and the y nondecreasing, as on the plug-in scale's
    derivative grid; other input raises ValueError.  Each point is
    predicted with every point sharing its response held out, which on
    such input is its level's run (see `_loo_predictions`).

    Ties within 1e-12 (1 + y.y), which absorbs float noise on exactly-linear
    data, take the largest.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 3:
        raise ValueError("need at least 3 points for cross validation")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    u, y = pts[order, 0], pts[order, 1]
    if not (np.all(u[1:] > u[:-1]) and np.all(y[1:] >= y[:-1])):
        raise ValueError("cross validation needs distinct abscissae and "
                         "responses nondecreasing in them")

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

    @property
    def m(self) -> int:
        return len(self.fits)

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
    for idx in np.array_split(perm, m):
        try:
            sub = CensoredSample(sample.time[idx], sample.status[idx], sample.arm[idx])
            fits.append(fit_theta(sub, policy))
        except ValueError as exc:
            raise ValueError("split degenerate; reduce m") from exc
    return SplitFit(fits=tuple(fits))


def _t_quantile(df: int, p: float) -> float:
    """Quantile of Student's t with integer df >= 1 at p in (0, 1).

    With theta = atan(t / sqrt(df)) and x = cos(theta)^2, the two-sided
    probability A = P(|T| <= t) is a finite series (Abramowitz & Stegun
    26.7.3/26.7.4).  For df = 2m it is w sum_{k<m} a_k x^k with
    w = sin(theta); for df = 2m + 1 it is (2/pi) theta + w sum_{k<m} a_k x^k
    with w = (2/pi) sin(theta) cos(theta).  Here a_0 = 1 and
    a_k = a_{k-1} (2k - 1 + df % 2) / (2k + df % 2).  Summed over all k the
    series gives 1, so the tail 1 - A is its sum over k >= m: summed as
    such where x <= 1/2, where its terms fall at least geometrically, and
    formed as 1 - A elsewhere.  Newton steps on theta solve
    tail = 2 min(p, 1 - p), with
    dA/dtheta = 2 Gamma((df+1)/2) / (sqrt(pi) Gamma(df/2)) cos(theta)^(df-1).
    They start at theta = (1 - tail) / that constant, left of the root
    since A is concave, and a step that leaves the bracket the residuals
    have built is replaced by bisection.  df = 1 and 2 have closed forms.

    It agrees with scipy.special.stdtrit to 2e-13 relative over
    DEFAULT_PROBABILITIES for df up to 1000.  Further out the tail sum
    keeps df <= 10 within 1e-11 down to min(p, 1 - p) = 1e-15, but the
    1 - A branch has an absolute error of a few ulps, so a large df loses
    relative accuracy: at df = 100, 2e-12 at p = 1e-6 and 4e-9 at 1e-10.
    """
    if df < 1 or not 0.0 < p < 1.0:
        raise ValueError(f"need df >= 1 and p in (0, 1), got df={df}, p={p}")
    if p == 0.5:
        return 0.0
    tail = 2.0 * min(p, 1.0 - p)
    if df == 1:
        q = 1.0 / math.tan(0.5 * math.pi * tail)
    elif df == 2:
        q = (1.0 - tail) / math.sqrt(tail * (1.0 - 0.5 * tail))
    else:
        odd, m = df % 2, df // 2
        coef = [1.0]
        for k in range(1, m + 1):
            coef.append(coef[-1] * (2 * k - 1 + odd) / (2 * k + odd))
        slope = 2.0 * math.exp(math.lgamma((df + 1) / 2.0)
                               - math.lgamma(df / 2.0)) / math.sqrt(math.pi)
        lo, hi = 0.0, 0.5 * math.pi
        theta = (1.0 - tail) / slope
        for _ in range(100):
            c = math.cos(theta)
            x = c * c
            w = 2.0 / math.pi * math.sin(theta) * c if odd else math.sin(theta)
            if x <= 0.5:
                term, total, k = coef[m] * x ** m, 0.0, m
                while term > 1e-17 * total:
                    total += term
                    k += 1
                    term *= x * (2 * k - 1 + odd) / (2 * k + odd)
                r = w * total - tail
            else:
                total = 0.0
                for a in reversed(coef[:m]):
                    total = total * x + a
                r = 1.0 - 2.0 / math.pi * theta * odd - w * total - tail
            if r > 0.0:
                lo = theta
            elif r < 0.0:
                hi = theta
            else:
                break
            d = slope * c ** (df - 1)
            new = theta + r / d if d > 0.0 else math.nan
            if abs(new - theta) <= 1e-12 * theta:
                theta = new
                break
            theta = new if lo < new < hi else 0.5 * (lo + hi)
        q = math.sqrt(df) * math.tan(theta)
    return q if p > 0.5 else -q


def split_ci(splitfit: SplitFit, x: float, alpha: float) -> ConfidenceInterval:
    """t-interval from the spread of the per-split estimates."""
    p = _interval_probability(alpha)
    estimates = splitfit.estimates_at(x)
    pooled = float(np.mean(estimates))
    sd = float(np.std(estimates, ddof=1))
    half = _t_quantile(splitfit.m - 1, p) * sd / math.sqrt(splitfit.m)
    return ConfidenceInterval(x=x, estimate=pooled, lower=pooled - half,
                              upper=pooled + half, level=1.0 - alpha,
                              method="split")
