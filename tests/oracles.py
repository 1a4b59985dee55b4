"""Independent reference computations used by the test suite.

Everything here is deliberately written from first principles with a
different algorithm (and, where it matters, different arithmetic) than
the library: exact fractions and affine-envelope duality for the convex
minorant, O(n^2) loops for the censored-data curves, direct generative
constructions for ordered discrete distributions.  Tests compare the
library output against these, so shared bugs would have to appear twice
independently to go unnoticed.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from mhrfit.inference import _epanechnikov
from mhrfit.stochastic_orders import DiscreteDistribution

# ---------------------------------------------------------------------------
# Greatest convex minorant of a finite point set, exactly.


def dedupe_min(points):
    """Sorted distinct abscissas with the minimum ordinate at each."""
    best = {}
    for u, v in points:
        if u not in best or v < best[u]:
            best[u] = v
    return sorted(best.items())


def gcm_values_exact(points):
    """[(u, GCM(u))] at every distinct input abscissa, exact Fractions.

    The greatest convex minorant is the upper envelope of all affine
    functions lying on or below every point (a convex function is the
    supremum of its affine minorants).  With finitely many points the
    envelope is attained by lines through point pairs, so enumerating
    those, discarding the infeasible ones, and maximizing pointwise is a
    complete, algebra-only construction.
    """
    dpts = dedupe_min((Fraction(u), Fraction(v)) for u, v in points)
    if len(dpts) == 1:
        return dpts
    lines = []
    for i in range(len(dpts)):
        u1, v1 = dpts[i]
        for j in range(i + 1, len(dpts)):
            u2, v2 = dpts[j]
            slope = (v2 - v1) / (u2 - u1)
            intercept = v1 - slope * u1
            if all(slope * u + intercept <= v for u, v in dpts):
                lines.append((slope, intercept))
    return [(u, max(s * u + b for s, b in lines)) for u, _ in dpts]


def gcm_vertices_exact(points):
    """The canonical vertex list: every input point lying on the minorant.

    Collinear points on the minorant count as vertices, matching the
    library's strict-pop sweep.
    """
    dpts = dedupe_min((Fraction(u), Fraction(v)) for u, v in points)
    values = dict(gcm_values_exact(points))
    return [(u, v) for u, v in dpts if values[u] == v]


# ---------------------------------------------------------------------------
# Composed-hazard minorant on a dense grid, via pool-adjacent-violators.


def step_eval_right(knots, values, value_at_zero, t):
    """Right-continuous step evaluation by plain scan (no searchsorted)."""
    out = value_at_zero
    for k, v in zip(knots, values):
        if k <= t:
            out = v
        else:
            break
    return out


def composed_values_on_grid(lambda_S, lambda_T, grid):
    """lambda_S(lambda_T^-(u)) on a grid, built directly from the knots.

    The composition takes the value lambda_S(t_j) on the half-open
    interval (lambda_T(t_{j-1}), lambda_T(t_j)], and 0 at u = 0.
    """
    t_knots = list(lambda_T.knots)
    u_knots = list(lambda_T.values)
    out = np.empty(len(grid))
    for i, u in enumerate(grid):
        if u <= 0:
            out[i] = 0.0
            continue
        val = None
        for t, w in zip(t_knots, u_knots):
            if w >= u:
                val = step_eval_right(lambda_S.knots, lambda_S.values,
                                      lambda_S.value_at_zero, t)
                break
        if val is None:
            raise ValueError("grid point beyond the composition's range")
        out[i] = val
    return out


def gcm_on_grid_pava(us, vs):
    """GCM values at the grid points via isotonic slopes (PAVA).

    Slopes of the minorant of points on a grid are the weighted isotonic
    regression of the chord slopes with the spacings as weights; values
    follow by accumulation from the first point.
    """
    from scipy.optimize import isotonic_regression

    du = np.diff(us)
    slopes = np.diff(vs) / du
    iso = isotonic_regression(slopes, weights=du).x
    return np.concatenate([[vs[0]], vs[0] + np.cumsum(iso * du)])


# ---------------------------------------------------------------------------
# Censored-data curves, O(n^2) loops.


def naive_survival_curves(times, status):
    """(event times, Nelson-Aalen values, Kaplan-Meier values) by counting."""
    event_times = sorted({t for t, d in zip(times, status) if d == 1})
    na, km = [], []
    cum, prod = 0.0, 1.0
    for u in event_times:
        d = sum(1 for t, s in zip(times, status) if t == u and s == 1)
        y = sum(1 for t in times if t >= u)
        cum += d / y
        prod *= 1.0 - d / y
        na.append(cum)
        km.append(prod)
    return event_times, na, km


def naive_km_at(times, status, x, left=False):
    """Kaplan-Meier survival at x (or just before x) by counting."""
    prod = 1.0
    for u in sorted({t for t, d in zip(times, status) if d == 1}):
        if (u < x) if left else (u <= x):
            d = sum(1 for t, s in zip(times, status) if t == u and s == 1)
            y = sum(1 for t in times if t >= u)
            prod *= 1.0 - d / y
    return prod


def tau_bracket_oracle(sample, x, theta):
    """The bracket of the plug-in scale, from scratch.

    theta/(pi Fbar_S Fbar_U(x-)) + theta^2/((1-pi) Fbar_T Fbar_V(x-)),
    with each survival factor recomputed by the O(n^2) product-limit
    loops above (events for F_S, F_T; flipped status for F_U, F_V).
    """
    obs = list(zip(sample.time.tolist(), sample.status.tolist(),
                   sample.arm.tolist()))
    pi = sum(a for _, _, a in obs) / len(obs)
    t1 = [t for t, _, a in obs if a == 1]
    d1 = [d for _, d, a in obs if a == 1]
    t0 = [t for t, _, a in obs if a == 0]
    d0 = [d for _, d, a in obs if a == 0]
    fbar_s = naive_km_at(t1, d1, x)
    fbar_t = naive_km_at(t0, d0, x)
    fbar_u = naive_km_at(t1, [1 - d for d in d1], x, left=True)
    fbar_v = naive_km_at(t0, [1 - d for d in d0], x, left=True)
    return (theta / (pi * fbar_s * fbar_u)
            + theta ** 2 / ((1.0 - pi) * fbar_t * fbar_v))


def increments_by_unique(times, status):
    """(distinct event times, dN/Y, Y) of one arm, distinct times by np.unique.

    The library finds the distinct times on the sorted column it already
    holds; this form sorts a second time inside np.unique.
    """
    order = np.argsort(times, kind="stable")
    times, status = times[order], status[order]
    utimes, first = np.unique(times, return_index=True)
    at_risk = times.size - first
    d = np.add.reduceat(status, first)
    keep = d > 0
    y = at_risk[keep].astype(float)
    return utimes[keep], d[keep].astype(float) / y, y


def gamma_n_by_sort(sample, r_n):
    """The least over arms of the (1 - r_n) order statistic, by a full sort."""
    quantiles = []
    for arm in (0, 1):
        times = np.sort(sample.time[sample.arm == arm])
        k = min(max(math.ceil((1.0 - r_n) * times.size), 1), times.size)
        quantiles.append(times[k - 1])
    return float(min(quantiles))


def serial_chernoff_draws(config):
    """The Chernoff Monte Carlo draws, one fresh replication at a time.

    The library's loop as it was before it ran chunks on a process pool
    and reused buffers: every replication allocates its own arrays and
    builds the left half of the path by a reversed cumsum.
    """
    from scipy.optimize import isotonic_regression

    half = int(round(config.domain_half_width / config.grid_step))
    n_grid = 2 * half + 1
    i0 = half
    t = (np.arange(n_grid) - i0) * config.grid_step
    parabola = t * t
    sqrt_step = math.sqrt(config.grid_step)
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
        iso = isotonic_regression(slopes).x
        draws[rep] = 0.5 * iso[i0 - 1]
    return draws


# ---------------------------------------------------------------------------
# Closed-form truths of the synthetic scenarios and discrete distributions.


def true_cumulative_hazard(scenario, arm, x):
    """The scenario's cumulative hazard of arm 0 (control) or 1 at x >= 0."""
    if arm not in (0, 1):
        raise ValueError(f"arm must be 0 (control) or 1 (treatment), got {arm!r}")
    if np.any(np.asarray(x) < 0):
        raise ValueError("x must be nonnegative")
    f = scenario.cumulative_control if arm == 0 else scenario.cumulative_treatment
    return f(x)


def bisect_cumulative(cum, targets):
    """Solve cum(t) = target per entry by bracketed bisection to 1e-10.

    The library's event-time inverter as it was before it snapped a secant
    root onto the bisection's final bracket: every target is bisected, all
    the way down from its doubled bracket [0, hi].
    """
    targets = np.asarray(targets, dtype=float)
    hi = np.ones_like(targets)
    for _ in range(80):
        low = cum(hi) < targets
        if not low.any():
            break
        hi = np.where(low, 2.0 * hi, hi)
    else:
        raise ValueError("failed to bracket event time")
    lo = np.zeros_like(targets)
    while np.max(hi - lo) > 1e-10:
        mid = 0.5 * (lo + hi)
        below = cum(mid) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def discrete_hazard(d: DiscreteDistribution) -> np.ndarray:
    """Hazard at each support point: mass over survival just before it."""
    rates = np.empty(len(d.masses))
    seen = Fraction(0)
    for j, m in enumerate(d.masses):
        denom = 1 - seen
        rates[j] = 0.0 if denom == 0 else float(m / denom)
        seen += m
    return rates


# ---------------------------------------------------------------------------
# Cross-validation scores on full pairwise matrices, as the library scored
# them before it summed over compact-support windows.


def dense_hazard_cv_score(times, inc, y, h):
    """LSCV score of a kernel-smoothed hazard from the E x E matrices."""
    d = (times[None, :] - times[:, None]) / h
    a = np.abs(d)
    selfconv = np.where(a <= 2.0, (3.0 / 160.0) * (2.0 - a) ** 3
                        * (a * a + 6.0 * a + 4.0), 0.0)
    kernel = np.where(a < 1.0, 0.75 * (1.0 - d * d), 0.0)
    integral = inc @ (selfconv / h) @ inc
    rate_at_events = (kernel / h) @ inc
    loo = np.sum(inc * rate_at_events) - (0.75 / h) * np.sum(inc / y)
    return float(integral - 2.0 * loo)


def dense_loo_predictions(u, y, h):
    """Leave-level-out local-linear predictions from the m x m matrices.

    None when some point has fewer than two usable neighbors or a
    degenerate design.
    """
    d = u[None, :] - u[:, None]
    w = np.where(np.abs(d / h) < 1.0, 0.75 * (1.0 - (d / h) ** 2), 0.0)
    w[y[None, :] == y[:, None]] = 0.0
    if np.any((w > 0).sum(axis=1) < 2):
        return None
    wd = w * d
    s0, s1, s2 = w.sum(axis=1), wd.sum(axis=1), (wd * d).sum(axis=1)
    t0, t1 = w @ y, wd @ y
    den = s0 * s2 - s1 * s1
    if np.any(den <= 0):
        return None
    return (s2 * t0 - s1 * t1) / den


# ---------------------------------------------------------------------------
# Cross-validation scores summed over compact-support windows in row blocks,
# as the library scored them before it read window sums from cumulative
# moments.  The kernels are evaluated on every pair inside each window, so
# these share the dense formulas' arithmetic and only reorder the sums.

_WINDOW_BLOCK = 64
_WINDOW_SLACK = 8.0 * np.finfo(float).eps


def _windows(x, reaches):
    """Row blocks of sorted x, each with the columns its kernels can reach.

    For each block of up to _WINDOW_BLOCK rows, yields (rows, cols, d,
    spans): d[i, j] = x[cols][j] - x[rows][i] over the block's widest
    window, and spans[k] is the slice of d's columns within reaches[k] of
    some row of the block, widened by a rounding slack so that the kernel's
    own support test decides membership.
    """
    pad = reaches + _WINDOW_SLACK * (reaches + float(np.abs(x).max()))
    starts = np.arange(0, x.size, _WINDOW_BLOCK)
    stops = np.minimum(starts + _WINDOW_BLOCK, x.size)
    lo = np.searchsorted(x, x[starts] - pad[:, None], "left")
    hi = np.searchsorted(x, x[stops - 1] + pad[:, None], "right")
    for b, (i0, i1) in enumerate(zip(starts.tolist(), stops.tolist())):
        first, last = int(lo[:, b].min()), int(hi[:, b].max())
        spans = [slice(a - first, z - first)
                 for a, z in zip(lo[:, b].tolist(), hi[:, b].tolist())]
        yield (slice(i0, i1), slice(first, last),
               x[first:last] - x[i0:i1, None], spans)


def windowed_loo_predictions(u, y, bandwidths):
    """Leave-level-out local-linear predictions, one row per bandwidth.

    u is sorted; a row is nan when its bandwidth leaves some point with
    fewer than two usable neighbours or a rounded denominator <= 0.
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


def _cv_kernel(a):
    """(K*K - 2K)(a) at a = |t| for the Epanechnikov kernel K; reuses a.

    K*K(a) = (3/160)(2 - a)^3 (a^2 + 6a + 4) on [0, 2] and 0 beyond.
    """
    b = np.subtract(2.0, a)
    np.maximum(b, 0.0, out=b)
    form = b * b
    form *= b
    np.add(a, 6.0, out=b)
    b *= a
    b += 4.0
    form *= b
    form *= 3.0 / 160.0
    k = _epanechnikov(a)
    k *= 2.0
    form -= k
    return form


def windowed_hazard_cv_scores(times, inc, y, bandwidths):
    """LSCV score of each bandwidth, summed over the windows of K*K."""
    sums = np.zeros(bandwidths.size)
    for rows, cols, d, spans in _windows(times, 2.0 * bandwidths):
        dist = np.abs(d)
        left, right = inc[rows], inc[cols]
        for k, (h, span) in enumerate(zip(bandwidths.tolist(), spans)):
            sums[k] += left @ _cv_kernel(dist[:, span] / h) @ right[span]
    return sums / bandwidths + (1.5 / bandwidths) * np.sum(inc / y)


# ---------------------------------------------------------------------------
# Random discrete distributions with exact rational masses.


def random_discrete(rng, k_min=2, k_max=8):
    """Random distribution: integer support, masses w_i / sum(w)."""
    k = int(rng.integers(k_min, k_max + 1))
    support = np.sort(rng.choice(np.arange(1, 61), size=k, replace=False))
    weights = rng.integers(1, 30, size=k)
    total = int(weights.sum())
    masses = tuple(Fraction(int(w), total) for w in weights)
    return DiscreteDistribution(tuple(float(s) for s in support), masses)


def random_hazards(rng, k):
    """Hazards in (0, 1) with the last forced to 1 (mass sums exactly)."""
    num = rng.integers(1, 20, size=k)
    den = num + rng.integers(1, 20, size=k)
    lams = [Fraction(int(a), int(b)) for a, b in zip(num, den)]
    lams[-1] = Fraction(1)
    return lams


def distribution_from_hazards(support, lams):
    """Masses from hazards: f_j = lambda_j * prod_{i<j}(1 - lambda_i)."""
    masses, surv = [], Fraction(1)
    for lam in lams:
        masses.append(surv * lam)
        surv *= 1 - lam
    return DiscreteDistribution(tuple(support), tuple(masses))


def nondecreasing_multipliers(rng, k):
    """Nondecreasing Fractions in (0, 1] ending at exactly 1."""
    vals = np.sort(rng.integers(1, 20, size=k))
    return [Fraction(int(v), int(vals[-1])) for v in vals]


def random_mhr_chain(rng, k):
    """(S, T, U) with S >=_MHR T >=_MHR U by construction.

    U gets free hazards; T scales them by one nondecreasing multiplier
    sequence and S scales T's by another, so both hazard-ratio
    sequences are nondecreasing by design.
    """
    support = tuple(float(s) for s in
                    np.sort(rng.choice(np.arange(1, 40), size=k, replace=False)))
    lam_u = random_hazards(rng, k)
    lam_t = [c * l for c, l in zip(nondecreasing_multipliers(rng, k), lam_u)]
    lam_s = [c * l for c, l in zip(nondecreasing_multipliers(rng, k), lam_t)]
    return (distribution_from_hazards(support, lam_s),
            distribution_from_hazards(support, lam_t),
            distribution_from_hazards(support, lam_u))


def random_lr_pair(rng, k):
    """(S, T) with S >=_LR T: S's masses are T's times a nondecreasing ratio."""
    support = tuple(float(s) for s in
                    np.sort(rng.choice(np.arange(1, 40), size=k, replace=False)))
    weights = rng.integers(1, 30, size=k)
    total = int(weights.sum())
    f_t = [Fraction(int(w), total) for w in weights]
    ratio = [Fraction(int(v), 1) for v in np.sort(rng.integers(1, 15, size=k))]
    raw = [m * r for m, r in zip(f_t, ratio)]
    norm = sum(raw)
    f_s = [m / norm for m in raw]
    return (DiscreteDistribution(support, tuple(f_s)),
            DiscreteDistribution(support, tuple(f_t)))


def random_lr_chain(rng, k):
    """(S, T, U) with S >=_LR T >=_LR U: two stacked nondecreasing ratios."""
    support = tuple(float(s) for s in
                    np.sort(rng.choice(np.arange(1, 40), size=k, replace=False)))
    weights = rng.integers(1, 30, size=k)
    total = int(weights.sum())
    f_u = [Fraction(int(w), total) for w in weights]
    dists = [DiscreteDistribution(support, tuple(f_u))]
    masses = f_u
    for _ in range(2):
        ratio = np.sort(rng.integers(1, 15, size=k))
        raw = [m * Fraction(int(r), 1) for m, r in zip(masses, ratio)]
        norm = sum(raw)
        masses = [m / norm for m in raw]
        dists.append(DiscreteDistribution(support, tuple(masses)))
    return dists[2], dists[1], dists[0]
