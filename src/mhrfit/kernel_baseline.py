"""Unconstrained comparison estimator: ratio of kernel-smoothed hazards.

Each arm's hazard is estimated by Epanechnikov smoothing of the
Nelson-Aalen increments, with a least-squares cross-validated bandwidth.
The bandwidths depend on the sample only, so `smooth_hr_fit` chooses them
once per sample and `smooth_hr_ci` evaluates that fit at any x.  The
cross-validation score is a quadratic form in K and its self-convolution
K*K, both polynomials on their support (K*K vanishes beyond twice the
bandwidth), so each event time's window sums are read off the cumulative
moments of `inference._Moments`: for K candidates and E event times a
search takes O(K E log E) time and holds O(E) numbers per candidate, at
most `inference._BLOCK // 3` candidates at a time.  The ratio gets a
delta-method interval on the log scale, with the normal quantile from
the standard library's `statistics.NormalDist` (Wichura's AS241, within
a few ulps of scipy's).  No boundary correction is applied, and nothing
constrains the ratio to be monotone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inference import (_BLOCK, ConfidenceInterval, _epanechnikov,
                        _interval_probability, _Moments, _select_bandwidth,
                        _window_end)
from .survival_core import CensoredSample, _hazard_increments

__all__ = [
    "SmoothedHazard",
    "smooth_hr_fit",
    "smooth_hr_ci",
    "cv_bandwidth_hazard",
]


# K*K(a) = (3/160)(2 - a)^3 (a^2 + 6a + 4) on a < 2 and 2K(a) = 1.5 (1 - a^2)
# on a < 1, as coefficients of a^0, a^1, ... for the Epanechnikov kernel K
_SELF_CONVOLUTION = (0.6, 0.0, -0.75, 0.375, 0.0, -3.0 / 160.0)
_TWICE_KERNEL = (1.5, 0.0, -1.5)


def _poly_sum(coef, moments, c):
    """sum_j v_j p(z_j - c) from the moments sum_j v_j z_j^q, q < len(coef).

    p(z - c) = sum_q z^q sum_k coef[q + k] C(q + k, q) (-c)^k, with the
    polynomial p given by its coefficients ``coef``.
    """
    d = len(coef)
    shift = np.array([[coef[q + k] * math.comb(q + k, q) if q + k < d else 0.0
                       for k in range(d)] for q in range(d)])
    powers = np.empty((d,) + c.shape)
    powers[0] = 1.0
    for k in range(1, d):
        np.multiply(powers[k - 1], -c, out=powers[k])
    return np.einsum("q...,q...->...", np.tensordot(shift, powers, 1),
                     moments[:d])


@dataclass(frozen=True)
class SmoothedHazard:
    """Kernel-smoothed hazard for one arm at a fixed bandwidth."""

    arm: int
    bandwidth: float
    event_times: np.ndarray
    increments: np.ndarray
    at_risk: np.ndarray

    def rate(self, x) -> float:
        w = _epanechnikov((x - self.event_times) / self.bandwidth) / self.bandwidth
        return float(np.sum(w * self.increments))

    def variance(self, x) -> float:
        """Plug-in variance of the rate: sum K_h^2 dLambda / Y."""
        w = _epanechnikov((x - self.event_times) / self.bandwidth) / self.bandwidth
        return float(np.sum(w * w * self.increments / self.at_risk))


def _cv_criterion(times, inc, y, bandwidths):
    """Least-squares cross-validation score of each bandwidth.

    The integral of the squared estimate (closed form via the kernel
    self-convolution) minus twice the leave-one-out fit term, where each
    event subject's own jump share K_h(0)/Y is removed, is the quadratic
    form inc'(K*K - 2K)_h inc plus (1.5/h) sum(inc/y).  The form is the
    diagonal, (K*K - 2K)(0) = -0.9 times sum(inc^2), plus twice the pairs
    j > i.  Both kernels are polynomials in a = (t_j - t_i)/h on their
    support, so each row's pairs are two window sums from `_Moments` on the
    sorted event times: a < 2 for K*K and a < 1 for K, with the window ends
    from the kernels' own rounded support tests.
    """
    bandwidths = np.asarray(bandwidths, dtype=float)
    sums = np.empty(bandwidths.size)
    step = _BLOCK // 3
    for s in range(0, bandwidths.size, step):
        h = bandwidths[s:s + step]
        after = np.broadcast_to(np.arange(1, times.size + 1),
                                (h.size, times.size))
        # K*K's support test fl(d / h) < 2 is fl(d / 2h) < 1: halving is exact
        near, far = np.split(_window_end(times, np.concatenate((h, 2 * h))), 2)
        mom = _Moments(times, h, after, far, weights=inc, order=5)
        pairs = (_poly_sum(_SELF_CONVOLUTION, mom.span(after, far)[0], mom.c)
                 - _poly_sum(_TWICE_KERNEL, mom.span(after, near)[0], mom.c))
        sums[s:s + step] = (inc * (2.0 * pairs - 0.9 * inc)).sum(axis=1)
    return sums / bandwidths + (1.5 / bandwidths) * np.sum(inc / y)


def _cv_arrays(sample: CensoredSample, arm: int):
    """Sorted event times, increments and at-risk counts to score.

    Late event times, where few subjects remain, carry increments of
    order 1/Y whose squared contribution swamps the criterion and drags
    the selected bandwidth toward the top of the grid.  Scoring only
    times with Y above a sqrt(arm size) floor keeps selection driven by
    the well-estimated part of the hazard.
    """
    times, inc, y = _hazard_increments(sample, arm)
    if times.size < 3:
        raise ValueError("need at least 3 event times for cross validation")
    n_arm = np.count_nonzero(sample.arm == arm)
    keep = y >= max(5.0, math.sqrt(n_arm))
    if np.count_nonzero(keep) >= 3:
        times, inc, y = times[keep], inc[keep], y[keep]
    return times, inc, y


def cv_bandwidth_hazard(sample: CensoredSample, arm: int, candidates) -> float:
    """Bandwidth minimizing the cross-validation score; ties take the largest."""
    times, inc, y = _cv_arrays(sample, arm)
    return _select_bandwidth(
        candidates, lambda bandwidths: _cv_criterion(times, inc, y, bandwidths),
        lambda scores: 1e-12 * (1.0 + float(np.abs(scores).max())))


def _default_candidates(times: np.ndarray) -> np.ndarray:
    span = float(times.max() - times.min())
    if span <= 0:
        raise ValueError("event times are all tied; no bandwidth scale")
    return np.geomspace(span / times.size, span / 2.0, 20)


def smooth_hr_fit(
        sample: CensoredSample) -> tuple[SmoothedHazard, SmoothedHazard]:
    """Both arms' smoothed hazards at their CV bandwidths, indexed by arm."""
    fits = []
    for arm in (0, 1):
        times, inc, y = _hazard_increments(sample, arm)
        h = cv_bandwidth_hazard(sample, arm, _default_candidates(times))
        fits.append(SmoothedHazard(arm=arm, bandwidth=h, event_times=times,
                                   increments=inc, at_risk=y))
    return tuple(fits)


def smooth_hr_ci(fit: tuple[SmoothedHazard, SmoothedHazard], x: float,
                 alpha: float = 0.05) -> ConfidenceInterval:
    """Smoothed hazard ratio lambda_S(x)/lambda_T(x) with a log-scale interval."""
    p = _interval_probability(alpha)
    rates = [sm.rate(x) for sm in fit]
    for sm, rate in zip(fit, rates):
        if rate <= 0:
            raise ValueError(f"zero smoothed hazard in arm {sm.arm} at x={x}")
    variances = [sm.variance(x) for sm in fit]
    estimate = rates[1] / rates[0]
    se_log = math.sqrt(variances[1] / rates[1] ** 2 + variances[0] / rates[0] ** 2)
    # imported here so that only a kernel interval pays for statistics
    from statistics import NormalDist
    z = NormalDist().inv_cdf(p)
    return ConfidenceInterval(x=x, estimate=estimate,
                              lower=estimate * math.exp(-z * se_log),
                              upper=estimate * math.exp(z * se_log),
                              level=1.0 - alpha, method="kernel")
