"""Unconstrained comparison estimator: ratio of kernel-smoothed hazards.

Each arm's hazard is estimated by Epanechnikov smoothing of the
Nelson-Aalen increments, with a least-squares cross-validated bandwidth.
The bandwidths depend on the sample only, so `smooth_hr_fit` chooses them
once per sample and `smooth_hr_ci` evaluates that fit at any x.  The
cross-validation scores are summed over compact-support windows of the
sorted event times (K*K vanishes beyond twice the bandwidth), in row
blocks, so a search holds O(block * E) numbers for E event times.  The ratio
gets a delta-method interval on the log scale, with the normal quantile
from `scipy.special.ndtri`.  No boundary correction is applied, and
nothing constrains the ratio to be monotone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .inference import (ConfidenceInterval, _epanechnikov, _select_bandwidth,
                        _windows)
from .survival_core import CensoredSample, hazard_increments

__all__ = [
    "SmoothedHazard",
    "fit_smoothed_hazard",
    "smooth_hr_fit",
    "smooth_hr_ci",
    "cv_bandwidth_hazard",
]


def _cv_kernel(a):
    """(K*K - 2K)(a) at a = |t| for the Epanechnikov kernel K; reuses a.

    K*K(a) = (3/160)(2 - a)^3 (a^2 + 6a + 4) on [0, 2] and 0 beyond.
    Products replace float powers and the passes run in place, because
    this is evaluated on every block of every candidate.
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


def fit_smoothed_hazard(sample: CensoredSample, arm: int,
                        bandwidth: float) -> SmoothedHazard:
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    times, inc, y = hazard_increments(sample, arm)
    return SmoothedHazard(arm=arm, bandwidth=bandwidth, event_times=times,
                          increments=inc, at_risk=y)


def _cv_criterion(times, inc, y, bandwidths):
    """Least-squares cross-validation score of each bandwidth.

    The integral of the squared estimate (closed form via the kernel
    self-convolution) minus twice the leave-one-out fit term, where each
    event subject's own jump share K_h(0)/Y is removed, is the quadratic
    form inc'(K*K - 2K)_h inc plus (1.5/h) sum(inc/y).  K*K vanishes
    beyond 2h, so the form is summed over the row blocks and column
    windows of `inference._windows` on the sorted event times.
    """
    sums = np.zeros(bandwidths.size)
    for rows, cols, d, spans in _windows(times, 2.0 * bandwidths):
        dist = np.abs(d)
        left, right = inc[rows], inc[cols]
        for k, (h, span) in enumerate(zip(bandwidths.tolist(), spans)):
            sums[k] += left @ _cv_kernel(dist[:, span] / h) @ right[span]
    return sums / bandwidths + (1.5 / bandwidths) * np.sum(inc / y)


def _cv_arrays(sample: CensoredSample, arm: int):
    """Sorted event times, increments and at-risk counts to score.

    Late event times, where few subjects remain, carry increments of
    order 1/Y whose squared contribution swamps the criterion and drags
    the selected bandwidth toward the top of the grid.  Scoring only
    times with Y above a sqrt(arm size) floor keeps selection driven by
    the well-estimated part of the hazard.
    """
    times, inc, y = hazard_increments(sample, arm)
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
        times, inc, y = hazard_increments(sample, arm)
        h = cv_bandwidth_hazard(sample, arm, _default_candidates(times))
        fits.append(SmoothedHazard(arm=arm, bandwidth=h, event_times=times,
                                   increments=inc, at_risk=y))
    return tuple(fits)


def smooth_hr_ci(fit: tuple[SmoothedHazard, SmoothedHazard], x: float,
                 alpha: float = 0.05) -> ConfidenceInterval:
    """Smoothed hazard ratio lambda_S(x)/lambda_T(x) with a log-scale interval."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    rates = [sm.rate(x) for sm in fit]
    for sm, rate in zip(fit, rates):
        if rate <= 0:
            raise ValueError(f"zero smoothed hazard in arm {sm.arm} at x={x}")
    variances = [sm.variance(x) for sm in fit]
    estimate = rates[1] / rates[0]
    se_log = math.sqrt(variances[1] / rates[1] ** 2 + variances[0] / rates[0] ** 2)
    z = float(ndtri(1.0 - alpha / 2.0))
    return ConfidenceInterval(x=x, estimate=estimate,
                              lower=estimate * math.exp(-z * se_log),
                              upper=estimate * math.exp(z * se_log),
                              level=1.0 - alpha, method="kernel")
