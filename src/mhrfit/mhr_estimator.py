"""The monotone hazard-ratio estimator.

theta_n is the left derivative of the greatest convex minorant of
Lambda_S_n composed with the inverse of Lambda_T_n, evaluated back on the
time scale through Lambda_T_n.  It is a nondecreasing step function with
knots at the control-arm event times, defined up to a data-driven
truncation time gamma_n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gcm import ConvexMinorantFit, gcm_of_composed_hazards, left_slope_at
from .survival_core import CensoredSample, StepFunction, nelson_aalen

__all__ = [
    "TruncationPolicy",
    "MhrFit",
    "gamma_n",
    "fit_theta",
    "theta_at",
    "diagnostic_curve",
]


@dataclass(frozen=True)
class TruncationPolicy:
    """How much upper tail to drop before fitting.

    fraction None, the recommended r_n: 0.05 for n < 1000, (log n)^2.1 / n after.
    Otherwise the supplied fraction in (0, 1), for all n.
    """

    fraction: float | None = None

    def __post_init__(self):
        if self.fraction is not None and not 0.0 < self.fraction < 1.0:
            raise ValueError(f"fraction must lie in (0, 1), got {self.fraction}")

    @classmethod
    def recommended(cls) -> "TruncationPolicy":
        return cls()


@dataclass(frozen=True)
class MhrFit:
    """Fitted monotone hazard ratio with its truncation metadata."""

    theta: StepFunction
    gamma_n: float
    eta_n: float
    hull: ConvexMinorantFit
    lambda_S_hat: StepFunction
    lambda_T_hat: StepFunction


def _truncation_fraction(n: int, policy: TruncationPolicy = TruncationPolicy()) -> float:
    if n < 1:
        raise ValueError("n must be positive")
    if policy.fraction is not None:
        return policy.fraction
    if n < 1000:
        return 0.05
    return math.log(n) ** 2.1 / n


def gamma_n(sample: CensoredSample, r_n: float) -> float:
    """Minimum over arms of the empirical (1 - r_n)-quantile of observed times.

    Quantile convention: the order statistic at index ceil((1 - r_n) * n_arm).
    """
    if not 0.0 < r_n < 1.0:
        raise ValueError("r_n must lie in (0, 1)")
    quantiles = []
    for arm in (0, 1):
        times = sample.arm_arrays(arm)[0]
        if times.size == 0:
            raise ValueError(f"empty stratum: no observations in arm {arm}")
        k = math.ceil((1.0 - r_n) * times.size)
        k = min(max(k, 1), times.size)
        quantiles.append(np.partition(times, k - 1)[k - 1])
    return float(min(quantiles))


def fit_theta(sample: CensoredSample,
              policy: TruncationPolicy = TruncationPolicy()) -> MhrFit:
    """Fit the monotone hazard-ratio step function on (0, gamma_n]."""
    lam_S = nelson_aalen(sample, arm=1)
    lam_T = nelson_aalen(sample, arm=0)
    r_n = _truncation_fraction(sample.n, policy)
    gamma = gamma_n(sample, r_n)
    for arm, lam in ((0, lam_T), (1, lam_S)):
        if lam.knots.size == 0 or lam.knots[0] > gamma:
            raise ValueError(
                f"degenerate fit: no events in arm {arm} before truncation time {gamma}")
    eta = lam_T(gamma)
    hull = gcm_of_composed_hazards(lam_S, lam_T, eta)
    mask = lam_T.knots <= gamma
    knots = lam_T.knots[mask]
    values = left_slope_at(hull, lam_T.values[mask])
    theta = StepFunction(knots, values, value_at_zero=float(hull.slopes[0]))
    return MhrFit(theta=theta, gamma_n=gamma, eta_n=float(eta), hull=hull,
                  lambda_S_hat=lam_S, lambda_T_hat=lam_T)


def theta_at(fit: MhrFit, x: float) -> float:
    """theta_n(x) for 0 <= x <= gamma_n; refuses to extrapolate beyond."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x > fit.gamma_n:
        raise ValueError(f"beyond truncation time: x={x} > gamma_n={fit.gamma_n}")
    return fit.theta(x)


def diagnostic_curve(sample: CensoredSample,
                     policy: TruncationPolicy = TruncationPolicy()):
    """Points (Lambda_T(t), Lambda_S(t)) at control event times, with their hull.

    Returns ((u, v), hull): the points as two arrays, anchored at (0, 0),
    and the fit's minorant, which is the lower convex hull of exactly
    these points.  Deviation of the points from the hull is the informal
    graphical check of the monotone hazard-ratio assumption: under it the
    curve is convex.
    """
    fit = fit_theta(sample, policy)
    lam_T, lam_S = fit.lambda_T_hat, fit.lambda_S_hat
    mask = lam_T.knots <= fit.gamma_n
    u = np.concatenate([[0.0], lam_T.values[mask]])
    v = np.concatenate([[0.0], lam_S(lam_T.knots[mask])])
    return (u, v), fit.hull
