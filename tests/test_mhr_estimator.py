"""The monotone hazard-ratio estimator and its truncation policy."""
from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_censored_sample
from mhrfit.gcm import lower_convex_hull
from mhrfit.mhr_estimator import (MhrFit, TruncationPolicy, diagnostic_curve,
                                  fit_theta, gamma_n, theta_at,
                                  truncation_fraction)
from mhrfit.survival_core import CensoredSample


class TestTruncationPolicy:
    def test_recommended_small_n(self):
        assert truncation_fraction(500) == 0.05
        assert truncation_fraction(999) == 0.05

    def test_recommended_large_n(self):
        assert truncation_fraction(1000) == math.log(1000) ** 2.1 / 1000
        assert truncation_fraction(1000) == pytest.approx(0.0579, abs=2e-4)
        assert truncation_fraction(10 ** 6) == pytest.approx(2.48e-4, rel=5e-3)

    def test_fixed_mode(self):
        policy = TruncationPolicy.fixed(0.2)
        assert truncation_fraction(10, policy) == 0.2
        assert truncation_fraction(10 ** 6, policy) == 0.2
        with pytest.raises(ValueError):
            TruncationPolicy.fixed(0.0)


class TestGammaN:
    def test_hand_counted_quantiles(self):
        times = np.concatenate([np.arange(1.0, 11.0),
                                np.arange(2.0, 21.0, 2.0)])
        arms = np.array([0] * 10 + [1] * 10)
        s = CensoredSample.from_arrays(times, np.ones(20, dtype=int), arms)
        # ceil(0.8 * 10) = 8th order statistic: 8 in arm 0, 16 in arm 1
        assert gamma_n(s, 0.2) == 8.0

    def test_tiny_r_reaches_maxima(self):
        times = np.array([1.0, 2.0, 3.0, 5.0, 7.0, 4.0])
        arms = np.array([0, 0, 0, 1, 1, 1])
        s = CensoredSample.from_arrays(times, np.ones(6, dtype=int), arms)
        assert gamma_n(s, 1e-9) == 3.0

    def test_identical_arms_symmetric(self):
        times = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        arms = np.array([0, 0, 0, 1, 1, 1])
        s = CensoredSample.from_arrays(times, np.ones(6, dtype=int), arms)
        assert gamma_n(s, 0.3) == 3.0

    def test_r_bounds(self):
        s = CensoredSample.from_arrays([1.0, 2.0], [1, 1], [0, 1])
        with pytest.raises(ValueError):
            gamma_n(s, 0.0)
        with pytest.raises(ValueError):
            gamma_n(s, 1.0)


class TestFitTheta:
    def test_interleaved_events_give_unit_ratio(self, toy_sample):
        fit = fit_theta(toy_sample)
        assert fit.gamma_n == 3.0
        for x in (0.5, 1.0, 2.0, 3.0):
            assert theta_at(fit, x) == 1.0

    def test_late_treatment_events_start_at_zero(self):
        # treatment hazard mass arrives after two control events, so the
        # hull is flat at the origin and theta starts at slope 0
        s = CensoredSample.from_arrays(
            np.array([1.0, 2.0, 3.0, 2.5, 3.5]),
            np.array([1, 1, 1, 1, 1]),
            np.array([0, 0, 0, 1, 1]))
        fit = fit_theta(s)
        assert theta_at(fit, 1.0) == 0.0

    def test_monotone_and_nonnegative_on_random_samples(self):
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(200):
            s = random_censored_sample(rng)
            try:
                fit = fit_theta(s)
            except ValueError:
                continue
            checked += 1
            assert np.all(fit.theta.values >= 0)
            assert np.all(np.diff(fit.theta.values) >= 0)
            assert fit.eta_n == fit.lambda_T_hat(fit.gamma_n)
        assert checked > 150

    def test_degenerate_fit_errors(self):
        # control events exist only beyond the truncation time
        s = CensoredSample.from_arrays(
            np.array([5.0, 1.0, 1.5, 2.0, 0.5]),
            np.array([1, 0, 0, 0, 1]),
            np.array([0, 0, 0, 0, 1]))
        with pytest.raises(ValueError, match="degenerate fit"):
            fit_theta(s, TruncationPolicy.fixed(0.5))


class TestThetaAt:
    def test_at_truncation_time_is_last_slope(self, toy_sample):
        fit = fit_theta(toy_sample)
        assert theta_at(fit, fit.gamma_n) == fit.hull.slopes[-1]

    def test_beyond_truncation_refused(self, toy_sample):
        fit = fit_theta(toy_sample)
        with pytest.raises(ValueError, match="beyond truncation time"):
            theta_at(fit, fit.gamma_n + 1.0)

    def test_zero_takes_first_slope(self, toy_sample):
        fit = fit_theta(toy_sample)
        assert theta_at(fit, 0.0) == fit.hull.slopes[0]


class TestDiagnosticCurve:
    def test_anchor_plus_control_event_rows(self, toy_sample):
        # gamma_n = 3, so of the control events {2, 4} only 2 contributes
        (u, v), hull = diagnostic_curve(toy_sample)
        assert u[0] == 0.0 and v[0] == 0.0
        assert len(u) == 2
        assert (u[1], v[1]) == (0.5, 0.5)

    def test_counts_match_control_events(self):
        rng = np.random.default_rng(41)
        s = random_censored_sample(rng, n=80)
        fit = fit_theta(s)
        (u, v), hull = diagnostic_curve(s)
        t, d = s.arm_arrays(0)
        n_events = np.unique(t[(d == 1) & (t <= fit.gamma_n)]).size
        assert len(u) == n_events + 1
        # the returned hull is the fit's minorant and the hull of the points
        rebuilt = lower_convex_hull(u, v)
        for got, want in ((hull.u, rebuilt.u), (hull.v, rebuilt.v),
                          (hull.slopes, rebuilt.slopes),
                          (hull.slopes, fit.hull.slopes)):
            assert np.array_equal(got, want)

    def test_convex_input_hull_identical(self):
        # identical arms put every point on the diagonal: already convex
        times = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        arms = np.array([0, 0, 0, 1, 1, 1])
        s = CensoredSample.from_arrays(times, np.ones(6, dtype=int), arms)
        (u, v), hull = diagnostic_curve(s)
        assert len(u) == 4
        for pu, pv in zip(u, v):
            assert hull.value_at(pu) == pv

    def test_single_control_event(self):
        s = CensoredSample.from_arrays(
            np.array([1.0, 2.0, 3.0]),
            np.array([1, 1, 1]),
            np.array([1, 0, 1]))
        (u, _), hull = diagnostic_curve(s)
        assert len(u) == 2
        assert len(hull.slopes) == 1

    def test_swapped_arms_reflect_the_curve(self):
        # identical event times in both arms make the sampled parameter
        # values line up, so the reflection is exact point for point
        rng = np.random.default_rng(59)
        times = np.sort(rng.uniform(0.2, 4.0, size=15))
        both = np.concatenate([times, times])
        arms = np.array([0] * 15 + [1] * 15)
        s = CensoredSample.from_arrays(both, np.ones(30, dtype=int), arms)
        swapped = CensoredSample.from_arrays(s.time, s.status, 1 - s.arm)
        (u, v), _ = diagnostic_curve(s)
        (u_sw, v_sw), _ = diagnostic_curve(swapped)
        assert list(zip(u_sw, v_sw)) == list(zip(v, u))


class TestEquivariance:
    def test_cubic_time_transform_small(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            s = random_censored_sample(rng, n=60)
            transformed = CensoredSample.from_arrays(s.time ** 3, s.status,
                                                     s.arm)
            try:
                fit = fit_theta(s)
                fit3 = fit_theta(transformed)
            except ValueError:
                continue
            assert fit3.gamma_n == fit.gamma_n ** 3
            t, d = s.arm_arrays(0)
            for x in np.unique(t[d == 1]):
                if x <= fit.gamma_n:
                    assert theta_at(fit3, float(x) ** 3) == theta_at(fit, float(x))
