"""Kernel-smoothed hazards and the ratio intervals built from them."""
from __future__ import annotations

from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from mhrfit.inference import DEFAULT_PROBABILITIES
from mhrfit.kernel_baseline import (SmoothedHazard, cv_bandwidth_hazard,
                                    smooth_hr_ci, smooth_hr_fit,
                                    _cv_arrays, _cv_criterion,
                                    _default_candidates)
from mhrfit.survival_core import (CensoredSample, _hazard_increments,
                                  nelson_aalen)

# 1 - alpha/2 for 2000 levels alpha across (0, 1)
ALPHA_GRID = 1.0 - np.linspace(0.0005, 0.9995, 2000) / 2.0


def exponential_sample(rng, n_per_arm, rate0=1.0, rate1=1.0, cens=0.3):
    event = np.concatenate([rng.exponential(1.0 / rate0, n_per_arm),
                            rng.exponential(1.0 / rate1, n_per_arm)])
    cut = rng.exponential(1.0 / cens, 2 * n_per_arm)
    times = np.minimum(event, cut)
    status = (event <= cut).astype(int)
    arms = np.array([0] * n_per_arm + [1] * n_per_arm)
    return CensoredSample.from_arrays(times, status, arms)


def smoothed(sample, arm, bandwidth):
    """One arm's smoothed hazard at a given bandwidth."""
    return SmoothedHazard(arm, bandwidth, *_hazard_increments(sample, arm))


class TestSmoothedHazard:
    def test_rate_is_kernel_weighted_increments(self):
        rng = np.random.default_rng(0)
        s = exponential_sample(rng, 60)
        fit = smoothed(s, 0, 0.4)
        times, inc, _ = _hazard_increments(s, 0)
        x = 0.9
        t = (times - x) / 0.4
        weights = np.where(np.abs(t) < 1.0, 0.75 * (1.0 - t * t), 0.0) / 0.4
        assert fit.rate(x) == pytest.approx(float(weights @ inc), rel=1e-12)
        assert smoothed(s, 0, 0.4).rate(x) == fit.rate(x)

    def test_rate_nonnegative_everywhere(self):
        rng = np.random.default_rng(2)
        s = exponential_sample(rng, 80)
        fit = smoothed(s, 1, 0.3)
        grid = np.linspace(0.0, 4.0, 200)
        assert all(fit.rate(x) >= 0.0 for x in grid)

    def test_integrates_to_cumulative_hazard(self):
        # away from the boundary, the trapezoid integral of the smoothed
        # rate should track the Nelson-Aalen difference
        rng = np.random.default_rng(3)
        s = exponential_sample(rng, 4000)
        fit = smoothed(s, 0, 0.1)
        grid = np.linspace(0.3, 1.2, 400)
        integral = np.trapezoid([fit.rate(x) for x in grid], grid)
        na = nelson_aalen(s, 0)
        assert integral == pytest.approx(na(1.2) - na(0.3), rel=0.1)

    def test_recovers_constant_hazard(self):
        rng = np.random.default_rng(21)
        n = 5000
        times = np.concatenate([rng.exponential(1.0, n), [1.0]])
        arms = np.array([0] * n + [1])
        s = CensoredSample.from_arrays(times, np.ones(n + 1, dtype=int), arms)
        ev, _, _ = _hazard_increments(s, 0)
        h = cv_bandwidth_hazard(s, 0, _default_candidates(ev))
        assert abs(smoothed(s, 0, h).rate(0.5) - 1.0) < 0.15

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(4)
        s = exponential_sample(rng, 80)
        fit = smoothed(s, 1, 0.5)
        for x in (0.3, 0.8, 1.4):
            assert fit.variance(x) >= 0.0


class TestBandwidthSelection:
    def test_selected_minimizes_criterion_on_grid(self):
        rng = np.random.default_rng(7)
        s = exponential_sample(rng, 150)
        ev, _, _ = _hazard_increments(s, 0)
        times, inc, y = _cv_arrays(s, 0)
        candidates = _default_candidates(ev)
        h = cv_bandwidth_hazard(s, 0, candidates)
        scores = _cv_criterion(times, inc, y, candidates)
        assert any(np.isclose(h, c) for c in candidates)
        assert _cv_criterion(times, inc, y, np.array([h]))[0] \
            <= scores.min() + 1e-9
        fit = smooth_hr_fit(s)
        for arm in (0, 1):
            arm_ev, _, _ = _hazard_increments(s, arm)
            assert fit[arm].bandwidth == cv_bandwidth_hazard(
                s, arm, _default_candidates(arm_ev))

    def test_ties_take_largest(self):
        rng = np.random.default_rng(9)
        s = exponential_sample(rng, 40)
        assert cv_bandwidth_hazard(s, 0, [0.5, 0.5, 0.5]) == 0.5

    def test_single_candidate(self):
        rng = np.random.default_rng(10)
        s = exponential_sample(rng, 40)
        assert cv_bandwidth_hazard(s, 0, [0.7]) == 0.7

    def test_candidates_must_be_positive(self):
        rng = np.random.default_rng(11)
        s = exponential_sample(rng, 40)
        with pytest.raises(ValueError, match="positive"):
            cv_bandwidth_hazard(s, 0, [-0.1, 0.5])

    def test_needs_three_events(self):
        s = CensoredSample.from_arrays(
            np.array([1.0, 2.0, 0.5, 0.7, 0.9]),
            np.array([1, 1, 0, 0, 0]),
            np.array([0, 0, 1, 1, 1]))
        with pytest.raises(ValueError, match="at least 3 event times"):
            cv_bandwidth_hazard(s, 0, [0.5])

    def test_default_grid_spans_event_range(self):
        times = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
        grid = _default_candidates(times)
        assert grid.size == 20
        assert grid[0] == pytest.approx(2.0 / 5.0)
        assert grid[-1] == pytest.approx(1.0)
        with pytest.raises(ValueError, match="all tied"):
            _default_candidates(np.array([1.0, 1.0]))


class TestSmoothHrCi:
    def test_estimate_inside_interval(self):
        rng = np.random.default_rng(12)
        s = exponential_sample(rng, 200, rate1=1.5)
        ci = smooth_hr_ci(smooth_hr_fit(s), 0.6, 0.05)
        assert ci.method == "kernel"
        assert ci.lower < ci.estimate < ci.upper
        assert ci.lower > 0.0

    def test_arm_swap_inverts_interval(self):
        rng = np.random.default_rng(14)
        s = exponential_sample(rng, 200, rate1=1.5)
        flipped = CensoredSample.from_arrays(s.time, s.status, 1 - s.arm)
        fit, flipped_fit = smooth_hr_fit(s), smooth_hr_fit(flipped)
        for x in (0.3, 0.6, 0.9):
            a = smooth_hr_ci(fit, x, 0.05)
            b = smooth_hr_ci(flipped_fit, x, 0.05)
            assert b.estimate == pytest.approx(1.0 / a.estimate, rel=1e-12)
            assert b.lower == pytest.approx(1.0 / a.upper, rel=1e-12)
            assert b.upper == pytest.approx(1.0 / a.lower, rel=1e-12)

    def test_normal_quantile_matches_scipy_stats(self):
        # scipy.special.ndtri, the reference smooth_hr_ci's quantile is held
        # to below, agrees bit for bit with scipy.stats.
        p = np.concatenate([DEFAULT_PROBABILITIES, ALPHA_GRID])
        assert np.array_equal(ndtri(p), norm.ppf(p))

    def test_normal_quantile_matches_ndtri(self):
        # smooth_hr_ci's quantile, the standard library's AS241
        p = np.concatenate([DEFAULT_PROBABILITIES, ALPHA_GRID])
        got = np.array([NormalDist().inv_cdf(x) for x in p.tolist()])
        assert np.all(np.abs(got - ndtri(p)) <= 4e-15 * np.abs(ndtri(p)))

    def test_alpha_validation(self):
        rng = np.random.default_rng(15)
        fit = smooth_hr_fit(exponential_sample(rng, 50))
        with pytest.raises(ValueError, match="alpha"):
            smooth_hr_ci(fit, 0.5, 1.0)
        # 1 - 1e-17/2 rounds to 1, whose normal quantile is infinite
        with pytest.raises(ValueError, match="alpha=1e-17 is too small"):
            smooth_hr_ci(fit, 0.5, 1e-17)

    def test_zero_hazard_refused(self):
        s = CensoredSample.from_arrays(
            np.array([0.2, 0.3, 0.4, 5.0, 5.5, 6.0]),
            np.array([1, 1, 1, 1, 1, 1]),
            np.array([0, 0, 0, 1, 1, 1]))
        with pytest.raises(ValueError, match="zero smoothed hazard"):
            smooth_hr_ci(smooth_hr_fit(s), 5.2, 0.05)

    def test_identical_arms_cover_unity(self):
        hits = 0
        for rep in range(200):
            rng = np.random.default_rng(1000 + rep)
            s = exponential_sample(rng, 200)
            ci = smooth_hr_ci(smooth_hr_fit(s), 0.7, 0.05)
            hits += ci.contains(1.0)
        assert hits >= 180
