"""Chernoff tables, the plug-in scale, and both interval constructions."""
from __future__ import annotations

import math
import os

import numpy as np
import pytest
from scipy.special import stdtrit
from scipy.stats import t as student_t

from mhrfit.gcm import _lower_convex_hull
from mhrfit import inference
from mhrfit.inference import (DEFAULT_PROBABILITIES, ChernoffConfig,
                              ChernoffTable, ConfidenceInterval, SplitFit,
                              _derivative_grid, _local_linear_slope,
                              chernoff_table, cv_bandwidth, plugin_ci,
                              plugin_probability, plugin_scale, split_ci,
                              split_fit)
from mhrfit.mhr_estimator import MhrFit, fit_theta, theta_at
from mhrfit.survival_core import CensoredSample, StepFunction
from oracles import tau_bracket_oracle

SMALL_MC = ChernoffConfig(replications=400)


def constant_theta_fit(value: float, gamma: float = 10.0) -> MhrFit:
    """Synthetic fit whose theta is a constant; enough for interval math."""
    hull = _lower_convex_hull([0.0, 1.0], [0.0, value])
    lam = StepFunction(np.array([gamma]), np.array([1.0]))
    theta = StepFunction(np.array([gamma]), np.array([value]),
                         value_at_zero=value)
    return MhrFit(theta=theta, gamma_n=gamma, eta_n=1.0, hull=hull,
                  lambda_S_hat=lam, lambda_T_hat=lam)


def identical_arms_sample(n_per_arm=15):
    times = np.linspace(0.5, 3.0, n_per_arm)
    both = np.concatenate([times, times])
    arms = np.array([0] * n_per_arm + [1] * n_per_arm)
    return CensoredSample.from_arrays(both, np.ones(2 * n_per_arm, dtype=int),
                                      arms)


class TestChernoffConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChernoffConfig(replications=0)
        with pytest.raises(ValueError):
            ChernoffConfig(grid_step=-0.1)
        with pytest.raises(ValueError):
            ChernoffConfig(domain_half_width=0.004, grid_step=0.005)

    def test_digest_distinguishes_configs(self):
        a = ChernoffConfig(replications=100)
        b = ChernoffConfig(replications=101)
        assert a.digest() == ChernoffConfig(replications=100).digest()
        assert a.digest() != b.digest()


class TestChernoffTable:
    def test_default_probabilities(self):
        assert len(DEFAULT_PROBABILITIES) == 999
        assert DEFAULT_PROBABILITIES[0] == 0.001
        assert DEFAULT_PROBABILITIES[-1] == 0.999

    def test_quantiles_monotone_and_symmetric(self, chernoff4000):
        qs = np.asarray(chernoff4000.quantiles)
        assert np.all(np.diff(qs) >= 0)
        for p in (0.9, 0.975):
            assert abs(chernoff4000.quantile(p)
                       + chernoff4000.quantile(1 - p)) < 0.08

    def test_known_scale(self, chernoff4000):
        # the limit law has sd ~ 0.52, upper 2.5% point ~ 1.0
        assert chernoff4000.quantile(0.975) == pytest.approx(0.998, abs=0.08)
        assert chernoff4000.variance == pytest.approx(0.26, abs=0.04)
        assert abs(chernoff4000.mean) < 0.03

    def test_quantile_domain(self, chernoff4000):
        for p in (0.9999, 1.5):
            with pytest.raises(ValueError, match="outside tabulated range"):
                chernoff4000.quantile(p)

    def test_deterministic_given_seed(self):
        a = chernoff_table(SMALL_MC)
        b = chernoff_table(SMALL_MC)
        assert a.quantiles == b.quantiles
        c = chernoff_table(ChernoffConfig(replications=400, seed=77))
        assert c.quantiles != a.quantiles

    def test_cache_roundtrip_and_hit(self, tmp_path):
        path = tmp_path / "table.json"
        a = chernoff_table(SMALL_MC, cache_path=path)
        stamp = os.stat(path).st_mtime_ns
        b = chernoff_table(SMALL_MC, cache_path=path)
        assert os.stat(path).st_mtime_ns == stamp
        assert a == b

    def test_cache_ignores_other_config(self, tmp_path):
        path = tmp_path / "table.json"
        chernoff_table(SMALL_MC, cache_path=path)
        other = chernoff_table(ChernoffConfig(replications=500),
                               cache_path=path)
        assert other.config.replications == 500

    def test_directory_cache_refused_before_simulating(self, tmp_path,
                                                       monkeypatch):
        def no_simulation(config):
            raise AssertionError("Monte Carlo ran")

        monkeypatch.setattr(inference, "_simulate_chernoff", no_simulation)
        with pytest.raises(ValueError, match="is a directory"):
            chernoff_table(SMALL_MC, cache_path=tmp_path)


class TestLocalLinearSlope:
    def test_reproduces_linear_function(self):
        u = np.linspace(0.0, 1.0, 25)
        pts = np.column_stack([u, 2.0 * u])
        for h in (0.1, 0.3, 1.0):
            assert _local_linear_slope(pts, 0.5, h) == pytest.approx(2.0,
                                                                    abs=1e-10)

    def test_quadratic_derivative(self):
        u = np.linspace(0.0, 1.0, 2001)
        pts = np.column_stack([u, u * u])
        assert _local_linear_slope(pts, 0.5, 0.05) == pytest.approx(1.0,
                                                                   abs=1e-2)

    def test_constant_data(self):
        u = np.linspace(0.0, 1.0, 25)
        pts = np.column_stack([u, np.ones_like(u)])
        assert _local_linear_slope(pts, 0.5, 0.2) == pytest.approx(0.0,
                                                                  abs=1e-12)

    def test_window_too_small(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(ValueError, match="bandwidth too small"):
            _local_linear_slope(pts, 1.0, 0.5)
        with pytest.raises(ValueError):
            _local_linear_slope(pts, 1.0, -1.0)


class TestCvBandwidth:
    def test_linear_data_ties_take_largest(self):
        u = np.linspace(0.0, 1.0, 30)
        pts = np.column_stack([u, 3.0 * u + 1.0])
        candidates = np.array([0.2, 0.4, 0.8])
        assert cv_bandwidth(pts, candidates) == 0.8

    def test_returns_grid_member_minimizing_score(self):
        rng = np.random.default_rng(13)
        u = np.linspace(0.0, 2.0, 60)
        y = np.sin(3.0 * u) + 0.1 * rng.standard_normal(60)
        pts = np.column_stack([u, y])
        candidates = np.geomspace(0.15, 1.0, 8)
        h = cv_bandwidth(pts, candidates)
        assert any(np.isclose(h, c) for c in candidates)

        def loo_score(hh):
            err = 0.0
            for i in range(60):
                w = np.clip(1 - ((u - u[i]) / hh) ** 2, 0.0, None) * 0.75
                w[y == y[i]] = 0.0
                d = u - u[i]
                s0, s1, s2 = w.sum(), (w * d).sum(), (w * d * d).sum()
                t0, t1 = w @ y, (w * d) @ y
                den = s0 * s2 - s1 * s1
                if (w > 0).sum() < 2 or den <= 0:
                    return np.inf
                err += ((s2 * t0 - s1 * t1) / den - y[i]) ** 2
            return err

        scores = [loo_score(c) for c in candidates]
        assert loo_score(h) <= min(scores) + 1e-9

    def test_step_data_avoids_tiny_bandwidths(self):
        # piecewise-constant responses: interpolating inside a flat run must
        # not count as prediction, so narrow windows can't win
        u = np.linspace(0.0, 1.0, 40)
        y = np.floor(u * 4.0)
        pts = np.column_stack([u, y])
        candidates = np.geomspace(0.03, 0.5, 10)
        h = cv_bandwidth(pts, candidates)
        assert h > candidates[2]

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            cv_bandwidth(np.array([[0.0, 0.0], [1.0, 1.0]]), [0.5])

    def test_all_candidates_infeasible(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(ValueError, match="all candidates infeasible"):
            cv_bandwidth(pts, [0.1])

    @pytest.mark.parametrize("candidates", [[-0.8], [0.0, 0.5]])
    def test_candidates_must_be_positive(self, candidates):
        u = np.linspace(0.0, 1.0, 30)
        pts = np.column_stack([u, 3.0 * u + 1.0])
        with pytest.raises(ValueError, match="bandwidths must be positive"):
            cv_bandwidth(pts, candidates)


class TestConfidenceInterval:
    def test_must_contain_estimate(self):
        with pytest.raises(ValueError):
            ConfidenceInterval(x=1.0, estimate=2.0, lower=0.0, upper=1.0,
                               level=0.95, method="plugin")

    def test_method_whitelist(self):
        with pytest.raises(ValueError, match="unknown method"):
            ConfidenceInterval(x=1.0, estimate=0.5, lower=0.0, upper=1.0,
                               level=0.95, method="bootstrap")

    def test_contains(self):
        ci = ConfidenceInterval(x=1.0, estimate=0.5, lower=0.0, upper=1.0,
                                level=0.95, method="split")
        assert ci.contains(0.0) and ci.contains(1.0)
        assert not ci.contains(1.001)


class TestEstimateTau:
    def test_flat_fit_gives_zero(self):
        s = identical_arms_sample()
        fit = fit_theta(s)
        assert plugin_scale(fit, s).tau(1.0) == 0.0

    def test_matches_bracket_oracle(self, linear_sample_800):
        fit = fit_theta(linear_sample_800)
        x = 1.0
        tau = plugin_scale(fit, linear_sample_800).tau(x)
        # rebuild the derivative with the public pieces, then compare the
        # remaining factors against O(n^2) product-limit loops
        m = math.ceil(round(linear_sample_800.n ** (2 / 3), 9))
        grid = np.linspace(0.0, fit.eta_n, m)
        from mhrfit.survival_core import generalized_inverse
        g = np.array([theta_at(fit, generalized_inverse(fit.lambda_T_hat, u))
                      for u in grid])
        pts = np.column_stack([grid, g])
        assert np.array_equal(_derivative_grid(fit, linear_sample_800.n)[0], pts)
        h = cv_bandwidth(pts, np.geomspace(4.0 * fit.eta_n / m,
                                           fit.eta_n / 2.0, 20))
        deriv = max(_local_linear_slope(pts, fit.lambda_T_hat(x), h), 0.0)
        bracket = tau_bracket_oracle(linear_sample_800, x,
                                     theta_at(fit, x))
        assert tau ** 3 == pytest.approx(4.0 * deriv * bracket, rel=1e-10)

    def test_permutation_invariance(self, linear_sample_800):
        rng = np.random.default_rng(3)
        perm = rng.permutation(linear_sample_800.n)
        shuffled = CensoredSample.from_arrays(linear_sample_800.time[perm],
                                              linear_sample_800.status[perm],
                                              linear_sample_800.arm[perm])
        fit_a = fit_theta(linear_sample_800)
        fit_b = fit_theta(shuffled)
        assert (plugin_scale(fit_a, linear_sample_800).tau(0.8)
                == plugin_scale(fit_b, shuffled).tau(0.8))

    def test_x_domain(self, linear_sample_800):
        fit = fit_theta(linear_sample_800)
        with pytest.raises(ValueError):
            plugin_scale(fit, linear_sample_800).tau(0.0)
        with pytest.raises(ValueError):
            plugin_scale(fit, linear_sample_800).tau(fit.gamma_n)

    def test_small_sample_grid_refused(self):
        rng = np.random.default_rng(8)
        times = rng.uniform(0.2, 3.0, size=20)
        arms = np.tile([0, 1], 10)
        s = CensoredSample.from_arrays(times, np.ones(20, dtype=int), arms)
        fit = fit_theta(s)
        with pytest.raises(ValueError, match="too small"):
            plugin_scale(fit, s).tau(0.9 * fit.gamma_n)

    def test_zero_survival_factor_refused(self, linear_sample_800):
        fit = fit_theta(linear_sample_800)
        tiny = CensoredSample.from_arrays(
            np.array([0.1, 0.2, 0.3, 0.4] * 8),
            np.ones(32, dtype=int),
            np.tile([0, 1], 16))
        with pytest.raises(ValueError, match="scale undefined"):
            plugin_scale(fit, tiny).tau(0.9)


class TestPluginCi:
    def test_halfwidth_formula(self, linear_sample_800, chernoff4000):
        fit = fit_theta(linear_sample_800)
        x = 1.0
        ci = plugin_ci(fit, linear_sample_800, x, 0.05, chernoff4000)
        tau = plugin_scale(fit, linear_sample_800).tau(x)
        q = chernoff4000.quantile(0.975)
        half = tau * q / np.cbrt(linear_sample_800.n)
        assert ci.method == "plugin"
        assert ci.estimate == theta_at(fit, x)
        assert ci.upper - ci.estimate == pytest.approx(half, rel=1e-12)
        assert ci.estimate - ci.lower == pytest.approx(half, rel=1e-12)
        assert ci.contains(ci.estimate)

    def test_level_monotonicity(self, linear_sample_800, chernoff4000):
        fit = fit_theta(linear_sample_800)
        wide = plugin_ci(fit, linear_sample_800, 1.0, 0.05, chernoff4000)
        narrow = plugin_ci(fit, linear_sample_800, 1.0, 0.9, chernoff4000)
        assert narrow.upper - narrow.lower < wide.upper - wide.lower

    def test_alpha_validation(self, linear_sample_800, chernoff4000):
        fit = fit_theta(linear_sample_800)
        with pytest.raises(ValueError):
            plugin_ci(fit, linear_sample_800, 1.0, 0.0, chernoff4000)
        with pytest.raises(ValueError, match="too small for a plug-in"):
            plugin_ci(fit, linear_sample_800, 1.0, 0.001, chernoff4000)

    def test_least_alpha_served(self, chernoff4000):
        # 1 - 0.002/2 is the table's last probability, 0.999
        assert chernoff4000.quantile(plugin_probability(0.002)) \
            == chernoff4000.quantiles[-1]
        with pytest.raises(ValueError, match="outside tabulated range"):
            plugin_probability(0.0019)


class TestPluginScale:
    def test_shared_scale_matches_per_call_scale(self, linear_sample_800,
                                                  chernoff4000):
        s = linear_sample_800
        fit = fit_theta(s)
        scale = plugin_scale(fit, s)
        for x in (0.2, 0.5, 1.0, 1.4, 0.9 * fit.gamma_n):
            shared = plugin_ci(fit, s, x, 0.05, chernoff4000, scale=scale)
            alone = plugin_ci(fit, s, x, 0.05, chernoff4000)
            assert shared.lower.hex() == alone.lower.hex()
            assert shared.upper.hex() == alone.upper.hex()
            assert scale.tau(x) == plugin_scale(fit, s).tau(x)

    def test_flat_fit_zero_width_with_shared_scale(self, chernoff4000):
        s = identical_arms_sample()
        fit = fit_theta(s)
        scale = plugin_scale(fit, s)
        assert scale.bandwidth is None and scale.failure is None
        for x in (0.8, 1.0, 1.5):
            shared = plugin_ci(fit, s, x, 0.05, chernoff4000, scale=scale)
            alone = plugin_ci(fit, s, x, 0.05, chernoff4000)
            assert shared.lower.hex() == alone.lower.hex() == shared.estimate.hex()
            assert shared.upper.hex() == alone.upper.hex() == shared.estimate.hex()

    def test_one_search_per_scale(self, linear_sample_800, monkeypatch):
        calls = []
        search = inference.cv_bandwidth

        def counted(*args, **kwargs):
            calls.append(1)
            return search(*args, **kwargs)

        monkeypatch.setattr(inference, "cv_bandwidth", counted)
        fit = fit_theta(linear_sample_800)
        scale = plugin_scale(fit, linear_sample_800)
        assert len(calls) == 1
        for x in (0.2, 0.6, 1.0, 1.4):
            scale.tau(x)
        assert len(calls) == 1

    def test_scale_of_another_fit_refused(self, linear_sample_800,
                                          chernoff4000):
        s = linear_sample_800
        scale = plugin_scale(fit_theta(s), s)
        with pytest.raises(ValueError, match="another fit"):
            plugin_ci(fit_theta(s), s, 1.0, 0.05, chernoff4000, scale=scale)

    def test_infeasible_search_is_a_fit_level_failure(
            self, infeasible_plugin_sample, chernoff4000):
        s = infeasible_plugin_sample
        fit = fit_theta(s)
        scale = plugin_scale(fit, s)
        assert scale.failure == "all candidates infeasible"
        assert scale.bandwidth is None
        for k in range(1, 10):
            x = fit.gamma_n * k / 10
            with pytest.raises(ValueError) as excinfo:
                plugin_ci(fit, s, x, 0.05, chernoff4000, scale=scale)
            assert str(excinfo.value) == "all candidates infeasible"
            assert theta_at(fit, x) == fit.theta(x)
        for x in (0.0, fit.gamma_n):
            with pytest.raises(ValueError, match="x must lie strictly inside"):
                plugin_ci(fit, s, x, 0.05, chernoff4000, scale=scale)


class TestSplitFit:
    def test_pinned_pooled_and_sd(self):
        fits = tuple(constant_theta_fit(v) for v in (1.0, 1.2, 0.8, 1.1, 0.9))
        sf = SplitFit(fits=fits, m=5)
        ci = split_ci(sf, 2.0, 0.05)
        assert ci.estimate == pytest.approx(1.0)
        sd = (ci.upper - ci.estimate) * math.sqrt(5) / student_t.ppf(0.975, 4)
        assert sd == pytest.approx(0.1581, abs=5e-5)
        assert ci.lower == pytest.approx(0.804, abs=5e-4)
        assert ci.upper == pytest.approx(1.196, abs=5e-4)
        assert ci.method == "split"

    def test_t_quantile_matches_scipy_stats(self):
        # split_ci takes its quantile from scipy.special, not scipy.stats;
        # the two must agree bit for bit so intervals do not move.
        df = np.arange(1, 101, dtype=float)[:, None]
        p = np.asarray(DEFAULT_PROBABILITIES)[None, :]
        assert np.array_equal(stdtrit(df, p), student_t.ppf(p, df))

    def test_identical_splits_zero_width(self):
        sf = SplitFit(fits=(constant_theta_fit(1.3),) * 5, m=5)
        ci = split_ci(sf, 1.0, 0.05)
        assert ci.lower == ci.estimate == ci.upper == 1.3

    def test_wider_alpha_narrower_interval(self):
        fits = tuple(constant_theta_fit(v) for v in (1.0, 1.2, 0.8, 1.1, 0.9))
        sf = SplitFit(fits=fits, m=5)
        a = split_ci(sf, 1.0, 0.05)
        b = split_ci(sf, 1.0, 0.2)
        assert b.upper - b.lower < a.upper - a.lower

    def test_short_split_refused(self):
        fits = (constant_theta_fit(1.0, gamma=0.5), constant_theta_fit(1.1))
        sf = SplitFit(fits=fits, m=2)
        with pytest.raises(ValueError, match="usable splits"):
            split_ci(sf, 1.0, 0.05)

    def test_m_validation(self, linear_sample_800):
        with pytest.raises(ValueError, match="at least 2"):
            split_fit(linear_sample_800, 1)

    def test_degenerate_split(self):
        rng = np.random.default_rng(5)
        times = rng.uniform(0.1, 2.0, size=60)
        arms = np.tile([0, 1], 30)
        s = CensoredSample.from_arrays(times, np.ones(60, dtype=int), arms)
        with pytest.raises(ValueError, match="split degenerate; reduce m"):
            split_fit(s, 50)

    def test_seed_determinism(self, linear_sample_800):
        a = split_fit(linear_sample_800, 5, seed=42)
        b = split_fit(linear_sample_800, 5, seed=42)
        c = split_fit(linear_sample_800, 5, seed=43)
        assert a.estimates_at(1.0) == b.estimates_at(1.0)
        assert a.estimates_at(1.0) != c.estimates_at(1.0)

    def test_pooled_is_mean_and_interval_centered(self, linear_sample_800):
        sf = split_fit(linear_sample_800, 5, seed=1)
        ests = sf.estimates_at(1.0)
        ci = split_ci(sf, 1.0, 0.05)
        assert ci.estimate == pytest.approx(np.mean(ests))
        assert ci.contains(np.mean(ests))
