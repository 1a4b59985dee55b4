"""Chernoff tables, the plug-in scale, and both interval constructions."""
from __future__ import annotations

import json
import math
import multiprocessing
import os
import stat
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.special import stdtrit
from scipy.stats import t as student_t

from mhrfit.gcm import _lower_convex_hull
from mhrfit import inference
from mhrfit.inference import (DEFAULT_PROBABILITIES, ChernoffConfig,
                              ChernoffTable, ConfidenceInterval, SplitFit,
                              _derivative_grid, _local_linear_slope,
                              _t_quantile, chernoff_table, cv_bandwidth,
                              plugin_ci, plugin_probability, plugin_scale,
                              split_ci, split_fit)
from mhrfit.mhr_estimator import MhrFit, fit_theta, theta_at
from mhrfit.survival_core import CensoredSample, StepFunction
from oracles import serial_chernoff_draws, tau_bracket_oracle

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
        with pytest.raises(ValueError, match="seed"):
            ChernoffConfig(replications=10, seed=-1)

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


def no_simulation(config):
    raise AssertionError("Monte Carlo ran")


class TestTableFile:
    def test_write_format_and_mode(self, tmp_path):
        path = tmp_path / "table.json"
        table = chernoff_table(SMALL_MC, cache_path=path)
        payload = {"config": asdict(table.config),
                   "config_digest": table.config.digest(),
                   "probabilities": list(table.probabilities),
                   "quantiles": list(table.quantiles),
                   "mean": table.mean, "variance": table.variance}
        assert path.read_text(encoding="utf-8") \
            == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        # the mode a plain open gives, not a private temp file's 0600
        plain = tmp_path / "plain"
        open(plain, "w").close()
        assert stat.S_IMODE(path.stat().st_mode) \
            == stat.S_IMODE(plain.stat().st_mode)
        assert sorted(os.listdir(tmp_path)) == ["plain", "table.json"]

    def test_failed_rewrite_keeps_old_table(self, tmp_path, monkeypatch):
        path = tmp_path / "table.json"
        old = chernoff_table(SMALL_MC, cache_path=path)
        written = path.read_bytes()
        new = chernoff_table(ChernoffConfig(replications=50))

        def dump_half(obj, fh, **kwargs):
            fh.write(json.dumps(obj, **kwargs)[:1000])
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dump_half)
        with pytest.raises(OSError, match="disk full"):
            inference._save_table(new, path)
        monkeypatch.undo()
        assert os.listdir(tmp_path) == ["table.json"]
        assert path.read_bytes() == written
        monkeypatch.setattr(inference, "_simulate_chernoff", no_simulation)
        assert chernoff_table(SMALL_MC, cache_path=path) == old


class TestConfigIntegers:
    def test_numpy_integers_are_ints(self, tmp_path):
        a = ChernoffConfig(replications=np.int64(60), seed=np.uint16(5))
        b = ChernoffConfig(replications=60, seed=5)
        assert type(a.replications) is int and type(a.seed) is int
        assert a == b and a.digest() == b.digest()
        chernoff_table(a, cache_path=tmp_path / "a.json")
        chernoff_table(b, cache_path=tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() \
            == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("field", ["replications", "seed"])
    @pytest.mark.parametrize("value", [60.0, np.float64(60.0), True,
                                       np.True_, "60"],
                             ids=["float", "numpy-float", "bool",
                                  "numpy-bool", "str"])
    def test_non_integers_refused(self, monkeypatch, field, value):
        monkeypatch.setattr(inference, "_simulate_chernoff", no_simulation)
        with pytest.raises(ValueError, match=f"^ChernoffConfig {field} "
                                             "must be an integer, got "):
            chernoff_table(ChernoffConfig(**{field: value}))


def refuse_chunk(config, start, stop):
    raise ValueError(f"chunk {start}:{stop} refused")


class TestChernoffPool:
    # 300 replications: four chunks of 64 and one of 44
    CONFIG = ChernoffConfig(replications=300)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_draws_match_serial_oracle(self, forced_pool, cpus):
        sizes = forced_pool(cpus)
        draws = inference._simulate_chernoff(self.CONFIG)
        assert sizes == ([] if cpus == 1 else [cpus])
        assert draws.tobytes() == serial_chernoff_draws(self.CONFIG).tobytes()
        assert multiprocessing.active_children() == []

    def test_pool_capped_at_chunks(self, forced_pool):
        sizes = forced_pool(3)
        config = ChernoffConfig(replications=130)  # two chunks of 64, one of 2
        draws = inference._simulate_chernoff(config)
        assert sizes == [2]
        assert draws.tobytes() == serial_chernoff_draws(config).tobytes()

    def test_small_table_stays_in_process(self, forced_pool):
        # the suite's tables of up to 4000 replications start no processes
        assert 4000 < 2 * inference._MIN_REPS_PER_WORKER
        sizes = forced_pool(3)
        inference._simulate_chernoff(ChernoffConfig(replications=127))
        assert sizes == []

    def test_daemonic_process_stays_in_process(self, forced_pool,
                                               monkeypatch):
        sizes = forced_pool(2)
        daemon = multiprocessing.Process(daemon=True)
        monkeypatch.setattr(multiprocessing, "current_process", lambda: daemon)
        draws = inference._simulate_chernoff(self.CONFIG)
        assert sizes == []
        assert draws.tobytes() == serial_chernoff_draws(self.CONFIG).tobytes()

    def test_worker_error_reaches_caller(self, forced_pool, monkeypatch):
        sizes = forced_pool(2)
        monkeypatch.setattr(inference, "_chernoff_draws", refuse_chunk)
        with pytest.raises(ValueError, match=r"^chunk 0:64 refused$"):
            chernoff_table(self.CONFIG)
        assert sizes == [2]
        assert multiprocessing.active_children() == []


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
        # nondecreasing, with runs of repeated levels, as on a derivative grid
        y = np.round(np.maximum.accumulate(u + 0.1 * rng.standard_normal(60)),
                     1)
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


class TestTQuantile:
    def test_matches_stdtrit(self):
        p = np.asarray(DEFAULT_PROBABILITIES)
        for df in [*range(1, 201), 500, 1000]:
            ref = stdtrit(df, p)
            got = np.array([_t_quantile(df, x) for x in DEFAULT_PROBABILITIES])
            err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
            assert err.max() <= 1e-12, (df, p[err.argmax()])

    def test_small_df_tails(self):
        # past the tabulated range, where the tail sum keeps small df accurate
        tails = 10.0 ** -np.arange(4.0, 16.0)
        for df in range(1, 11):
            for p in (tails, 1.0 - tails):
                ref = stdtrit(df, p)
                got = np.array([_t_quantile(df, x) for x in p.tolist()])
                assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref)), df

    def test_closed_forms(self):
        assert _t_quantile(1, 0.75) == pytest.approx(1.0, rel=1e-15)
        assert _t_quantile(2, 0.9) == pytest.approx(4.0 * math.sqrt(2.0) / 3.0,
                                                     rel=1e-15)
        for p in DEFAULT_PROBABILITIES:
            assert _t_quantile(1, p) == pytest.approx(
                math.tan(math.pi * (p - 0.5)), rel=1e-13, abs=1e-15)
            assert _t_quantile(2, p) == pytest.approx(
                (2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p)),
                rel=1e-14, abs=1e-15)

    def test_symmetry(self):
        for df in (1, 2, 3, 4, 5, 30, 1000):
            assert _t_quantile(df, 0.5) == 0.0
            # 1 - p is exact for p >= 0.5
            for p in DEFAULT_PROBABILITIES[499:]:
                assert _t_quantile(df, 1.0 - p) == -_t_quantile(df, p)

    @given(df=st.integers(1, 1000), a=st.floats(1e-6, 1.0 - 1e-6),
           b=st.floats(1e-6, 1.0 - 1e-6))
    def test_increasing(self, df, a, b):
        lo, hi = sorted((a, b))
        # further apart than the root finder's own error
        assume(hi - lo >= 1e-9)
        assert _t_quantile(df, lo) < _t_quantile(df, hi)

    @pytest.mark.parametrize("df,p", [(0, 0.9), (4, 0.0), (4, 1.0),
                                      (4, math.nan)])
    def test_domain(self, df, p):
        with pytest.raises(ValueError, match="need df >= 1"):
            _t_quantile(df, p)


class TestSplitFit:
    def test_pinned_pooled_and_sd(self):
        fits = tuple(constant_theta_fit(v) for v in (1.0, 1.2, 0.8, 1.1, 0.9))
        sf = SplitFit(fits=fits)
        ci = split_ci(sf, 2.0, 0.05)
        assert ci.estimate == pytest.approx(1.0)
        sd = (ci.upper - ci.estimate) * math.sqrt(5) / student_t.ppf(0.975, 4)
        assert sd == pytest.approx(0.1581, abs=5e-5)
        assert ci.lower == pytest.approx(0.804, abs=5e-4)
        assert ci.upper == pytest.approx(1.196, abs=5e-4)
        assert ci.method == "split"

    def test_t_quantile_matches_scipy_stats(self):
        # scipy.special.stdtrit, the reference TestTQuantile holds split_ci's
        # quantile to, agrees bit for bit with scipy.stats.
        df = np.arange(1, 101, dtype=float)[:, None]
        p = np.asarray(DEFAULT_PROBABILITIES)[None, :]
        assert np.array_equal(stdtrit(df, p), student_t.ppf(p, df))

    def test_identical_splits_zero_width(self):
        sf = SplitFit(fits=(constant_theta_fit(1.3),) * 5)
        ci = split_ci(sf, 1.0, 0.05)
        assert ci.lower == ci.estimate == ci.upper == 1.3

    def test_alpha_too_small_refused(self):
        # 1 - 1e-17/2 rounds to 1, whose t quantile is infinite
        sf = SplitFit(fits=(constant_theta_fit(1.3),) * 5)
        with pytest.raises(ValueError, match="alpha=1e-17 is too small"):
            split_ci(sf, 1.0, 1e-17)

    def test_wider_alpha_narrower_interval(self):
        fits = tuple(constant_theta_fit(v) for v in (1.0, 1.2, 0.8, 1.1, 0.9))
        sf = SplitFit(fits=fits)
        a = split_ci(sf, 1.0, 0.05)
        b = split_ci(sf, 1.0, 0.2)
        assert b.upper - b.lower < a.upper - a.lower

    def test_short_split_refused(self):
        fits = (constant_theta_fit(1.0, gamma=0.5), constant_theta_fit(1.1))
        sf = SplitFit(fits=fits)
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
