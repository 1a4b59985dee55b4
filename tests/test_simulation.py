"""Synthetic-study generators, closed-form hazards, and metric aggregation."""
from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from scipy import integrate, stats

from mhrfit import inference, simulation
from mhrfit.inference import ChernoffConfig
from mhrfit.simulation import (MetricCell, StudyConfig, StudyMetrics,
                               generate_dataset, make_scenario, run_study,
                               _sample_censoring, _aggregate, _cum_base,
                               _invert_cumulative)
from oracles import true_cumulative_hazard

SCENARIOS = ("linear", "convex", "concave")


class TestScenarios:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario("cubic")

    def test_theta_is_hazard_ratio(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.05, 1.9, size=40)
        for name in SCENARIOS:
            sc = make_scenario(name)
            ratio = sc.hazard_treatment(x) / sc.hazard_control(x)
            assert ratio == pytest.approx(sc.true_theta(x), rel=1e-12)

    def test_theta_shapes(self):
        x = np.linspace(0.01, 1.99, 50)
        for name, f in (("linear", x), ("convex", x ** 2),
                        ("concave", np.sqrt(x))):
            sc = make_scenario(name)
            assert sc.true_theta(x) == pytest.approx(f, rel=1e-12)
            assert np.all(np.diff(sc.true_theta(x)) > 0)

    def test_cumulative_matches_quadrature(self):
        rng = np.random.default_rng(1)
        for name in SCENARIOS:
            sc = make_scenario(name)
            for arm, hazard in ((0, sc.hazard_control),
                                (1, sc.hazard_treatment)):
                for x in rng.uniform(0.05, 2.5, size=4):
                    want, err = integrate.quad(
                        lambda t: float(hazard(t)), 0.0, x, limit=200)
                    got = float(true_cumulative_hazard(sc, arm, x))
                    assert got == pytest.approx(want, abs=max(1e-9, 2 * err))

    def test_pinned_cumulative_values(self):
        sc = make_scenario("linear")
        assert float(true_cumulative_hazard(sc, 0, 1.0)) \
            == pytest.approx(0.75, abs=1e-13)
        assert float(true_cumulative_hazard(sc, 1, 1.0)) \
            == pytest.approx(0.375, abs=1e-13)
        assert float(true_cumulative_hazard(sc, 0, 0.0)) == 0.0

    def test_cumulative_strictly_increasing(self):
        x = np.linspace(0.0, 3.0, 400)
        for name in SCENARIOS:
            sc = make_scenario(name)
            for arm in (0, 1):
                vals = true_cumulative_hazard(sc, arm, x)
                assert np.all(np.diff(vals) > 0)

    def test_argument_validation(self):
        sc = make_scenario("linear")
        with pytest.raises(ValueError, match=re.escape(
                "arm must be 0 (control) or 1 (treatment), got 2")):
            true_cumulative_hazard(sc, 2, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            true_cumulative_hazard(sc, 0, -0.5)


class TestInversion:
    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        targets = rng.exponential(size=200)
        for name in SCENARIOS:
            sc = make_scenario(name)
            for cum in (sc.cumulative_control, sc.cumulative_treatment):
                t = _invert_cumulative(cum, targets)
                assert np.asarray(cum(t)) == pytest.approx(targets, abs=5e-9)

    def test_event_time_at_known_quantile(self):
        sc = make_scenario("linear")
        t = _invert_cumulative(sc.cumulative_control, np.array([0.75]))[0]
        assert t == pytest.approx(1.0, abs=1e-8)


class TestCensoring:
    def test_range_and_atoms(self):
        rng = np.random.default_rng(3)
        draws = _sample_censoring(rng, size=100_000)
        assert draws.min() > 0.0
        assert draws.max() <= 2.0
        p1 = math.exp(-0.1) - math.exp(-0.15)
        p2 = math.exp(-0.3)
        for atom, p in ((1.0, p1), (2.0, p2)):
            hits = int(np.sum(draws == atom))
            se = math.sqrt(p * (1 - p) * draws.size)
            assert abs(hits - p * draws.size) <= 3 * se

    def test_continuous_piece(self):
        rng = np.random.default_rng(4)
        draws = _sample_censoring(rng, size=100_000)
        p = 1.0 - math.exp(-0.05)
        hits = int(np.sum(draws <= 0.5))
        se = math.sqrt(p * (1 - p) * draws.size)
        assert abs(hits - p * draws.size) <= 3 * se


class TestGenerateDataset:
    def test_validation(self):
        sc = make_scenario("linear")
        with pytest.raises(ValueError, match="n must be positive"):
            generate_dataset(sc, 0, 0.5, seed=1)
        with pytest.raises(ValueError, match="pi"):
            generate_dataset(sc, 10, 1.0, seed=1)

    def test_seed_determinism(self):
        sc = make_scenario("convex")
        a = generate_dataset(sc, 50, 0.5, seed=(7, 3))
        b = generate_dataset(sc, 50, 0.5, seed=(7, 3))
        c = generate_dataset(sc, 50, 0.5, seed=(7, 4))
        columns = ("time", "status", "arm")
        assert all(np.array_equal(getattr(a, k), getattr(b, k)) for k in columns)
        assert not all(np.array_equal(getattr(a, k), getattr(c, k))
                       for k in columns)
        # numpy integer seeds key the stream like the equal Python int
        d = generate_dataset(sc, 50, 0.5, seed=np.int64(3))
        e = generate_dataset(sc, 50, 0.5, seed=3)
        assert all(np.array_equal(getattr(d, k), getattr(e, k)) for k in columns)

    def test_arm_fraction(self):
        sc = make_scenario("linear")
        s = generate_dataset(sc, 20_000, 0.3, seed=8)
        n1 = int(s.arm.sum())
        se = math.sqrt(0.3 * 0.7 * 20_000)
        assert abs(n1 - 6000) <= 3 * se

    def test_event_time_marginal(self):
        rng = np.random.default_rng(9)
        targets = rng.exponential(size=20_000)
        times = _invert_cumulative(_cum_base, targets)

        def cdf(t):
            return 1.0 - np.exp(-_cum_base(t))

        assert stats.kstest(times, cdf).statistic < 0.02

    def test_censored_fraction_matches_analytic(self):
        sc = make_scenario("linear")
        s = generate_dataset(sc, 100_000, 0.5, seed=10)

        def survival_mix(t):
            lam0 = true_cumulative_hazard(sc, 0, t)
            lam1 = true_cumulative_hazard(sc, 1, t)
            return 0.5 * (np.exp(-lam0) + np.exp(-lam1))

        piece1, _ = integrate.quad(
            lambda c: float(survival_mix(c)) * 0.1 * math.exp(-0.1 * c),
            0.0, 1.0, limit=200)
        piece2, _ = integrate.quad(
            lambda c: float(survival_mix(c)) * 0.15 * math.exp(-0.15 * c),
            1.0, 2.0, limit=200)
        p1 = math.exp(-0.1) - math.exp(-0.15)
        p_cens = (piece1 + piece2 + p1 * float(survival_mix(1.0))
                  + math.exp(-0.3) * float(survival_mix(2.0)))
        censored = int((1 - s.status).sum())
        se = math.sqrt(p_cens * (1 - p_cens) * s.n)
        assert abs(censored - p_cens * s.n) <= 3 * se


class TestStudyConfig:
    def test_field_validation(self):
        ok = dict(scenario="linear", n=100, replications=2, grid=(1.0,))
        StudyConfig(**ok)
        # alpha=0.001 puts 1 - alpha/2 outside the Chernoff table, which
        # only the monotone method's plug-in interval reads
        StudyConfig(**ok, alpha=0.001, methods=("split", "kernel"))
        for bad in (dict(n=1), dict(replications=0), dict(grid=(0.0,)),
                    dict(grid=(2.0,)), dict(alpha=0.0), dict(alpha=0.001),
                    dict(splits=1), dict(threads=0), dict(scenario="cubic"),
                    dict(methods=()), dict(methods=("magic",)),
                    dict(methods=("split", "split")), dict(grid=())):
            with pytest.raises(ValueError):
                StudyConfig(**{**ok, **bad})

    def test_unknown_scenario_refused_before_monte_carlo(self, monkeypatch):
        def no_simulation(config):
            raise AssertionError("Monte Carlo ran")

        monkeypatch.setattr(inference, "_simulate_chernoff", no_simulation)
        with pytest.raises(ValueError, match="unknown scenario 'bogus'"):
            run_study(StudyConfig(scenario="bogus", n=100, replications=1,
                                  grid=(1.0,), methods=("monotone",),
                                  chernoff=ChernoffConfig(replications=2000)))


class TestRunStudy:
    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            StudyConfig(scenario="linear", n=100, replications=1,
                        grid=(1.0,), methods=("monotone", "magic"))

    def test_repeated_method(self):
        with pytest.raises(ValueError, match="method 'split' repeated"):
            StudyConfig(scenario="linear", n=100, replications=1,
                        grid=(1.0,), methods=("split", "kernel", "split"))

    def test_shapes_and_ranges(self):
        config = StudyConfig(scenario="linear", n=150, replications=2,
                             grid=(0.8, 1.2), seed=3,
                             methods=("monotone", "split", "kernel"),
                             chernoff=ChernoffConfig(replications=300))
        metrics = run_study(config)
        assert len(metrics.cells) == 6
        for cell in metrics.cells:
            assert cell.method in ("monotone", "split", "kernel")
            assert cell.n == 150
            assert 0 <= cell.n_excluded <= 2
            if not math.isnan(cell.coverage):
                assert 0.0 <= cell.coverage <= 1.0
            if not math.isnan(cell.mse):
                assert cell.mse + 1e-12 >= (cell.scaled_bias
                                            / np.cbrt(cell.n)) ** 2

    def test_true_theta_oracle_has_zero_bias(self):
        # eight replications whose estimates are the linear truth average
        # it exactly, so the cells must show literally zero bias and full
        # coverage
        config = StudyConfig(scenario="linear", n=100, replications=8,
                             grid=(0.5, 1.0), methods=("monotone",), seed=4)
        truth = np.array([0.5, 1.0])
        results = [{"monotone": (truth, truth - 1.0, truth + 1.0)}] * 8
        metrics = _aggregate(config, results)
        assert len(metrics.cells) == 2
        for cell in metrics.cells:
            assert cell.scaled_bias == 0.0
            assert cell.scaled_var == 0.0
            assert cell.mse == 0.0
            assert cell.coverage == 1.0
            assert cell.n_excluded == 0

    def test_serial_parallel_identical(self):
        # eight replications are two chunks of four, so two workers run
        base = dict(scenario="linear", n=120, replications=8,
                    grid=(0.6, 1.0), methods=("monotone", "split"), seed=5,
                    chernoff=ChernoffConfig(replications=300))
        serial = run_study(StudyConfig(threads=1, **base))
        parallel = run_study(StudyConfig(threads=2, **base))
        assert serial.to_csv_text() == parallel.to_csv_text()

    def test_pool_sized_to_chunks(self, monkeypatch):
        # chunks of four replications: one worker for up to four, and
        # never more than threads
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, payloads, chunksize):
                assert chunksize == 4
                return map(func, payloads)

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", RecordingPool)
        for reps, threads in ((1, 4), (4, 4), (5, 4), (9, 2), (13, 8)):
            config = StudyConfig(scenario="linear", n=80, replications=reps,
                                 grid=(0.8,), methods=("split",),
                                 threads=threads)
            assert len(run_study(config).cells) == 1
        assert sizes == [1, 1, 2, 2, 4]

    def test_failed_plugin_interval_keeps_estimate(self):
        # replication 0 is the infeasible_plugin_sample fixture: no plug-in
        # interval forms, but every monotone estimate is kept
        config = StudyConfig(scenario="linear", n=500, replications=1,
                             seed=0, grid=(0.25, 0.5, 1.0),
                             methods=("monotone",),
                             chernoff=ChernoffConfig(replications=300))
        metrics = run_study(config)
        assert len(metrics.cells) == 3
        for cell in metrics.cells:
            assert cell.n_excluded == 0
            assert math.isfinite(cell.mse)
            assert math.isnan(cell.coverage)
        rows = metrics.to_csv_text().strip().split("\n")[1:]
        assert [row.split(",")[6] for row in rows] == ["nan"] * 3

    def test_unreachable_point_is_excluded(self):
        config = StudyConfig(scenario="linear", n=60, replications=3,
                             grid=(1.95,), methods=("split",), seed=1)
        metrics = run_study(config)
        cell = metrics.cells[0]
        assert cell.n_excluded == 3
        assert math.isnan(cell.scaled_bias)
        assert math.isnan(cell.coverage)


class TestMetricsSerialization:
    def _toy_metrics(self):
        return StudyMetrics(cells=(
            MetricCell(method="monotone", x=1.0, n=100, scaled_bias=0.25,
                       scaled_var=1.5, mse=0.01, coverage=0.95, n_excluded=0),
            MetricCell(method="split", x=1.0, n=100, scaled_bias=float("nan"),
                       scaled_var=float("nan"), mse=float("nan"),
                       coverage=float("nan"), n_excluded=4),
        ))

    def test_csv_layout(self):
        text = self._toy_metrics().to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == \
            "method,x,n,scaled_bias,scaled_var,mse,coverage,n_excluded"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "monotone"
        assert float(first[3]) == 0.25
        assert lines[2].split(",")[3] == "nan"

    def test_json_nan_becomes_null(self):
        data = json.loads(self._toy_metrics().to_json_text())
        cells = data["cells"]
        assert len(cells) == 2
        assert cells[0]["coverage"] == 0.95
        assert cells[1]["coverage"] is None
        assert cells[1]["n_excluded"] == 4
