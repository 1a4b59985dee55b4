"""Windowed cross-validation scores against the full-matrix formulas.

Both bandwidth searches sum their scores over row blocks and the column
windows that the kernels' compact support reaches.  The dense formulas in
`oracles` are the reference: scores and predictions must agree to a
relative 1e-12 (the summation order differs), infeasible bandwidths must
stay infeasible, and the selected bandwidths must be the same.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from mhrfit import inference
from mhrfit.inference import _derivative_grid, _loo_predictions, cv_bandwidth
from mhrfit.kernel_baseline import (_cv_arrays, _cv_criterion,
                                    _default_candidates, cv_bandwidth_hazard)
from mhrfit.mhr_estimator import fit_theta
from mhrfit.simulation import generate_dataset, make_scenario
from mhrfit.survival_core import CensoredSample, _hazard_increments
from oracles import dense_hazard_cv_score, dense_loo_predictions

from test_kernel_baseline import exponential_sample


def plugin_search_inputs(sample):
    """Derivative-grid points and the plug-in scale's candidate grid."""
    fit = fit_theta(sample)
    points, m = _derivative_grid(fit, sample.n)
    return points, np.geomspace(4.0 * fit.eta_n / m, fit.eta_n / 2.0, 20)


def tied_sample(n_per_arm, step):
    rng = np.random.default_rng(5)
    s = exponential_sample(rng, n_per_arm)
    return CensoredSample.from_arrays(np.round(s.time / step) * step + step,
                                      s.status, s.arm)


def oracle_hazard_bandwidth(sample, arm, candidates):
    times, inc, y = _cv_arrays(sample, arm)
    return inference._select_bandwidth(
        candidates,
        lambda hs: [dense_hazard_cv_score(times, inc, y, h) for h in hs],
        lambda scores: 1e-12 * (1.0 + float(np.abs(scores).max())))


def oracle_plugin_bandwidth(points, candidates):
    u, y = points[:, 0], points[:, 1]

    def scores(hs):
        preds = [dense_loo_predictions(u, y, h) for h in hs]
        return [np.inf if p is None else float(np.sum((p - y) ** 2))
                for p in preds]

    return inference._select_bandwidth(
        candidates, scores, lambda _: 1e-12 * (1.0 + float(np.dot(y, y))))


KERNEL_SAMPLES = {
    "one-block": lambda: exponential_sample(np.random.default_rng(1), 40),
    "many-blocks": lambda: exponential_sample(np.random.default_rng(2), 600),
    "tied-times": lambda: tied_sample(600, 0.02),
}


class TestHazardCriterion:
    @pytest.mark.parametrize("name", sorted(KERNEL_SAMPLES))
    def test_scores_match_dense_oracle(self, name):
        s = KERNEL_SAMPLES[name]()
        if name == "tied-times":
            assert np.unique(s.time[s.status == 1]).size < s.status.sum()
        for arm in (0, 1):
            times, inc, y = _cv_arrays(s, arm)
            assert np.all(np.diff(times) > 0)
            if name == "one-block":
                assert times.size < inference._BLOCK
            else:
                assert times.size > inference._BLOCK
            candidates = np.sort(_default_candidates(times))
            expected = [dense_hazard_cv_score(times, inc, y, h)
                        for h in candidates]
            np.testing.assert_allclose(
                _cv_criterion(times, inc, y, candidates), expected,
                rtol=1e-12, atol=0)

    def test_peak_memory_bounded(self):
        # the sample of test_recovers_constant_hazard: E = 5000 events in
        # arm 0; one dense E x E float array alone is 200 MB
        rng = np.random.default_rng(21)
        n = 5000
        times = np.concatenate([rng.exponential(1.0, n), [1.0]])
        arms = np.array([0] * n + [1])
        s = CensoredSample.from_arrays(times, np.ones(n + 1, dtype=int), arms)
        candidates = _default_candidates(_hazard_increments(s, 0)[0])
        tracemalloc.start()
        try:
            cv_bandwidth_hazard(s, 0, candidates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


def tied_points():
    rng = np.random.default_rng(8)
    u = np.repeat(np.linspace(0.0, 2.0, 90), 2)
    y = np.round(np.sin(2.0 * u) + 0.2 * rng.standard_normal(u.size), 1)
    return np.column_stack([u, y])


PLUGIN_POINTS = {
    "one-block": lambda: plugin_search_inputs(
        generate_dataset(make_scenario("convex"), 500, 0.5, seed=(0, 1))),
    "many-blocks": lambda: plugin_search_inputs(
        generate_dataset(make_scenario("linear"), 5000, 0.5, seed=(0, 1))),
}


class TestLooPredictions:
    @pytest.mark.parametrize("name", sorted(PLUGIN_POINTS))
    def test_predictions_match_dense_oracle(self, name):
        points, candidates = PLUGIN_POINTS[name]()
        u, y = points[:, 0], points[:, 1]
        assert np.all(np.diff(u) >= 0)
        if name == "one-block":
            assert u.size < inference._BLOCK
        else:
            assert u.size > inference._BLOCK
        pred = _loo_predictions(u, y, candidates)
        feasible = 0
        for row, h in zip(pred, candidates):
            expected = dense_loo_predictions(u, y, h)
            if expected is None:
                assert np.all(np.isnan(row))
            else:
                feasible += 1
                np.testing.assert_allclose(row, expected, rtol=1e-12, atol=0)
        assert 0 < feasible < candidates.size

    @pytest.mark.parametrize("name", sorted(PLUGIN_POINTS))
    def test_row_permutation_invariance(self, name):
        points, candidates = PLUGIN_POINTS[name]()
        perm = np.random.default_rng(4).permutation(points.shape[0])
        assert (cv_bandwidth(points[perm], candidates)
                == cv_bandwidth(points, candidates))


class TestInputContract:
    # the search serves the derivative grid: distinct abscissae, and
    # responses nondecreasing in them, so that each level is one run
    RULE = "distinct abscissae and responses nondecreasing in them"

    def test_tied_abscissae_refused(self):
        points = tied_points()
        assert np.unique(points[:, 0]).size < points.shape[0]
        with pytest.raises(ValueError, match=self.RULE):
            cv_bandwidth(points, np.geomspace(0.02, 1.0, 20))

    def test_non_monotone_responses_refused(self):
        rng = np.random.default_rng(13)
        u = np.linspace(0.0, 2.0, 60)
        y = np.sin(3.0 * u) + 0.1 * rng.standard_normal(60)
        with pytest.raises(ValueError, match=self.RULE):
            cv_bandwidth(np.column_stack([u, y]), np.geomspace(0.15, 1.0, 8))

    def test_point_count_checked_first(self):
        # two points at one abscissa, in decreasing order, break the rule
        # too; the count is reported
        with pytest.raises(ValueError, match="need at least 3 points"):
            cv_bandwidth([(0.0, 1.0), (0.0, 0.0)], [0.5])


@pytest.mark.parametrize("scenario", ["linear", "convex", "concave"])
def test_selection_matches_dense_oracle(scenario):
    infeasible = 0
    for seed in range(10):
        s = generate_dataset(make_scenario(scenario), 200, 0.5, seed=(0, seed))
        for arm in (0, 1):
            candidates = _default_candidates(_hazard_increments(s, arm)[0])
            assert (cv_bandwidth_hazard(s, arm, candidates)
                    == oracle_hazard_bandwidth(s, arm, candidates))
        points, candidates = plugin_search_inputs(s)
        try:
            expected = oracle_plugin_bandwidth(points, candidates)
        except ValueError as exc:
            assert str(exc) == "all candidates infeasible"
            infeasible += 1
            with pytest.raises(ValueError, match="all candidates infeasible"):
                cv_bandwidth(points, candidates)
        else:
            assert cv_bandwidth(points, candidates) == expected
    assert infeasible < 10
