"""The fast-sum CV engine against the windowed engine it replaced.

`oracles.windowed_loo_predictions` and `oracles.windowed_hazard_cv_scores`
evaluate the kernels on every pair inside each window, as the library did
before it read window sums from cumulative moments.  The selected
bandwidths and the infeasible verdicts must be the same, the scores must
agree to a relative 1e-12, and the window ends must be the kernels' own
rounded support tests.
"""
from __future__ import annotations

import numpy as np
import pytest

from mhrfit import inference
from mhrfit.inference import _window_end, _window_start, cv_bandwidth
from mhrfit.kernel_baseline import (_cv_arrays, _cv_criterion,
                                    _default_candidates, cv_bandwidth_hazard)
from mhrfit.simulation import generate_dataset, make_scenario
from mhrfit.survival_core import CensoredSample, _hazard_increments
from oracles import windowed_hazard_cv_scores, windowed_loo_predictions

from test_cv_windows import plugin_search_inputs


def windowed_hazard_bandwidth(sample, arm, candidates):
    times, inc, y = _cv_arrays(sample, arm)
    return inference._select_bandwidth(
        candidates, lambda hs: windowed_hazard_cv_scores(times, inc, y, hs),
        lambda scores: 1e-12 * (1.0 + float(np.abs(scores).max())))


def windowed_plugin_bandwidth(points, candidates):
    u, y = points[:, 0], points[:, 1]

    def scores(hs):
        sums = ((windowed_loo_predictions(u, y, hs) - y) ** 2).sum(axis=1)
        return np.where(np.isnan(sums), np.inf, sums)

    return inference._select_bandwidth(
        candidates, scores, lambda _: 1e-12 * (1.0 + float(np.dot(y, y))))


@pytest.mark.parametrize("n", [200, 500])
@pytest.mark.parametrize("scenario", ["linear", "convex", "concave"])
def test_selection_matches_windowed_engine(scenario, n):
    infeasible = 0
    for seed in range(10):
        s = generate_dataset(make_scenario(scenario), n, 0.5, seed=(0, seed))
        for arm in (0, 1):
            candidates = _default_candidates(_hazard_increments(s, arm)[0])
            assert (cv_bandwidth_hazard(s, arm, candidates).hex()
                    == windowed_hazard_bandwidth(s, arm, candidates).hex())
        points, candidates = plugin_search_inputs(s)
        try:
            expected = windowed_plugin_bandwidth(points, candidates)
        except ValueError as exc:
            assert str(exc) == "all candidates infeasible"
            infeasible += 1
            with pytest.raises(ValueError, match="all candidates infeasible"):
                cv_bandwidth(points, candidates)
        else:
            assert cv_bandwidth(points, candidates).hex() == expected.hex()
    assert infeasible < 10


def test_hazard_scores_match_windowed_engine_on_long_windows():
    # the sample of test_recovers_constant_hazard: E = 5000 events in arm 0,
    # so the widest candidates' windows hold thousands of event times
    rng = np.random.default_rng(21)
    n = 5000
    times = np.concatenate([rng.exponential(1.0, n), [1.0]])
    arms = np.array([0] * n + [1])
    s = CensoredSample.from_arrays(times, np.ones(n + 1, dtype=int), arms)
    times, inc, y = _cv_arrays(s, 0)
    candidates = np.sort(_default_candidates(times))
    np.testing.assert_allclose(
        _cv_criterion(times, inc, y, candidates),
        windowed_hazard_cv_scores(times, inc, y, candidates),
        rtol=1e-12, atol=0)


@pytest.mark.parametrize("reach", [1.0, 2.0])
def test_window_ends_are_the_support_test(reach):
    # the Epanechnikov kernel's test |d / h| < 1 and, at twice the
    # bandwidth, K*K's |d / h| < 2; tied abscissae, points a rounding error
    # from a window edge, and bandwidths far below and above the spacing
    rng = np.random.default_rng(3)
    x = np.sort(np.r_[np.round(rng.uniform(0, 3, 60), 1), 1.0 + 1e-16,
                      0.1 * 3, 2.2 - 2.0 + 1.0])
    h = np.array([1e-3, 0.1, 0.1 + 1e-17, 0.3 / reach, 0.7, 5.0])
    inside = np.abs((x[None, :] - x[:, None]) / h[:, None, None]) < reach
    end = _window_end(x, reach * h)
    start = _window_start(end)
    for k in range(h.size):
        for i in range(x.size):
            members = np.flatnonzero(inside[k, i])
            assert members[0] == start[k, i]
            assert members[-1] + 1 == end[k, i]
            assert members.size == end[k, i] - start[k, i]
