"""Release gate: ten end-to-end checks, one test per criterion.

Each test pins its tolerance and (where one applies) its runtime budget
inline, so a verbose run reads as a pass/fail line per criterion.  The
statistical checks run at desk scale with fixed seeds; they are Monte
Carlo but deterministic.
"""
from __future__ import annotations

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from conftest import random_censored_sample
from mhrfit import cli
from mhrfit.gcm import _lower_convex_hull
from mhrfit.inference import ChernoffConfig, chernoff_table
from mhrfit.mhr_estimator import fit_theta
from mhrfit.simulation import (StudyConfig, run_study, _sample_censoring,
                               make_scenario, _cum_base, _invert_cumulative)
from mhrfit.stochastic_orders import (DiscreteDistribution, check_order,
                                      figure1_suite, order_report)
from mhrfit.survival_core import (CensoredSample, _hazard_increments,
                                  kaplan_meier)
from oracles import (gcm_values_exact, gcm_vertices_exact, random_discrete,
                     random_lr_chain, random_mhr_chain, true_cumulative_hazard)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture(scope="module")
def shared_chernoff_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("chernoff") / "table4000.json")


def _linear_study(n, replications, grid, cache, seed=0):
    config = StudyConfig(scenario="linear", n=n, replications=replications,
                         grid=grid, methods=("monotone",), seed=seed,
                         threads=4, chernoff=ChernoffConfig(replications=4000),
                         chernoff_cache=cache)
    return run_study(config)


def test_criterion_01_order_gallery_booleans():
    start = time.perf_counter()
    entries = {e["name"]: e["claims"] for e in figure1_suite()}
    assert entries["weibull increasing ratio"] == {"mhr": True, "st": False}
    assert entries["geometric constant ratio"] == {"mhr": True, "st": False}
    assert entries["beta likelihood ratio"] == {"lr": True, "mhr": False}
    assert entries["five point likelihood ratio"] == {"lr": True,
                                                      "mhr": False}
    assert time.perf_counter() - start < 1.0


def test_criterion_02_gcm_matches_exact_oracle():
    # eighth-integer coordinates keep every float sum, product and
    # quotient here exactly representable, so equality is literal
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        k = int(rng.integers(1, 13))
        us = rng.integers(0, 81, size=k) / 8.0
        vs = rng.integers(0, 81, size=k) / 8.0
        points = list(zip(us.tolist(), vs.tolist()))
        fit = _lower_convex_hull(us, vs)
        got_vertices = [(Fraction(u), Fraction(v))
                        for u, v in zip(fit.u.tolist(), fit.v.tolist())]
        assert got_vertices == gcm_vertices_exact(points)
        exact_slopes = [float((v1 - v0) / (u1 - u0)) for (u0, v0), (u1, v1)
                        in zip(got_vertices, got_vertices[1:])]
        assert list(fit.slopes) == exact_slopes
        values = dict(gcm_values_exact(points))
        for u in fit.u.tolist():
            assert Fraction(fit.value_at(u)) == values[Fraction(u)]
    assert time.perf_counter() - start < 10.0


@pytest.mark.slow
def test_criterion_03_chernoff_quantile_stability():
    start = time.perf_counter()
    default = chernoff_table(ChernoffConfig())
    other = chernoff_table(ChernoffConfig(replications=100_000,
                                          domain_half_width=6.0,
                                          grid_step=0.0025, seed=777))
    assert abs(default.quantile(0.975) - other.quantile(0.975)) < 0.02
    assert abs(default.quantile(0.5)) < 0.01
    assert abs(other.quantile(0.5)) < 0.01
    assert time.perf_counter() - start < 300.0


def test_criterion_04_order_relation_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    kinds = ("mhr", "hr", "st", "lr")
    instances = 0

    for _ in range(125):  # reflexivity
        d = random_discrete(rng)
        instances += 1
        assert all(check_order(d, d, kind).holds for kind in kinds)

    for _ in range(125):  # invariance under monotone relabeling
        s, t = random_discrete(rng), random_discrete(rng)
        instances += 1
        base = {kind: check_order(s, t, kind).holds for kind in kinds}
        for psi in (lambda u: u ** 3, lambda u: 2.0 * u + 1.0, math.exp):
            s2 = DiscreteDistribution(tuple(psi(u) for u in s.support),
                                      s.masses)
            t2 = DiscreteDistribution(tuple(psi(u) for u in t.support),
                                      t.masses)
            assert {kind: check_order(s2, t2, kind).holds
                    for kind in kinds} == base

    for i in range(125):  # transitivity on qualifying triples
        k = int(rng.integers(2, 7))
        if i % 2 == 0:
            s, t, u = random_mhr_chain(rng, k)
            order = ("mhr",)
        else:
            s, t, u = random_lr_chain(rng, k)
            order = ("lr", "hr", "st")
        instances += 1
        for kind in order:
            assert check_order(s, t, kind).holds
            assert check_order(t, u, kind).holds
            assert check_order(s, u, kind).holds

    for _ in range(125):  # implication hierarchy
        r = order_report(random_discrete(rng), random_discrete(rng))
        instances += 1
        if r.lr:
            assert r.hr
        if r.hr:
            assert r.st

    assert instances == 500
    assert time.perf_counter() - start < 30.0


def test_criterion_05_time_transform_equivariance():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 100:
        sample = random_censored_sample(rng)
        times = sample.time
        cubed_times = times ** 3
        cubed = CensoredSample.from_arrays(cubed_times, sample.status,
                                           sample.arm)
        try:
            fit = fit_theta(sample)
        except ValueError:
            continue
        fit3 = fit_theta(cubed)

        def psi(x):
            return float(cubed_times[np.nonzero(times == x)[0][0]])

        assert fit3.gamma_n == psi(fit.gamma_n)
        for knot, value in zip(fit.theta.knots, fit.theta.values):
            assert fit3.theta(psi(knot)) == value
        assert list(fit3.theta.knots) == [psi(k) for k in fit.theta.knots]
        assert np.array_equal(np.asarray(fit3.theta.values),
                              np.asarray(fit.theta.values))
        assert fit3.theta.value_at_zero == fit.theta.value_at_zero
        checked += 1
    assert checked == 100


def test_criterion_06_plugin_coverage(shared_chernoff_cache):
    start = time.perf_counter()
    metrics = _linear_study(3000, 200, (0.5, 1.0, 1.5),
                            shared_chernoff_cache)
    coverage = {c.x: c.coverage for c in metrics.cells}
    for x in (0.5, 1.0, 1.5):
        assert 0.88 <= coverage[x] <= 0.99, f"coverage at x={x}: {coverage[x]}"
    assert time.perf_counter() - start < 900.0


def test_criterion_07_cube_root_rate(shared_chernoff_cache, chernoff4000):
    small = _linear_study(1000, 200, (1.0,), shared_chernoff_cache).cells[0]
    large = _linear_study(4000, 200, (1.0,), shared_chernoff_cache).cells[0]
    assert large.scaled_bias <= 1.25 * small.scaled_bias

    # theoretical scale at x=1: the composed-ratio slope is
    # theta'(x)/lambda_T(x), and each arm contributes 1/(share of the
    # arm times survival times censoring survival just before x)
    sc = make_scenario("linear")
    lam_t1 = float(sc.hazard_control(1.0))
    fbar_s = math.exp(-float(true_cumulative_hazard(sc, 1, 1.0)))
    fbar_t = math.exp(-float(true_cumulative_hazard(sc, 0, 1.0)))
    fbar_cens = math.exp(-0.1)
    tau_cubed = 4.0 * (1.0 / lam_t1) * (
        1.0 / (0.5 * fbar_s * fbar_cens) + 1.0 / (0.5 * fbar_t * fbar_cens))
    limit_var = tau_cubed ** (2.0 / 3.0) * chernoff4000.variance
    assert limit_var / 3.0 <= large.scaled_var <= 3.0 * limit_var


def test_criterion_08_censoring_and_event_laws():
    rng = np.random.default_rng(8)
    draws = _sample_censoring(rng, size=100_000)
    p = math.exp(-0.1) - math.exp(-0.15)
    hits = int(np.sum(draws == 1.0))
    se = math.sqrt(p * (1.0 - p) * draws.size)
    assert abs(hits - p * draws.size) <= 3.0 * se

    targets = rng.exponential(size=100_000)
    times = _invert_cumulative(_cum_base, targets)

    def cdf(t):
        return 1.0 - np.exp(-_cum_base(t))

    assert stats.kstest(times, cdf).statistic < 0.01


def test_criterion_09_product_limit_identities():
    rng = np.random.default_rng(9)
    for i in range(200):
        sample = random_censored_sample(rng)
        arm = i % 2
        km = kaplan_meier(sample, arm)
        _, inc, _ = _hazard_increments(sample, arm)
        assert np.array_equal(km.survival, np.cumprod(1.0 - inc))

    times = np.sort(rng.uniform(0.1, 5.0, size=12))
    sample = CensoredSample.from_arrays(
        np.concatenate([times, [9.9]]),
        np.ones(13, dtype=int),
        np.array([0] * 12 + [1]))
    _, inc, _ = _hazard_increments(sample, 0)
    assert np.array_equal(inc, 1.0 / np.arange(12, 0, -1))


def test_criterion_10_serial_parallel_determinism(tmp_path):
    outputs = []
    for threads, name in (("1", "serial"), ("3", "parallel")):
        out = tmp_path / name
        code = cli.main(["simulate", "--scenario", "linear", "--n", "200",
                         "--reps", "6", "--grid", "0.5,1.0",
                         "--methods", "monotone,split,kernel", "--seed", "9",
                         "--threads", threads, "--chernoff-reps", "500",
                         "--out", str(out)])
        assert code == 0
        outputs.append(out)
    for name in ("metrics.csv", "metrics.json"):
        assert (outputs[0] / name).read_bytes() \
            == (outputs[1] / name).read_bytes()
    body = json.loads((outputs[0] / "metrics.json").read_text())
    assert len(body["cells"]) == 6
