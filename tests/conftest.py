"""Shared fixtures: small Monte Carlo tables, a forced table pool, datasets."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from mhrfit import inference
from mhrfit.inference import ChernoffConfig, chernoff_table
from mhrfit.simulation import generate_dataset, make_scenario
from mhrfit.survival_core import CensoredSample

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def chernoff4000():
    """Moderate-size quantile table, shared by inference and study tests."""
    return chernoff_table(ChernoffConfig(replications=4000))


@pytest.fixture
def forced_pool(monkeypatch):
    """force(cpus): chunks of 64 replications on `cpus` usable CPUs.

    Returns the list that records the size of each process pool started.
    """
    sizes = []
    process_pool = inference._process_pool

    def recording_pool(workers):
        pool = process_pool(workers)
        if pool is not None:
            sizes.append(workers)
        return pool

    def force(cpus):
        monkeypatch.setattr(inference, "_MIN_REPS_PER_WORKER", 64)
        monkeypatch.setattr(inference, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(inference, "_process_pool", recording_pool)
        return sizes
    return force


@pytest.fixture(scope="session")
def linear_sample_800():
    """One synthetic dataset from the linear scenario, n=800."""
    return generate_dataset(make_scenario("linear"), 800, 0.5, seed=11)


@pytest.fixture(scope="session")
def infeasible_plugin_sample():
    """Linear scenario, n=500: every plug-in bandwidth candidate is infeasible."""
    return generate_dataset(make_scenario("linear"), 500, 0.5, seed=(0, 0))


@pytest.fixture()
def toy_sample():
    """Two events per arm, no censoring; theta_n is identically 1."""
    return CensoredSample.from_arrays(
        np.array([1.0, 3.0, 2.0, 4.0]),
        np.array([1, 1, 1, 1]),
        np.array([1, 1, 0, 0]),
    )


def random_censored_sample(rng, n=None):
    """Generic random two-arm censored sample for property tests."""
    if n is None:
        n = int(rng.integers(20, 120))
    arms = rng.integers(0, 2, size=n)
    if arms.sum() == 0:
        arms[0] = 1
    elif arms.sum() == n:
        arms[0] = 0
    event = rng.exponential(scale=1.0, size=n) + 0.05
    censor = rng.exponential(scale=2.0, size=n) + 0.05
    times = np.minimum(event, censor)
    status = (event <= censor).astype(int)
    return CensoredSample.from_arrays(times, status, arms)
