"""The package namespace re-exports exactly the modules' public names."""
from __future__ import annotations

import importlib

import mhrfit

MODULES = ("survival_core", "gcm", "mhr_estimator", "inference",
           "kernel_baseline", "stochastic_orders", "simulation")


def test_package_all_is_union_of_module_all():
    names = set()
    for name in MODULES:
        module = importlib.import_module(f"mhrfit.{name}")
        for public in module.__all__:
            assert hasattr(module, public), f"{name}.{public}"
        names |= set(module.__all__)
    assert set(mhrfit.__all__) - {"__version__"} == names
    for public in mhrfit.__all__:
        assert hasattr(mhrfit, public), public
