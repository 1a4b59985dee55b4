"""Monotone hazard ratio estimation for two-arm right-censored data.

The estimator composes the arms' Nelson-Aalen cumulative hazards, takes
the greatest convex minorant of the composition, and reads the monotone
hazard ratio off its left-hand slopes.  Pointwise confidence intervals
come either from a plug-in of the limiting Chernoff-type law or from
sample splitting.  `stochastic_orders` provides exact order checkers for
discrete distributions, and `simulation` a reproducible synthetic-study
harness; the `mhrfit` command exposes everything over CSV files.
"""

__version__ = "0.1.0"

from . import (gcm, inference, kernel_baseline, mhr_estimator, simulation,
               stochastic_orders, survival_core)
from .gcm import *
from .inference import *
from .kernel_baseline import *
from .mhr_estimator import *
from .simulation import *
from .stochastic_orders import *
from .survival_core import *

__all__ = ["__version__", *survival_core.__all__, *gcm.__all__,
           *mhr_estimator.__all__, *inference.__all__,
           *kernel_baseline.__all__, *stochastic_orders.__all__,
           *simulation.__all__]
