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

from .gcm import (ConvexMinorantFit, gcm_of_composed_hazards, left_slope_at,
                  lower_convex_hull)
from .inference import (ChernoffConfig, ChernoffTable, ConfidenceInterval,
                        PluginScale, SplitFit, chernoff_table, cv_bandwidth,
                        estimate_tau, local_linear_slope, plugin_ci,
                        plugin_probability, plugin_scale, split_ci,
                        split_fit)
from .kernel_baseline import (SmoothedHazard, cv_bandwidth_hazard,
                              fit_smoothed_hazard, smooth_hr_ci,
                              smooth_hr_fit)
from .mhr_estimator import (MhrFit, TruncationPolicy, diagnostic_curve,
                            fit_theta, gamma_n, theta_at, truncation_fraction)
from .simulation import (MetricCell, Scenario, StudyConfig, StudyMetrics,
                         generate_dataset, make_scenario, run_study,
                         sample_censoring, true_cumulative_hazard)
from .stochastic_orders import (DiscreteDistribution, OrderReport,
                                OrderVerdict, check_order, discrete_hazard,
                                figure1_suite, order_report,
                                parametric_hazard_ratio, truncated_geometric)
from .survival_core import (CensoredSample, StepFunction, SurvivalCurve,
                            first_invalid_row, generalized_inverse,
                            hazard_increments, kaplan_meier, nelson_aalen,
                            reverse_kaplan_meier)

__all__ = [
    "__version__",
    "CensoredSample", "first_invalid_row", "StepFunction", "SurvivalCurve",
    "generalized_inverse", "hazard_increments", "kaplan_meier",
    "nelson_aalen", "reverse_kaplan_meier",
    "ConvexMinorantFit", "lower_convex_hull",
    "gcm_of_composed_hazards", "left_slope_at",
    "MhrFit", "TruncationPolicy", "fit_theta", "theta_at", "gamma_n",
    "truncation_fraction", "diagnostic_curve",
    "ChernoffConfig", "ChernoffTable", "ConfidenceInterval", "SplitFit",
    "PluginScale", "chernoff_table", "local_linear_slope",
    "cv_bandwidth", "plugin_scale", "plugin_probability", "estimate_tau",
    "plugin_ci", "split_fit", "split_ci",
    "SmoothedHazard", "fit_smoothed_hazard", "smooth_hr_fit",
    "cv_bandwidth_hazard", "smooth_hr_ci",
    "DiscreteDistribution", "OrderVerdict", "OrderReport", "discrete_hazard",
    "check_order", "order_report", "parametric_hazard_ratio",
    "figure1_suite", "truncated_geometric",
    "Scenario", "make_scenario", "true_cumulative_hazard",
    "sample_censoring", "generate_dataset",
    "StudyConfig", "MetricCell", "StudyMetrics", "run_study",
]
