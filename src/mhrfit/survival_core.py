"""Step-function algebra and the classical right-censored estimators.

Everything downstream (hull construction, the monotone ratio estimator,
confidence intervals) consumes the objects defined here: two-arm samples
held as three read-only columns, right-continuous step functions, and the
Nelson-Aalen / Kaplan-Meier / reverse Kaplan-Meier fits.  Per-subject work
is done by masks and one stable time sort on the columns, never by a loop.

Conventions: arm 0 is the control arm (T), arm 1 the treatment arm (S);
status 1 is an event, 0 a censoring.  At tied times events are counted
before censorings leave the risk set, i.e. the at-risk set at t is
{Y_i >= t}.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CensoredSample",
    "StepFunction",
    "SurvivalCurve",
    "generalized_inverse",
    "nelson_aalen",
    "kaplan_meier",
    "reverse_kaplan_meier",
]


@dataclass(frozen=True, eq=False)
class CensoredSample:
    """A two-arm right-censored sample: one entry per subject in each column.

    ``time`` is float, ``status`` and ``arm`` are 0/1 integers.  The columns
    are private copies of the input and are read-only.  Construction makes
    one stable sort by time and splits it into each arm's order, which
    ``arm_arrays`` reads.
    """

    time: np.ndarray
    status: np.ndarray
    arm: np.ndarray

    def __post_init__(self):
        time = np.array(self.time, dtype=float)
        status, arm = np.asarray(self.status), np.asarray(self.arm)
        if time.ndim != 1 or not time.shape == status.shape == arm.shape:
            raise ValueError("time, status and arm must be 1-d columns of equal length")
        if time.size < 1:
            raise ValueError("sample must contain at least one observation")
        invalid = _first_invalid_row(time, status, arm)
        if invalid is not None:
            raise ValueError(invalid[1])
        order = np.argsort(time, kind="stable")
        in_arm_1 = (arm == 1)[order]
        columns = {"time": time, "status": status.astype(np.int64),
                   "arm": arm.astype(np.int64),
                   "_arm_0": order[~in_arm_1], "_arm_1": order[in_arm_1]}
        for name, col in columns.items():
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    @classmethod
    def from_arrays(cls, times, status, arms) -> "CensoredSample":
        """Sample from three equal-length columns, validated, never coerced."""
        return cls(times, status, arms)

    @property
    def n(self) -> int:
        return int(self.time.size)

    @property
    def pi_n(self) -> float:
        """Empirical fraction of subjects in arm 1."""
        return int(self.arm.sum()) / self.n

    def arm_arrays(self, arm: int) -> tuple[np.ndarray, np.ndarray]:
        """(times, status) for one arm in time order; ties keep input order."""
        order = self._arm_1 if arm == 1 else self._arm_0 if arm == 0 else []
        return self.time[order], self.status[order]


def _first_invalid_row(time, status, arm):
    """(index, message) for the first row breaking a value rule, else None.

    The rules: time is finite and nonnegative, status and arm are exactly
    0 or 1.  Rows are taken in order; within a row, time is named first,
    then status, then arm.  The columns must be 1-d arrays of equal length.
    """
    bad_time = ~(np.isfinite(time) & (time >= 0))
    bad_status = (status != 0) & (status != 1)
    bad_arm = (arm != 0) & (arm != 1)
    bad = bad_time | bad_status | bad_arm
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if bad_time[i]:
        return i, f"time must be finite and nonnegative, got {time[i]}"
    if bad_status[i]:
        return i, f"status must be 0 or 1, got {status[i]}"
    return i, f"arm must be 0 or 1, got {arm[i]}"


def _step_lookup(knots, values, default, t, side):
    """values[j] at the j-th knot interval, default before the first knot.

    side "right" evaluates right-continuously (intervals [k_j, k_j+1));
    side "left" gives the left limit (intervals (k_j, k_j+1]).
    """
    idx = np.searchsorted(knots, t, side=side) - 1
    out = np.where(idx >= 0, values[np.maximum(idx, 0)] if values.size
                   else default, default)
    if np.ndim(t) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous nondecreasing piecewise-constant function.

    Value is ``value_at_zero`` on (-inf, knots[0]) and ``values[j]`` on
    [knots[j], knots[j+1]).  Empty knot lists give the constant
    ``value_at_zero``.
    """

    knots: np.ndarray
    values: np.ndarray
    value_at_zero: float = 0.0

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if knots.shape != values.shape or knots.ndim != 1:
            raise ValueError("knots and values must be 1-d arrays of equal length")
        if knots.size and np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if values.size and np.any(np.diff(values) < 0):
            raise ValueError("values must be nondecreasing")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    def __call__(self, t):
        """Right-continuous evaluation; scalar or array argument."""
        return _step_lookup(self.knots, self.values, self.value_at_zero, t, "right")

    def left_limit(self, t):
        """Value just before t (the left limit)."""
        return _step_lookup(self.knots, self.values, self.value_at_zero, t, "left")

    @property
    def sup(self) -> float:
        return float(self.values[-1]) if self.values.size else self.value_at_zero


@dataclass(frozen=True)
class SurvivalCurve:
    """Right-continuous non-increasing survival step function.

    ``survival`` holds the survival value on each [knots[j], knots[j+1]),
    and the curve is 1 before the first knot.  Evaluation returns the
    stored product-limit values themselves, so product-limit identities
    hold bitwise.
    """

    knots: np.ndarray
    survival: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        survival = np.asarray(self.survival, dtype=float)
        if survival.shape != knots.shape:
            raise ValueError("survival values must match the knots")
        if survival.size and np.any(np.diff(survival) > 0):
            raise ValueError("survival values must be non-increasing")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "survival", survival)

    def __call__(self, t):
        return _step_lookup(self.knots, self.survival, 1.0, t, "right")

    def left_limit(self, t):
        """Survival just before t."""
        return _step_lookup(self.knots, self.survival, 1.0, t, "left")


def generalized_inverse(f: StepFunction, u):
    """Smallest t with f(t) >= u; 0 for u <= f's value at zero.

    The quantile-type inverse inf{t : f(t) >= u}, elementwise for an
    array u; a scalar u gives a float.
    """
    us = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(us > f.sup):
        raise ValueError(f"above range: u={u} exceeds sup f={f.sup}")
    t = np.zeros(us.shape)
    inside = us > f.value_at_zero
    t[inside] = f.knots[np.searchsorted(f.values, us[inside], side="left")]
    return float(t[0]) if np.ndim(u) == 0 else t


def _increments(times: np.ndarray, status: np.ndarray, arm: int):
    """(distinct event times, dN/Y, at-risk counts Y) of one time-sorted arm."""
    if times.size == 0:
        raise ValueError(f"empty stratum: no observations in arm {arm}")
    # the first index of each distinct time, read off the sorted times
    first = np.flatnonzero(np.r_[True, times[1:] != times[:-1]])
    # at risk at u: subjects with observed time >= u
    at_risk = times.size - first
    d = np.add.reduceat(status, first)
    keep = d > 0
    y = at_risk[keep].astype(float)
    return times[first[keep]], d[keep].astype(float) / y, y


def _hazard_increments(sample: CensoredSample, arm: int):
    """(event times, Nelson-Aalen increments dN/Y, at-risk counts) for an arm."""
    return _increments(*sample.arm_arrays(arm), arm)


def _product_limit(times: np.ndarray, status: np.ndarray, arm: int) -> SurvivalCurve:
    utimes, inc, _ = _increments(times, status, arm)
    return SurvivalCurve(utimes, np.cumprod(1.0 - inc))


def nelson_aalen(sample: CensoredSample, arm: int) -> StepFunction:
    """Stratified Nelson-Aalen cumulative hazard for one arm."""
    utimes, inc, _ = _hazard_increments(sample, arm)
    return StepFunction(utimes, np.cumsum(inc))


def kaplan_meier(sample: CensoredSample, arm: int) -> SurvivalCurve:
    """Kaplan-Meier survival curve for the event distribution of one arm."""
    return _product_limit(*sample.arm_arrays(arm), arm)


def reverse_kaplan_meier(sample: CensoredSample, arm: int) -> SurvivalCurve:
    """Kaplan-Meier with the status flipped: the censoring survival curve."""
    times, status = sample.arm_arrays(arm)
    return _product_limit(times, 1 - status, arm)
