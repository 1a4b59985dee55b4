"""Stochastic-order checks for finitely supported distributions.

Four orders are implemented: usual stochastic order (st), hazard rate
order (hr), likelihood ratio order (lr), and the monotone hazard ratio
relation (mhr), under which the discrete hazard ratio
lambda_S / lambda_T is nondecreasing on the union of supports.

Masses are exact fractions and every monotonicity test is done by cross
multiplication (a/b <= c/d iff a*d <= c*b for nonnegative denominators),
so ratios that are formally 0 or infinite never appear as floats.  Off
the supports the hazard ratio takes the conventional values: 0 where S
has no mass, infinity where T has no mass.

Continuous families used by the built-in gallery (Weibull, Beta) are
handled on evaluation grids via `parametric_hazard_ratio` rather than by
discretization, so grid verdicts reflect the analytic functions.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "DiscreteDistribution",
    "OrderVerdict",
    "OrderReport",
    "check_order",
    "order_report",
    "parametric_hazard_ratio",
    "figure1_suite",
    "truncated_geometric",
]

_KINDS = ("mhr", "hr", "st", "lr")
_SUM_TOL = Fraction(1, 10 ** 12)


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float):
        # exact binary expansion, no decimal rounding
        return Fraction(value)
    raise TypeError(f"cannot interpret mass {value!r} as an exact fraction")


@dataclass(frozen=True)
class DiscreteDistribution:
    """Distribution on finitely many points with exact rational masses."""

    support: tuple
    masses: tuple

    def __post_init__(self):
        if len(self.support) == 0:
            raise ValueError("support is empty")
        if len(self.support) != len(self.masses):
            raise ValueError("support and masses differ in length")
        sup = tuple(float(t) for t in self.support)
        if any(b <= a for a, b in zip(sup, sup[1:])):
            raise ValueError("support must be strictly increasing")
        masses = tuple(_to_fraction(m) for m in self.masses)
        if any(m < 0 for m in masses):
            raise ValueError("masses must be nonnegative")
        total = sum(masses)
        if abs(total - 1) > _SUM_TOL:
            raise ValueError(f"masses sum to {float(total)!r}, not 1")
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "masses", masses)

    @classmethod
    def from_pairs(cls, pairs) -> "DiscreteDistribution":
        rows = sorted(pairs, key=lambda r: float(r[0]))
        return cls(tuple(r[0] for r in rows), tuple(r[1] for r in rows))


def truncated_geometric(p: Fraction, k_max: int) -> DiscreteDistribution:
    """Geometric(p) on {1..k_max} keeping the raw masses p(1-p)^(k-1).

    The tail beyond k_max is dropped, not lumped into the last point, so
    every hazard including the last equals p exactly.  The missing mass
    (1-p)^k_max must be below the distribution sum tolerance.
    """
    p = _to_fraction(p)
    if not 0 < p < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    masses = tuple(p * (1 - p) ** (k - 1) for k in range(1, k_max + 1))
    return DiscreteDistribution(tuple(range(1, k_max + 1)), masses)


@dataclass(frozen=True)
class OrderVerdict:
    kind: str
    holds: bool
    index: int | None = None
    point: float | None = None


@dataclass(frozen=True)
class OrderReport:
    mhr: bool
    hr: bool
    st: bool
    lr: bool
    witness: dict


def _union_rows(S: DiscreteDistribution, T: DiscreteDistribution):
    """Per-point exact quantities on the union of positive-mass supports.

    Each row is (t, f_S, f_T, survival of S just before t, survival of T
    just before t, survival of S at t, survival of T at t).
    """
    f_s = {t: m for t, m in zip(S.support, S.masses) if m > 0}
    f_t = {t: m for t, m in zip(T.support, T.masses) if m > 0}
    rows = []
    cum_s = cum_t = Fraction(0)
    for t in sorted(set(f_s) | set(f_t)):
        ms = f_s.get(t, Fraction(0))
        mt = f_t.get(t, Fraction(0))
        rows.append((t, ms, mt, 1 - cum_s, 1 - cum_t,
                     1 - cum_s - ms, 1 - cum_t - mt))
        cum_s += ms
        cum_t += mt
    return rows


def _first_ratio_decrease(pairs):
    """First i where pair i-1 exceeds pair i as a ratio, else None."""
    for i in range(1, len(pairs)):
        (p0, q0), (p1, q1) = pairs[i - 1], pairs[i]
        if p0 * q1 > p1 * q0:
            return i
    return None


def check_order(S: DiscreteDistribution, T: DiscreteDistribution,
                kind: str) -> OrderVerdict:
    """Does S dominate T in the given order ("mhr", "hr", "st", "lr")?"""
    k = str(kind).lower()
    if k not in _KINDS:
        raise ValueError(f"unknown order kind {kind!r}")
    rows = _union_rows(S, T)

    if k == "st":
        for i, (t, _, _, _, _, sa_s, sa_t) in enumerate(rows):
            if sa_s < sa_t:
                return OrderVerdict(k, False, i, t)
        return OrderVerdict(k, True)

    if k == "lr":
        pairs = [(ms, mt) for _, ms, mt, *_ in rows]
        bad = _first_ratio_decrease(pairs)
        if bad is None:
            return OrderVerdict(k, True)
        return OrderVerdict(k, False, bad, rows[bad][0])

    if k == "hr":
        # survival ratio S over T nondecreasing, anchored at (1, 1);
        # points past both supports (both survivals zero) carry no ratio
        pairs = [(Fraction(1), Fraction(1))]
        where = [None]
        for i, (t, _, _, _, _, sa_s, sa_t) in enumerate(rows):
            if sa_s == 0 and sa_t == 0:
                continue
            pairs.append((sa_s, sa_t))
            where.append((i, t))
        bad = _first_ratio_decrease(pairs)
        if bad is None:
            return OrderVerdict(k, True)
        return OrderVerdict(k, False, where[bad][0], where[bad][1])

    # mhr: hazard ratio nondecreasing; hazards share the survival-before
    # denominators, so lambda_S/lambda_T = (f_S * Sbar_T) / (f_T * Sbar_S)
    pairs = []
    for _, ms, mt, sb_s, sb_t, _, _ in rows:
        if ms > 0 and mt > 0:
            pairs.append((ms * sb_t, mt * sb_s))
        elif ms > 0:
            pairs.append((Fraction(1), Fraction(0)))
        else:
            pairs.append((Fraction(0), Fraction(1)))
    bad = _first_ratio_decrease(pairs)
    if bad is None:
        return OrderVerdict(k, True)
    return OrderVerdict(k, False, bad, rows[bad][0])


def order_report(S: DiscreteDistribution, T: DiscreteDistribution) -> OrderReport:
    verdicts = {k: check_order(S, T, k) for k in _KINDS}
    witness = {k: v.index for k, v in verdicts.items() if not v.holds}
    return OrderReport(mhr=verdicts["mhr"].holds, hr=verdicts["hr"].holds,
                       st=verdicts["st"].holds, lr=verdicts["lr"].holds,
                       witness=witness)


def _weibull_hazard(grid, shape, scale):
    if shape <= 0 or scale <= 0:
        raise ValueError("weibull parameters must be positive")
    return (shape / scale) * (grid / scale) ** (shape - 1.0)


def parametric_hazard_ratio(family: str, params_s, params_t, grid) -> np.ndarray:
    """Hazard ratio lambda_S/lambda_T of a parametric pair on a grid."""
    grid = np.asarray(grid, dtype=float)
    if family == "weibull":
        if np.any(grid <= 0):
            raise ValueError("weibull grid must be positive")
        return (_weibull_hazard(grid, *params_s)
                / _weibull_hazard(grid, *params_t))
    if family == "beta":
        a_s, b_s = params_s
        a_t, b_t = params_t
        if min(a_s, b_s, a_t, b_t) <= 0:
            raise ValueError("beta parameters must be positive")
        if np.any((grid <= 0) | (grid >= 1)):
            raise ValueError("beta grid must lie strictly inside (0, 1)")
        from scipy import stats
        lam_s = stats.beta.pdf(grid, a_s, b_s) / stats.beta.sf(grid, a_s, b_s)
        lam_t = stats.beta.pdf(grid, a_t, b_t) / stats.beta.sf(grid, a_t, b_t)
        return lam_s / lam_t
    raise ValueError(f"unknown family {family!r}")


def figure1_suite() -> list:
    """Four canonical pairs separating the orders.

    Returns one entry per pair with the qualitative claims evaluated
    fresh: an increasing-ratio Weibull pair (monotone ratio without
    stochastic dominance), a constant-ratio geometric pair (same
    separation, exactly), a Beta pair ordered in likelihood ratio with a
    decreasing hazard ratio, and a five-point discrete pair ordered in
    likelihood ratio whose hazard ratio dips before its final rise.
    """
    from scipy import stats
    entries = []

    grid = np.linspace(0.05, 5.0, 200)
    ratio = parametric_hazard_ratio("weibull", (0.8, 1.2), (0.5, 1.5), grid)
    sf_s = np.exp(-((grid / 1.2) ** 0.8))
    sf_t = np.exp(-((grid / 1.5) ** 0.5))
    entries.append({
        "name": "weibull increasing ratio",
        "family": "continuous",
        "claims": {"mhr": bool(np.all(np.diff(ratio) >= 0)),
                   "st": bool(np.all(sf_s >= sf_t))},
    })

    geom_s = truncated_geometric(Fraction(4, 5), 40)
    geom_t = truncated_geometric(Fraction(1, 2), 40)
    entries.append({
        "name": "geometric constant ratio",
        "family": "discrete",
        "claims": {"mhr": check_order(geom_s, geom_t, "mhr").holds,
                   "st": check_order(geom_s, geom_t, "st").holds},
    })

    grid01 = np.linspace(0.05, 0.95, 200)
    ratio = parametric_hazard_ratio("beta", (0.3, 1.0), (0.3, 6.0), grid01)
    lr = stats.beta.pdf(grid01, 0.3, 1.0) / stats.beta.pdf(grid01, 0.3, 6.0)
    entries.append({
        "name": "beta likelihood ratio",
        "family": "continuous",
        "claims": {"lr": bool(np.all(np.diff(lr) >= 0)),
                   "mhr": bool(np.all(np.diff(ratio) >= 0))},
    })

    uniform = DiscreteDistribution(tuple(range(1, 6)), (Fraction(1, 5),) * 5)
    slumped = DiscreteDistribution(
        tuple(range(1, 6)),
        (Fraction(210, 1000), Fraction(209, 1000), Fraction(206, 1000),
         Fraction(200, 1000), Fraction(175, 1000)))
    entries.append({
        "name": "five point likelihood ratio",
        "family": "discrete",
        "claims": {"lr": check_order(uniform, slumped, "lr").holds,
                   "mhr": check_order(uniform, slumped, "mhr").holds},
    })
    return entries
