"""Greatest convex minorant geometry.

Lower convex hulls of finite point sets given as coordinate arrays, the
minorant of one cumulative hazard composed with the inverse of another,
and left-derivative (slope) extraction.  The hull sweep uses a strict
cross-product test, so collinear input points stay in the vertex list: the
vertices are exactly the input points lying on the minorant.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .survival_core import StepFunction, generalized_inverse

__all__ = [
    "ConvexMinorantFit",
    "lower_convex_hull",
    "gcm_of_composed_hazards",
    "left_slope_at",
]


@dataclass(frozen=True, eq=False)
class ConvexMinorantFit:
    """Vertices (u strictly increasing, v) and segment slopes of a minorant."""

    u: np.ndarray
    v: np.ndarray
    slopes: np.ndarray

    def __post_init__(self):
        if len(self.slopes) != max(len(self.u) - 1, 0) or len(self.u) != len(self.v):
            raise ValueError("need equal-length u and v and one slope per vertex pair")

    def value_at(self, u):
        """Piecewise-linear evaluation on [first u, last u]."""
        if np.any(u < self.u[0]) or np.any(u > self.u[-1]):
            raise ValueError("outside hull domain")
        out = np.interp(u, self.u, self.v)
        if np.ndim(u) == 0:
            return float(out)
        return out


# Above this many distinct abscissas the sweep runs only on the points
# that a coarse hull of every 64th point does not rule out.  Both sizes
# are measured: the prefilter is faster from a few hundred points on, and
# 1.5-4x faster above 1024; step 64 beat 32, 128 and 256 from 10^4 to
# 3.5·10^5 points.
_PREFILTER_MIN = 1024
_COARSE_STEP = 64


def _sweep(u, v):
    """Hull vertices of points with strictly increasing u, as two lists."""
    hu, hv = [], []
    for pu, pv in zip(u.tolist(), v.tolist()):
        while len(hu) >= 2 and ((hu[-1] - hu[-2]) * (pv - hv[-2])
                                - (hv[-1] - hv[-2]) * (pu - hu[-2])) < 0:
            hu.pop()
            hv.pop()
        hu.append(pu)
        hv.append(pv)
    return hu, hv


def _prefilter(u, v):
    """The points not strictly above the hull of every 64th point and the last.

    That coarse hull lies on or above the full minorant, so a point above
    it is no vertex of the full hull.  The slack covers the rounding of
    the interpolated bound; it only keeps extra points, which the sweep
    drops.
    """
    coarse = np.append(np.arange(0, u.size - 1, _COARSE_STEP), u.size - 1)
    cu, cv = _sweep(u[coarse], v[coarse])
    bound = np.interp(u, cu, cv)
    keep = v <= bound + 1e-9 * (np.abs(bound) + np.abs(v) + 1.0)
    return u[keep], v[keep]


def lower_convex_hull(u, v) -> ConvexMinorantFit:
    """Lower convex hull of the points (u[i], v[i]).

    Duplicate abscissas keep the minimum ordinate.  Pops only on strictly
    negative cross products, so points lying exactly on the hull survive
    as vertices and consecutive equal slopes are possible.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("u and v must be 1-d arrays of equal length")
    if u.size == 0:
        raise ValueError("empty input")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise ValueError("coordinates must be finite")
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    first = np.concatenate([[True], u[1:] != u[:-1]])
    u, v = u[first], v[first]
    if u.size > _PREFILTER_MIN:
        u, v = _prefilter(u, v)
    hu, hv = _sweep(u, v)
    hu, hv = np.array(hu), np.array(hv)
    return ConvexMinorantFit(hu, hv, np.diff(hv) / np.diff(hu))


def gcm_of_composed_hazards(lambda_S: StepFunction, lambda_T: StepFunction,
                            eta: float) -> ConvexMinorantFit:
    """Minorant of u -> lambda_S(lambda_T^-(u)) on [0, eta].

    The composition is a left-continuous step function taking the value
    lambda_S(t_j) on (lambda_T(t_{j-1}), lambda_T(t_j)], so its greatest
    convex minorant equals the lower convex hull of the points
    (lambda_T(t_j), lambda_S(t_j)) anchored at (0, 0), with one extra
    boundary point when eta falls strictly inside a segment.
    """
    if eta > lambda_T.sup:
        raise ValueError(f"eta beyond support: {eta} > {lambda_T.sup}")
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    keep = lambda_T.values <= eta
    u = np.concatenate([[0.0], lambda_T.values[keep]])
    v = np.concatenate([[0.0], lambda_S(lambda_T.knots[keep])])
    if not np.any(u == eta):
        t_eta = generalized_inverse(lambda_T, eta)
        u = np.append(u, eta)
        v = np.append(v, lambda_S(t_eta))
    return lower_convex_hull(u, v)


def left_slope_at(fit: ConvexMinorantFit, u):
    """Slope of the hull segment reaching u from the left; scalar or array u.

    At a vertex this is the slope of the segment ending there; at the
    first vertex and outside [first u, last u] there is no such segment.
    """
    if len(fit.u) < 2 or np.any((u <= fit.u[0]) | (u > fit.u[-1])):
        raise ValueError(f"outside hull domain: u={u}")
    out = fit.slopes[np.searchsorted(fit.u, u, side="left") - 1]
    if np.ndim(u) == 0:
        return float(out)
    return out
