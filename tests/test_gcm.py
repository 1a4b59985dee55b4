"""Lower convex hulls and composed-hazard minorants."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mhrfit import gcm
from mhrfit.gcm import (ConvexMinorantFit, gcm_of_composed_hazards,
                        left_slope_at, lower_convex_hull)
from mhrfit.survival_core import StepFunction
from oracles import (composed_values_on_grid, gcm_on_grid_pava,
                     gcm_values_exact, gcm_vertices_exact)


def hull_of(coords):
    coords = np.asarray(coords, dtype=float).reshape(-1, 2)
    return lower_convex_hull(coords[:, 0], coords[:, 1])


def vertices(fit):
    return list(zip(fit.u.tolist(), fit.v.tolist()))


class TestLowerConvexHull:
    def test_four_point_example(self):
        fit = hull_of([(0, 0), (1, 2), (2, 2.5), (3, 4.5)])
        assert vertices(fit) == [(0, 0), (2, 2.5), (3, 4.5)]
        assert list(fit.slopes) == [1.25, 2.0]

    def test_collinear_points_stay_vertices(self):
        fit = hull_of([(0, 0), (1, 1), (2, 2)])
        assert vertices(fit) == [(0, 0), (1, 1), (2, 2)]
        assert list(fit.slopes) == [1.0, 1.0]

    def test_single_point(self):
        fit = hull_of([(0, 0)])
        assert len(fit.u) == 1
        assert fit.slopes.size == 0

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            lower_convex_hull([], [])

    def test_duplicate_abscissa_keeps_minimum(self):
        fit = hull_of([(0, 0), (1, 5), (1, 2), (2, 4)])
        assert vertices(fit) == [(0, 0), (1, 2), (2, 4)]

    def test_value_at_is_plain_float(self):
        fit = hull_of([(0, 0), (2, 2.5), (3, 4.5)])
        out = fit.value_at(1.0)
        assert type(out) is float
        assert out == 1.25
        with pytest.raises(ValueError, match="outside hull domain"):
            fit.value_at(3.5)

    def test_matches_exact_envelope_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            size = int(rng.integers(1, 13))
            # eighths in [0, 10]: exact in binary, so hull sweeps are exact
            coords = rng.integers(0, 81, size=(size, 2)) / 8.0
            fit = hull_of(coords.tolist())
            expected = gcm_vertices_exact(coords.tolist())
            got = [(Fraction(u), Fraction(v)) for u, v in vertices(fit)]
            assert got == expected
            values = dict(gcm_values_exact(coords.tolist()))
            vertex_us = {Fraction(u) for u in fit.u.tolist()}
            for u, gv in values.items():
                diff = abs(Fraction(fit.value_at(float(u))) - gv)
                # exact at vertices; interpolation rounding in between
                assert diff == 0 if u in vertex_us else diff < Fraction(1, 10 ** 9)

    def test_minorant_and_convexity_properties(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            size = int(rng.integers(2, 13))
            coords = rng.uniform(0.0, 10.0, size=(size, 2))
            fit = hull_of(coords.tolist())
            assert np.all(np.diff(fit.slopes) >= -1e-12)
            for u, v in coords.tolist():
                assert fit.value_at(u) <= v + 1e-9
            vertex_set = set(vertices(fit))
            assert vertex_set <= {(u, v) for u, v in coords.tolist()}


def hull_points(kind, size, seed):
    """Inputs above the prefilter floor, each with a different hard case."""
    rng = np.random.default_rng(seed)
    if kind == "cumulative":  # shaped like composed cumulative hazards
        u = np.cumsum(rng.exponential(size=size))
        v = np.cumsum(rng.exponential(size=size) * np.linspace(0.2, 2, size))
    elif kind == "scatter":
        u, v = rng.uniform(-5, 5, size), rng.standard_normal(size)
    elif kind == "tied":  # many points per abscissa
        u = rng.integers(0, size // 8, size).astype(float)
        v = rng.integers(0, 50, size) / 4.0
    elif kind == "collinear":  # every point on one exact line
        u = rng.permutation(size).astype(float)
        v = 3.0 * u - 7.0
    elif kind == "collinear-float":  # one line up to rounding
        u = np.sort(rng.uniform(0, 10, size))
        v = rng.uniform(0.1, 3) * u + rng.uniform(-1, 1)
    elif kind == "convex-integers":  # long exact runs on a few segments
        u = np.arange(size, dtype=float)
        v = np.maximum.reduce([0.0 * u, 2.0 * u - 1000.0, 5.0 * u - 4000.0])
        v[rng.random(size) < 0.3] += rng.integers(1, 4)
    else:  # "parabola": every point a vertex, slopes nearly equal
        u = np.sort(rng.uniform(0, 1, size))
        v = u * u
    return u, v


class TestPrefilteredHull:
    """Above `_PREFILTER_MIN` points the sweep runs on a prefiltered set."""

    @settings(max_examples=60)
    @given(st.sampled_from(["cumulative", "scatter", "tied", "collinear",
                            "collinear-float", "convex-integers",
                            "parabola"]),
           st.integers(gcm._PREFILTER_MIN + 1, 6 * gcm._PREFILTER_MIN),
           st.integers(0, 2 ** 32 - 1))
    # a bound without the slack drops points the sweep keeps here
    @example("collinear-float", 4096, 0)
    def test_equals_plain_sweep_bitwise(self, kind, size, seed):
        u, v = hull_points(kind, size, seed)
        fast = lower_convex_hull(u, v)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gcm, "_PREFILTER_MIN", np.inf)
            plain = lower_convex_hull(u, v)
        for name in ("u", "v", "slopes"):
            assert getattr(fast, name).tobytes() == getattr(plain, name).tobytes()

    def test_prefilter_drops_points(self):
        u, v = hull_points("cumulative", 20 * gcm._PREFILTER_MIN, 3)
        kept, _ = gcm._prefilter(u, v)
        assert kept.size < u.size / 4


class TestLeftSlopeAt:
    def test_pinned_slopes(self):
        fit = hull_of([(0, 0), (2, 2.5), (3, 4.5)])
        assert left_slope_at(fit, 1.5) == 1.25
        assert left_slope_at(fit, 2.0) == 1.25
        assert left_slope_at(fit, 2.5) == 2.0

    def test_domain_errors(self):
        fit = hull_of([(0, 0), (2, 2.5)])
        with pytest.raises(ValueError, match="outside hull domain"):
            left_slope_at(fit, 0.0)
        with pytest.raises(ValueError, match="outside hull domain"):
            left_slope_at(fit, 2.5)
        with pytest.raises(ValueError, match="outside hull domain"):
            left_slope_at(fit, np.array([1.0, 2.5]))

    def test_nondecreasing_in_u(self):
        rng = np.random.default_rng(17)
        coords = rng.uniform(0.0, 10.0, size=(10, 2))
        fit = hull_of(coords.tolist())
        us = np.linspace(fit.u[0] + 1e-9, fit.u[-1], 50)
        slopes = [left_slope_at(fit, float(u)) for u in us]
        assert np.all(np.diff(slopes) >= 0)
        # one array call gives the scalar results elementwise
        assert np.array_equal(left_slope_at(fit, us), slopes)


class TestComposedHazards:
    def test_hand_traced_example(self):
        lam_S = StepFunction(np.array([1.0, 3.0]), np.array([0.5, 1.5]))
        lam_T = StepFunction(np.array([2.0, 4.0]), np.array([0.5, 1.5]))
        fit = gcm_of_composed_hazards(lam_S, lam_T, eta=1.5)
        assert vertices(fit) == [(0, 0), (0.5, 0.5),
                                                      (1.5, 1.5)]
        assert list(fit.slopes) == [1.0, 1.0]

    def test_identical_hazards_give_unit_slopes(self):
        lam = StepFunction(np.array([1.0, 2.0, 5.0]), np.array([0.2, 0.9, 2.0]))
        fit = gcm_of_composed_hazards(lam, lam, eta=2.0)
        assert all(s == 1.0 for s in fit.slopes)

    def test_eta_zero_degenerate(self):
        lam = StepFunction(np.array([1.0]), np.array([0.5]))
        fit = gcm_of_composed_hazards(lam, lam, eta=0.0)
        assert vertices(fit) == [(0.0, 0.0)]

    def test_eta_beyond_support(self):
        lam = StepFunction(np.array([1.0]), np.array([0.5]))
        with pytest.raises(ValueError, match="eta beyond support"):
            gcm_of_composed_hazards(lam, lam, eta=0.6)

    def test_interior_eta_appends_boundary_point(self):
        lam_S = StepFunction(np.array([1.0, 3.0]), np.array([0.5, 1.5]))
        lam_T = StepFunction(np.array([2.0, 4.0]), np.array([0.5, 1.5]))
        fit = gcm_of_composed_hazards(lam_S, lam_T, eta=1.0)
        assert fit.u[-1] == 1.0
        # on (0.5, 1.5] the composition is lambda_S at lambda_T's second knot
        assert fit.v[-1] == 1.5

    def test_matches_dense_grid_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            k_s = int(rng.integers(1, 8))
            k_t = int(rng.integers(1, 8))
            lam_S = StepFunction(np.sort(rng.uniform(0.1, 5.0, k_s)),
                                 np.cumsum(rng.uniform(0.05, 0.6, k_s)))
            lam_T = StepFunction(np.sort(rng.uniform(0.1, 5.0, k_t)),
                                 np.cumsum(rng.uniform(0.05, 0.6, k_t)))
            eta = float(rng.uniform(0.3, 1.0)) * lam_T.sup
            fit = gcm_of_composed_hazards(lam_S, lam_T, eta)
            spacing = 1e-4 * eta
            grid = np.linspace(0.0, eta, int(np.ceil(eta / spacing)) + 1)
            h_vals = composed_values_on_grid(lam_S, lam_T, grid)
            oracle = gcm_on_grid_pava(grid, h_vals)
            got = fit.value_at(grid)
            tol = 2.0 * spacing * max(fit.slopes, default=0.0) + 1e-9
            assert np.max(np.abs(got - oracle)) <= tol
