"""Exact order checks on discrete distributions and the built-in gallery."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from mhrfit.stochastic_orders import (DiscreteDistribution, OrderVerdict,
                                      _beta_hazard, _weibull_hazard,
                                      check_order, figure1_suite,
                                      order_report, truncated_geometric)
from oracles import (discrete_hazard, random_discrete, random_lr_pair,
                     random_mhr_chain)

F = Fraction


def uniform_on(points):
    k = len(points)
    return DiscreteDistribution(tuple(points), (F(1, k),) * k)


class TestDiscreteDistribution:
    def test_validation(self):
        with pytest.raises(ValueError, match="support is empty"):
            DiscreteDistribution((), ())
        with pytest.raises(ValueError, match="differ in length"):
            DiscreteDistribution((1, 2), (F(1),))
        with pytest.raises(ValueError, match="strictly increasing"):
            DiscreteDistribution((2, 2), (F(1, 2), F(1, 2)))
        with pytest.raises(ValueError, match="nonnegative"):
            DiscreteDistribution((1, 2), (F(3, 2), F(-1, 2)))
        with pytest.raises(ValueError, match="sum to"):
            DiscreteDistribution((1, 2), (F(1, 2), F(1, 4)))
        with pytest.raises(TypeError):
            DiscreteDistribution((1,), (object(),))

    @pytest.mark.parametrize("point", [np.nan, np.inf, -np.inf])
    def test_non_finite_support_refused(self, point):
        with pytest.raises(ValueError, match="support points must be finite"):
            DiscreteDistribution((1.0, point), (F(1, 2), F(1, 2)))

    def test_near_one_total_within_tolerance(self):
        eps = F(1, 10 ** 13)
        d = DiscreteDistribution((1, 2), (F(1, 2), F(1, 2) - eps))
        assert sum(d.masses) == 1 - eps

    def test_from_pairs_sorts(self):
        d = DiscreteDistribution.from_pairs([(3, F(1, 4)), (1, F(3, 4))])
        assert d.support == (1.0, 3.0)
        assert d.masses == (F(3, 4), F(1, 4))


class TestTruncatedGeometric:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            truncated_geometric(F(0), 10)
        with pytest.raises(ValueError):
            truncated_geometric(F(1), 10)

    def test_tail_deficit_must_be_negligible(self):
        d = truncated_geometric(F(1, 2), 40)
        assert sum(d.masses) == 1 - F(1, 2) ** 40
        with pytest.raises(ValueError, match="sum to"):
            truncated_geometric(F(1, 2), 20)

    def test_constant_hazard_everywhere(self):
        d = truncated_geometric(F(4, 5), 40)
        rates = discrete_hazard(d)
        assert rates == pytest.approx(np.full(40, 0.8), abs=1e-9)


class TestDiscreteHazard:
    def test_uniform_five_points(self):
        rates = discrete_hazard(uniform_on((1, 2, 3, 4, 5)))
        assert rates.tolist() == pytest.approx([0.2, 0.25, 1 / 3, 0.5, 1.0])

    def test_point_mass(self):
        assert discrete_hazard(DiscreteDistribution((2,), (F(1),))).tolist() \
            == [1.0]

    def test_zero_over_zero_is_zero(self):
        d = DiscreteDistribution((1, 2), (F(1), F(0)))
        assert discrete_hazard(d).tolist() == [1.0, 0.0]

    def test_exact_sum_ends_at_one(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            assert discrete_hazard(random_discrete(rng))[-1] == 1.0


class TestCheckOrder:
    def test_unknown_kind(self):
        d = uniform_on((1, 2))
        with pytest.raises(ValueError, match="unknown order kind"):
            check_order(d, d, "convex")

    def test_reflexive(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = random_discrete(rng)
            for kind in ("mhr", "hr", "st", "lr"):
                v = check_order(d, d, kind)
                assert v.holds and v.index is None

    def test_geometric_pair_separates_mhr_from_st(self):
        s = truncated_geometric(F(4, 5), 40)
        t = truncated_geometric(F(1, 2), 40)
        assert check_order(s, t, "mhr").holds
        assert not check_order(s, t, "st").holds
        assert not check_order(s, t, "hr").holds
        assert not check_order(s, t, "lr").holds

    def test_five_point_pair_separates_lr_from_mhr(self):
        uniform = uniform_on((1, 2, 3, 4, 5))
        slumped = DiscreteDistribution(
            (1, 2, 3, 4, 5),
            (F(210, 1000), F(209, 1000), F(206, 1000), F(200, 1000),
             F(175, 1000)))
        assert check_order(uniform, slumped, "lr").holds
        assert not check_order(uniform, slumped, "mhr").holds

    def test_st_without_hr(self):
        s = uniform_on((2, 3))
        t = uniform_on((1, 3))
        assert check_order(s, t, "st").holds
        assert not check_order(s, t, "hr").holds

    def test_hr_without_lr(self):
        s = DiscreteDistribution((1, 2, 3), (F(9, 20), F(1, 20), F(1, 2)))
        t = DiscreteDistribution((1, 2, 3), (F(1, 2), F(1, 4), F(1, 4)))
        assert check_order(s, t, "hr").holds
        assert not check_order(s, t, "lr").holds

    def test_off_support_conventions(self):
        late = uniform_on((2, 3))
        early = uniform_on((1, 2))
        # S-only points carry an infinite ratio, T-only points a zero one,
        # so a late S is fine and an early S is an immediate violation
        assert check_order(late, early, "mhr").holds
        v = check_order(early, late, "mhr")
        assert not v.holds
        assert v.point == 2.0

    def test_zero_mass_points_are_ignored(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = random_discrete(rng)
            t = random_discrete(rng)
            padded = DiscreteDistribution(
                s.support + (100.0,), s.masses + (F(0),))
            for kind in ("mhr", "hr", "st", "lr"):
                assert check_order(padded, t, kind).holds \
                    == check_order(s, t, kind).holds

    def test_monotone_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = random_discrete(rng)
            t = random_discrete(rng)
            for psi in (lambda u: u ** 3, lambda u: 2 * u + 1):
                s2 = DiscreteDistribution(
                    tuple(psi(u) for u in s.support), s.masses)
                t2 = DiscreteDistribution(
                    tuple(psi(u) for u in t.support), t.masses)
                for kind in ("mhr", "hr", "st", "lr"):
                    assert check_order(s2, t2, kind).holds \
                        == check_order(s, t, kind).holds

    def test_constructed_mhr_chains_pass(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            s, t, u = random_mhr_chain(rng, int(rng.integers(2, 7)))
            assert check_order(s, t, "mhr").holds
            assert check_order(t, u, "mhr").holds
            assert check_order(s, u, "mhr").holds

    def test_constructed_lr_pairs_imply_hierarchy(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            s, t = random_lr_pair(rng, int(rng.integers(2, 7)))
            assert check_order(s, t, "lr").holds
            assert check_order(s, t, "hr").holds
            assert check_order(s, t, "st").holds

    def test_hierarchy_on_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            s, t = random_discrete(rng), random_discrete(rng)
            r = order_report(s, t)
            if r.lr:
                assert r.hr
            if r.hr:
                assert r.st

    def test_st_witness_points_at_violation(self):
        rng = np.random.default_rng(7)
        seen = 0
        for _ in range(200):
            s, t = random_discrete(rng), random_discrete(rng)
            v = check_order(s, t, "st")
            if v.holds:
                continue
            seen += 1
            cum_s = sum(m for u, m in zip(s.support, s.masses)
                        if u <= v.point)
            cum_t = sum(m for u, m in zip(t.support, t.masses)
                        if u <= v.point)
            assert 1 - cum_s < 1 - cum_t
        assert seen >= 20


class TestOrderReport:
    def test_fields_match_individual_checks(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            s, t = random_discrete(rng), random_discrete(rng)
            r = order_report(s, t)
            for kind in ("mhr", "hr", "st", "lr"):
                v = check_order(s, t, kind)
                assert getattr(r, kind) == v.holds
                if v.holds:
                    assert kind not in r.witness
                else:
                    assert r.witness[kind] == v.point


class TestParametricHazardRatio:
    def test_weibull_closed_form(self):
        grid = np.array([0.7, 1.3, 2.9])
        ratio = (_weibull_hazard(grid, 0.8, 1.2)
                 / _weibull_hazard(grid, 0.5, 1.5))
        expected = ((0.8 / 1.2) * (grid / 1.2) ** -0.2
                    / ((0.5 / 1.5) * (grid / 1.5) ** -0.5))
        assert ratio == pytest.approx(expected, rel=1e-12)
        fine = np.linspace(0.05, 5, 200)
        assert np.all(np.diff(_weibull_hazard(fine, 0.8, 1.2)
                              / _weibull_hazard(fine, 0.5, 1.5)) > 0)

    def test_beta_hazard_against_quadrature(self):
        x = np.array([0.4])
        ratio = float(_beta_hazard(x, 0.3, 1.0)[0]
                      / _beta_hazard(x, 0.3, 6.0)[0])
        grid = np.linspace(0.4, 1.0 - 1e-9, 200001)

        def hazard(a, b):
            pdf = stats.beta.pdf(grid, a, b)
            return float(pdf[0] / np.trapezoid(pdf, grid))

        assert ratio == pytest.approx(hazard(0.3, 1.0) / hazard(0.3, 6.0),
                                      rel=1e-5)


class TestFigure1Suite:
    def test_gallery_claims(self):
        entries = figure1_suite()
        named = {e["name"]: e for e in entries}
        assert [e["name"] for e in entries] == [
            "weibull increasing ratio",
            "geometric constant ratio",
            "beta likelihood ratio",
            "five point likelihood ratio",
        ]
        assert named["weibull increasing ratio"]["claims"] \
            == {"mhr": True, "st": False}
        assert named["geometric constant ratio"]["claims"] \
            == {"mhr": True, "st": False}
        assert named["beta likelihood ratio"]["claims"] \
            == {"lr": True, "mhr": False}
        assert named["five point likelihood ratio"]["claims"] \
            == {"lr": True, "mhr": False}
        assert {e["family"] for e in entries} == {"continuous", "discrete"}
