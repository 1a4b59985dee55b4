"""Step functions and the classical censored-data estimators."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_censored_sample
from mhrfit.survival_core import (CensoredSample, StepFunction,
                                  generalized_inverse, _hazard_increments,
                                  kaplan_meier, nelson_aalen,
                                  reverse_kaplan_meier)
from oracles import increments_by_unique, naive_survival_curves


def one_arm(times, status, arm=0):
    times = np.asarray(times, dtype=float)
    status = np.asarray(status, dtype=int)
    arms = np.full(times.shape, arm, dtype=int)
    # pad the other arm with a sentinel so the sample is two-arm valid
    other = CensoredSample.from_arrays(
        np.append(times, 99.0), np.append(status, 1), np.append(arms, 1 - arm))
    return other


class TestCensoredSample:
    def test_columns_validated(self):
        with pytest.raises(ValueError):
            CensoredSample.from_arrays([-1.0], [1], [0])
        with pytest.raises(ValueError):
            CensoredSample.from_arrays([1.0], [2], [0])
        with pytest.raises(ValueError):
            CensoredSample.from_arrays([1.0], [1], [3])
        with pytest.raises(ValueError):
            CensoredSample.from_arrays([float("nan")], [1], [0])
        # non-binary values are refused, not truncated to 0 or 1
        with pytest.raises(ValueError, match="status must be 0 or 1"):
            CensoredSample.from_arrays([1.0], [0.9], [0])
        with pytest.raises(ValueError, match="arm must be 0 or 1"):
            CensoredSample.from_arrays([1.0], [1], [1.7])
        # the first invalid row is reported, whichever column breaks later
        with pytest.raises(ValueError, match="status must be 0 or 1, got 2"):
            CensoredSample.from_arrays([1.0, -1.0], [2, 1], [0, 0])

    def test_sample_requires_observations(self):
        with pytest.raises(ValueError):
            CensoredSample.from_arrays([], [], [])

    def test_columns_read_only(self):
        times = np.array([1.0, 2.0])
        s = CensoredSample.from_arrays(times, [1, 0], [0, 1])
        with pytest.raises(AttributeError):
            s.time = np.array([3.0, 4.0])
        for column in (s.time, s.status, s.arm):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        # the sample owns a copy: the caller's array stays writeable
        times[0] = 5.0
        assert s.time[0] == 1.0

    def test_pi_n(self):
        s = CensoredSample.from_arrays([1.0, 2.0, 3.0, 4.0],
                                       [1, 1, 1, 1], [1, 1, 1, 0])
        assert s.pi_n == 0.75
        assert s.n == 4


class TestStepFunction:
    def test_requires_increasing_knots(self):
        with pytest.raises(ValueError):
            StepFunction(np.array([1.0, 1.0]), np.array([0.1, 0.2]))

    def test_requires_nondecreasing_values(self):
        with pytest.raises(ValueError):
            StepFunction(np.array([1.0, 2.0]), np.array([0.2, 0.1]))

    def test_eval_right_continuous(self):
        f = StepFunction(np.array([1.0, 2.0]), np.array([0.3, 0.8]))
        assert f(1.5) == 0.3
        assert f(2.0) == 0.8
        assert f(0.5) == 0.0
        assert f.left_limit(2.0) == 0.3
        assert f.left_limit(1.0) == 0.0
        assert f.sup == 0.8

    def test_array_eval_matches_scalar(self):
        f = StepFunction(np.array([1.0, 2.0]), np.array([0.3, 0.8]))
        ts = np.array([0.0, 1.0, 1.7, 2.0, 3.0])
        assert np.array_equal(f(ts), np.array([f(float(t)) for t in ts]))

    def test_generalized_inverse_examples(self):
        f = StepFunction(np.array([1.0, 2.0]), np.array([0.3, 0.8]))
        assert generalized_inverse(f, 0.5) == 2.0
        assert generalized_inverse(f, 0.3) == 1.0
        assert generalized_inverse(f, 0.0) == 0.0
        with pytest.raises(ValueError, match="above range"):
            generalized_inverse(f, 0.9)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_inverse_galois_relations(self, seed):
        rng = np.random.default_rng(seed)
        knots = np.sort(rng.uniform(0.1, 10.0, size=6))
        knots = np.unique(knots)
        values = np.cumsum(rng.uniform(0.01, 1.0, size=knots.size))
        f = StepFunction(knots, values)
        for t in knots:
            assert generalized_inverse(f, f(float(t))) <= t
        for u in rng.uniform(0.0, f.sup, size=4):
            assert f(generalized_inverse(f, float(u))) >= u


class TestNelsonAalen:
    def test_all_events(self):
        s = one_arm([1.0, 2.0, 4.0], [1, 1, 1])
        f = nelson_aalen(s, 0)
        assert list(f.knots) == [1.0, 2.0, 4.0]
        assert f(1.0) == 1 / 3
        assert f(2.0) == 1 / 3 + 1 / 2
        assert f(4.0) == 1 / 3 + 1 / 2 + 1.0

    def test_censoring_removes_knot(self):
        s = one_arm([1.0, 2.0, 4.0], [1, 0, 1])
        f = nelson_aalen(s, 0)
        assert list(f.knots) == [1.0, 4.0]
        assert f(1.0) == 1 / 3
        assert f(4.0) == 1 / 3 + 1.0

    def test_tied_events(self):
        s = one_arm([1.0, 1.0, 2.0], [1, 1, 1])
        f = nelson_aalen(s, 0)
        assert f(1.0) == 2 / 3
        assert f(2.0) == 2 / 3 + 1.0

    def test_empty_stratum(self):
        s = CensoredSample.from_arrays([1.0], [1], [1])
        with pytest.raises(ValueError, match="empty stratum"):
            nelson_aalen(s, 0)

    def test_matches_naive_counting_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = random_censored_sample(rng)
            times, status = s.arm_arrays(0)
            if not np.any(status == 1):
                continue
            f = nelson_aalen(s, 0)
            ev, na, _ = naive_survival_curves(times.tolist(), status.tolist())
            assert list(f.knots) == ev
            np.testing.assert_allclose(f.values, na, rtol=1e-12)

    def test_uncensored_increments_are_reciprocal_ranks(self):
        rng = np.random.default_rng(3)
        times = rng.uniform(0.0, 5.0, size=12)
        s = one_arm(times, np.ones(12, dtype=int))
        _, inc, _ = _hazard_increments(s, 0)
        expected = 1.0 / np.arange(12, 0, -1)
        assert np.array_equal(inc, expected)


class TestKaplanMeier:
    def test_all_events(self):
        s = one_arm([1.0, 2.0, 4.0], [1, 1, 1])
        km = kaplan_meier(s, 0)
        # product-limit arithmetic: (1 - 1/3), then (1 - 1/3)(1 - 1/2)
        assert km(1.0) == 1 - 1 / 3
        assert km(2.0) == (1 - 1 / 3) * (1 - 1 / 2)
        assert km(2.0) == pytest.approx(1 / 3)
        assert km(4.0) == 0.0
        assert km(0.5) == 1.0

    def test_with_censoring(self):
        s = one_arm([1.0, 2.0, 4.0], [1, 0, 1])
        km = kaplan_meier(s, 0)
        assert km(1.0) == 1 - 1 / 3
        assert km(4.0) == 0.0

    def test_product_integral_identity_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = random_censored_sample(rng)
            for arm in (0, 1):
                times, status = s.arm_arrays(arm)
                if not np.any(status == 1):
                    continue
                km = kaplan_meier(s, arm)
                _, inc, _ = _hazard_increments(s, arm)
                assert np.array_equal(km.survival, np.cumprod(1.0 - inc))

    def test_survival_left_limit(self):
        s = one_arm([1.0, 2.0, 4.0], [1, 1, 1])
        km = kaplan_meier(s, 0)
        assert km.left_limit(2.0) == 1 - 1 / 3
        assert km.left_limit(1.0) == 1.0


class TestReverseKaplanMeier:
    def test_all_events_no_censoring_mass(self):
        s = one_arm([1.0, 2.0, 4.0], [1, 1, 1])
        rkm = reverse_kaplan_meier(s, 0)
        assert rkm(3.9) == 1.0

    def test_final_censoring(self):
        s = one_arm([1.0, 2.0], [1, 0])
        rkm = reverse_kaplan_meier(s, 0)
        assert rkm(2.0) == 0.0
        assert rkm.left_limit(2.0) == 1.0

    def test_swap_symmetry(self):
        rng = np.random.default_rng(9)
        s = random_censored_sample(rng, n=60)
        flipped = CensoredSample.from_arrays(s.time, 1 - s.status, s.arm)
        for arm in (0, 1):
            if not np.any(s.arm_arrays(arm)[1] == 0):
                continue
            a = reverse_kaplan_meier(s, arm)
            b = kaplan_meier(flipped, arm)
            assert np.array_equal(a.survival, b.survival)
            assert np.array_equal(a.knots, b.knots)


# Rows of (time, status, arm) with times from a few values, so ties abound.
tied_rows = st.lists(
    st.tuples(st.integers(0, 5).map(lambda k: k / 4.0), st.integers(0, 1),
              st.integers(0, 1)),
    min_size=1, max_size=80)


class TestMatchesUniqueForm:
    """The curves are bitwise those of the np.unique form of the increments."""

    @given(tied_rows)
    def test_curves_bitwise(self, rows):
        times, status, arms = (np.array(col) for col in zip(*rows))
        s = CensoredSample.from_arrays(times, status, arms)
        for arm in (0, 1):
            t, d = s.arm_arrays(arm)
            if t.size == 0:
                continue
            if d.any():
                knots, inc, _ = increments_by_unique(t, d)
                na = nelson_aalen(s, arm)
                assert na.knots.tobytes() == knots.tobytes()
                assert na.values.tobytes() == np.cumsum(inc).tobytes()
                km = kaplan_meier(s, arm)
                assert km.knots.tobytes() == knots.tobytes()
                assert km.survival.tobytes() == np.cumprod(1.0 - inc).tobytes()
            if not d.all():
                knots, inc, _ = increments_by_unique(t, 1 - d)
                rkm = reverse_kaplan_meier(s, arm)
                assert rkm.knots.tobytes() == knots.tobytes()
                assert rkm.survival.tobytes() == np.cumprod(1.0 - inc).tobytes()


class TestTimeOrder:
    @given(tied_rows)
    def test_arm_arrays_in_stable_time_order(self, rows):
        times, status, arms = (np.array(col) for col in zip(*rows))
        s = CensoredSample.from_arrays(times, status, arms)
        for arm in (0, 1):
            t, d = s.arm_arrays(arm)
            assert np.all(np.diff(t) >= 0)
            # Python's sort is stable, so tied rows stay in input order
            in_order = [(ti, di) for ti, di, ai in rows if ai == arm]
            assert list(zip(t.tolist(), d.tolist())) == sorted(
                in_order, key=lambda row: row[0])
            mask = s.arm == arm
            assert sorted(zip(t.tolist(), d.tolist())) == sorted(
                zip(s.time[mask].tolist(), s.status[mask].tolist()))

    @given(tied_rows)
    def test_arm_arrays_are_one_mask_over_the_time_sort(self, rows):
        # each arm's order, split once at construction, is bitwise what
        # masking the stable time sort by arm gives on every call
        times, status, arms = (np.array(col) for col in zip(*rows))
        s = CensoredSample.from_arrays(times, status, arms)
        order = np.argsort(s.time, kind="stable")
        for arm in (0, 1):
            masked = order[s.arm[order] == arm]
            t, d = s.arm_arrays(arm)
            assert t.tobytes() == s.time[masked].tobytes()
            assert d.tobytes() == s.status[masked].tobytes()
