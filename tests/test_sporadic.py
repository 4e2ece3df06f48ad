"""Unit tests for repro.model.sporadic (three-parameter tasks and DBFs)."""

import dataclasses
import pickle

import pytest
from hypothesis import given

from repro.errors import ModelError
from repro.model.sporadic import SporadicTask

from strategies import sporadic_tasks


class TestValidation:
    @pytest.mark.parametrize("field", ["wcet", "deadline", "period"])
    def test_non_positive_rejected(self, field):
        kwargs = {"wcet": 1.0, "deadline": 2.0, "period": 3.0}
        kwargs[field] = 0.0
        with pytest.raises(ModelError, match="positive"):
            SporadicTask(**kwargs)

    @pytest.mark.parametrize("field", ["wcet", "deadline", "period"])
    def test_non_numeric_rejected(self, field):
        kwargs = {"wcet": 1.0, "deadline": 2.0, "period": 3.0}
        kwargs[field] = "x"
        with pytest.raises(ModelError):
            SporadicTask(**kwargs)

    def test_name_does_not_affect_equality(self):
        a = SporadicTask(1, 2, 3, name="a")
        b = SporadicTask(1, 2, 3, name="b")
        assert a == b


class TestDerived:
    def test_utilization(self):
        assert SporadicTask(2, 5, 10).utilization == 0.2

    def test_density_constrained(self):
        assert SporadicTask(2, 4, 10).density == 0.5

    def test_density_uses_min_of_d_and_t(self):
        assert SporadicTask(2, 10, 4).density == 0.5

    def test_implicit_classification(self):
        assert SporadicTask(1, 5, 5).is_implicit_deadline
        assert SporadicTask(1, 5, 5).is_constrained_deadline

    def test_constrained_classification(self):
        t = SporadicTask(1, 4, 5)
        assert not t.is_implicit_deadline
        assert t.is_constrained_deadline

    def test_arbitrary_classification(self):
        t = SporadicTask(1, 6, 5)
        assert not t.is_constrained_deadline


class TestUtilizationComputedOnce:
    @given(sporadic_tasks())
    def test_bit_identical_to_wcet_over_period(self, task):
        expected = task.wcet / task.period
        assert task.utilization.hex() == expected.hex()
        assert task.utilization.hex() == expected.hex()  # the stored value

    def test_stored_after_first_read(self):
        task = SporadicTask(0.1, 0.7, 0.3)
        assert "utilization" not in vars(task)
        first = task.utilization
        assert vars(task)["utilization"] is first
        assert task.utilization is first

    def test_not_a_field(self):
        task = SporadicTask(1.0, 2.0, 3.0, name="a")
        task.utilization
        assert [f.name for f in dataclasses.fields(task)] == [
            "wcet", "deadline", "period", "name",
        ]
        assert dataclasses.asdict(task) == {
            "wcet": 1.0, "deadline": 2.0, "period": 3.0, "name": "a",
        }
        assert task == SporadicTask(1.0, 2.0, 3.0)
        assert repr(task) == (
            "SporadicTask(wcet=1.0, deadline=2.0, period=3.0, name='a')"
        )
        assert pickle.loads(pickle.dumps(task)).utilization == task.utilization


class TestDbf:
    def test_dbf_zero_before_deadline(self):
        t = SporadicTask(2, 4, 10)
        assert t.dbf(3.999) == 0.0

    def test_dbf_first_step_at_deadline(self):
        t = SporadicTask(2, 4, 10)
        assert t.dbf(4) == 2

    def test_dbf_second_step(self):
        t = SporadicTask(2, 4, 10)
        assert t.dbf(13.9) == 2
        assert t.dbf(14) == 4

    def test_dbf_many_periods(self):
        t = SporadicTask(1, 1, 1)
        assert t.dbf(10) == 10

    def test_dbf_approx_zero_before_deadline(self):
        t = SporadicTask(2, 4, 10)
        assert t.dbf_approx(3.9) == 0.0

    def test_dbf_approx_at_deadline_equals_wcet(self):
        t = SporadicTask(2, 4, 10)
        assert t.dbf_approx(4) == 2

    def test_dbf_approx_linear_growth(self):
        t = SporadicTask(2, 4, 10)
        assert t.dbf_approx(14) == pytest.approx(2 + 0.2 * 10)

    def test_dbf_approx_dominates_dbf(self):
        t = SporadicTask(3, 5, 7)
        for x in range(0, 100):
            assert t.dbf_approx(x / 2) >= t.dbf(x / 2) - 1e-12

    def test_dbf_approx_within_double(self):
        t = SporadicTask(3, 5, 7)
        for x in range(10, 200):
            point = x / 2
            if t.dbf(point) > 0:
                assert t.dbf_approx(point) < 2 * t.dbf(point) + 1e-9

    def test_rbf(self):
        t = SporadicTask(2, 4, 10)
        assert t.rbf(-1) == 0
        assert t.rbf(0) == 2
        assert t.rbf(9.99) == 2
        assert t.rbf(10) == 4

    def test_deadlines_in_horizon(self):
        t = SporadicTask(1, 3, 5)
        assert t.deadlines_in(14) == [3, 8, 13]

    def test_deadlines_in_zero_horizon(self):
        t = SporadicTask(1, 3, 5)
        assert t.deadlines_in(2) == []


class TestScaling:
    def test_scaled_halves_wcet(self):
        t = SporadicTask(4, 6, 8).scaled(2.0)
        assert t.wcet == 2
        assert t.deadline == 6
        assert t.period == 8

    def test_scaled_preserves_name(self):
        assert SporadicTask(4, 6, 8, name="x").scaled(2.0).name == "x"

    def test_scaled_invalid_speed(self):
        with pytest.raises(ModelError):
            SporadicTask(4, 6, 8).scaled(-1)

    def test_dbf_scales_inversely(self):
        t = SporadicTask(4, 6, 8)
        fast = t.scaled(2.0)
        for x in range(0, 60):
            assert fast.dbf(x) == pytest.approx(t.dbf(x) / 2.0)
