"""Regression tests for the exploration-time accounting."""

from __future__ import annotations

import pytest

from repro.core import ExplorationCost, ExplorationSummary, seconds_to_days


def _cost(**overrides) -> ExplorationCost:
    base = dict(
        library_name="lib",
        num_circuits=10,
        exhaustive_time_s=1000.0,
        training_time_s=100.0,
        resynthesis_time_s=50.0,
        model_time_s=2.5,
    )
    base.update(overrides)
    return ExplorationCost(**base)


class TestExplorationCost:
    def test_as_dict_fields_and_values(self):
        cost = _cost()
        data = cost.as_dict()
        assert data == {
            "num_circuits": 10,
            "exhaustive_time_s": 1000.0,
            "training_time_s": 100.0,
            "resynthesis_time_s": 50.0,
            "model_time_s": 2.5,
            "approxfpgas_time_s": 152.5,
            "speedup": 1000.0 / 152.5,
        }

    def test_missing_resynthesis_raises(self):
        with pytest.raises(TypeError, match="resynthesis_time_s"):
            ExplorationCost(
                library_name="lib",
                num_circuits=1,
                exhaustive_time_s=10.0,
                training_time_s=1.0,
            )

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError, match="unexpected"):
            _cost(bogus_field=1.0)

    def test_frozen_and_equality(self):
        assert _cost() == _cost()
        with pytest.raises(Exception):
            _cost().resynthesis_time_s = 1.0

    def test_model_time_defaults_to_zero(self):
        cost = ExplorationCost("lib", 1, 10.0, training_time_s=1.0, resynthesis_time_s=2.0)
        assert cost.model_time_s == 0.0
        assert cost.approxfpgas_time_s == 3.0

    def test_speedup_guard_against_zero_denominator(self):
        cost = _cost(training_time_s=0.0, resynthesis_time_s=0.0, model_time_s=0.0)
        assert cost.speedup > 0


class TestExplorationSummary:
    def test_cumulative_rows_running_sums(self):
        summary = ExplorationSummary()
        summary.add(_cost(library_name="a", exhaustive_time_s=100.0, training_time_s=10.0,
                          resynthesis_time_s=5.0, model_time_s=0.0))
        summary.add(_cost(library_name="b", exhaustive_time_s=200.0, training_time_s=20.0,
                          resynthesis_time_s=10.0, model_time_s=0.0))
        rows = summary.cumulative_rows()
        assert [row["library"] for row in rows] == ["a", "b"]
        assert rows[0]["cumulative_exhaustive_s"] == 100.0
        assert rows[1]["cumulative_exhaustive_s"] == 300.0
        assert rows[0]["cumulative_approxfpgas_s"] == pytest.approx(15.0)
        assert rows[1]["cumulative_approxfpgas_s"] == pytest.approx(45.0)
        assert summary.exhaustive_total_s == 300.0
        assert summary.approxfpgas_total_s == pytest.approx(45.0)
        assert summary.overall_speedup == pytest.approx(300.0 / 45.0)

    def test_row_keys_are_stable(self):
        summary = ExplorationSummary()
        summary.add(_cost())
        (row,) = summary.cumulative_rows()
        assert set(row) == {
            "library",
            "exhaustive_time_s",
            "approxfpgas_time_s",
            "cumulative_exhaustive_s",
            "cumulative_approxfpgas_s",
        }

    def test_seconds_to_days(self):
        assert seconds_to_days(86400.0) == 1.0
