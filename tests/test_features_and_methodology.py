"""Tests of feature extraction and the end-to-end ApproxFPGAs flow."""

import pytest

from repro.api import ExplorationSession
from repro.core import ApproxFpgasConfig
from repro.features import ASIC_FEATURE_NAMES, FEATURE_NAMES, extract_features, feature_matrix
from repro.generators import array_multiplier, truncated_multiplier
from repro.ml import MODELS


# ----------------------------- features -------------------------------- #
def test_feature_vector_layout(multiplier4):
    features = extract_features(multiplier4)
    assert features.names == FEATURE_NAMES
    assert features.values.shape == (len(FEATURE_NAMES),)
    as_dict = features.as_dict()
    for name in ASIC_FEATURE_NAMES:
        assert as_dict[name] > 0.0
    assert as_dict["num_inputs"] == 8.0


def test_feature_matrix_alignment():
    circuits = [array_multiplier(4), truncated_multiplier(4, 2), truncated_multiplier(4, 4)]
    X, names = feature_matrix(circuits)
    assert X.shape == (3, len(FEATURE_NAMES))
    assert names == list(FEATURE_NAMES)
    # The truncated circuits must not have more gates than the exact one.
    gate_column = names.index("live_gates")
    assert X[1, gate_column] <= X[0, gate_column]
    assert X[2, gate_column] <= X[1, gate_column]


def test_feature_matrix_report_length_mismatch(asic_synth, multiplier4):
    report = asic_synth.synthesize(multiplier4)
    with pytest.raises(ValueError):
        feature_matrix([multiplier4, truncated_multiplier(4, 1)], asic_reports=[report])


def test_feature_matrix_empty():
    X, names = feature_matrix([])
    assert X.shape == (0, len(FEATURE_NAMES))
    assert names == list(FEATURE_NAMES)


# --------------------------- configuration ----------------------------- #
def test_config_validation():
    with pytest.raises(ValueError):
        ApproxFpgasConfig(training_fraction=0.0)
    with pytest.raises(ValueError):
        ApproxFpgasConfig(validation_fraction=1.0)
    with pytest.raises(ValueError):
        ApproxFpgasConfig(num_pseudo_fronts=0)
    with pytest.raises(ValueError):
        ApproxFpgasConfig(top_k_models=0)
    with pytest.raises(ValueError):
        ApproxFpgasConfig(fpga_parameters=("latency", "frequency"))


# ------------------------------ flow ------------------------------------ #
@pytest.fixture(scope="module")
def flow_result(small_multiplier_library):
    config = ApproxFpgasConfig(
        training_fraction=0.25,
        min_training_circuits=15,
        num_pseudo_fronts=2,
        top_k_models=2,
        model_ids=["ML2", "ML4", "ML5", "ML11", "ML14", "ML18"],
        seed=7,
        evaluate_coverage=True,
    )
    return ExplorationSession().run_approxfpgas(small_multiplier_library, config)


def test_flow_records_cover_library(flow_result, small_multiplier_library):
    assert set(flow_result.records) == set(small_multiplier_library.names())


def test_flow_training_and_validation_disjoint(flow_result):
    assert set(flow_result.training_names).isdisjoint(flow_result.validation_names)
    assert len(flow_result.validation_names) >= 1


def test_flow_evaluates_every_requested_model(flow_result):
    table = flow_result.fidelity_table()
    for parameter in ("latency", "power", "area"):
        assert set(table[parameter]) == {"ML2", "ML4", "ML5", "ML11", "ML14", "ML18"}
        for value in table[parameter].values():
            assert 0.0 <= value <= 1.0


def test_flow_top_models_sorted_by_fidelity(flow_result):
    top = flow_result.top_models("latency", k=3)
    fidelities = [score for _, score in top]
    assert fidelities == sorted(fidelities, reverse=True)


def test_flow_selects_candidates_and_synthesizes_them(flow_result):
    for outcome in flow_result.parameter_outcomes.values():
        assert outcome.candidate_names
        for name in outcome.candidate_names:
            assert flow_result.records[name].synthesized


def test_flow_final_front_is_nondominated(flow_result):
    from repro.core import dominates

    for parameter, outcome in flow_result.parameter_outcomes.items():
        front = outcome.final_front_names
        assert front
        points = {
            name: (
                flow_result.records[name].error.med,
                flow_result.records[name].fpga.parameter(parameter),
            )
            for name in front
        }
        for name_a, point_a in points.items():
            for name_b, point_b in points.items():
                if name_a != name_b:
                    assert not dominates(point_a, point_b) or point_a == point_b


def test_flow_coverage_between_zero_and_one(flow_result):
    for outcome in flow_result.parameter_outcomes.values():
        assert outcome.coverage is not None
        assert 0.0 <= outcome.coverage <= 1.0
        assert outcome.true_front_names


def test_flow_reports_meaningful_speedup(flow_result, small_multiplier_library):
    cost = flow_result.exploration_cost
    assert cost.num_circuits == len(small_multiplier_library)
    assert cost.exhaustive_time_s > cost.training_time_s
    assert cost.speedup > 1.0


def test_flow_estimates_stored_for_best_model(flow_result):
    some_record = next(iter(flow_result.records.values()))
    assert set(some_record.estimated) == {"latency", "power", "area"}


def test_flow_summary_structure(flow_result):
    summary = flow_result.summary()
    assert summary["num_circuits"] == len(flow_result.records)
    assert set(summary["coverage"]) == {"latency", "power", "area"}


def test_flow_rejects_empty_library():
    from repro.generators import CircuitLibrary

    empty = CircuitLibrary(name="empty", kind="multiplier", bitwidth=4)
    with pytest.raises(ValueError, match="empty"):
        ExplorationSession().run_approxfpgas(empty)


def test_default_model_ids_are_all_18():
    assert ApproxFpgasConfig().model_ids == list(MODELS) == [f"ML{i}" for i in range(1, 19)]
