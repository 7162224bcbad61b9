"""Tests of the error metrics and evaluation engines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Netlist, simulate_words
from repro.circuits import simulate as simulate_module
from repro.circuits.simulate import expand_operand_bits
from repro.error import ErrorEvaluator, compute_error_metrics, evaluate_error, mean_error_distance
from repro.error import evaluation as evaluation_module
from repro.generators import (
    array_multiplier,
    ripple_carry_adder,
    truncated_adder,
    truncated_multiplier,
)


def test_zero_error_for_identical_outputs():
    values = np.arange(100)
    metrics = compute_error_metrics(values, values, max_output=255)
    assert metrics.med == 0.0
    assert metrics.wce == 0.0
    assert metrics.error_probability == 0.0
    assert metrics.mre == 0.0


def test_known_error_values():
    exact = np.array([0, 10, 20, 30])
    approx = np.array([0, 12, 20, 26])
    metrics = compute_error_metrics(exact, approx, max_output=100)
    assert metrics.mae == pytest.approx(1.5)
    assert metrics.med == pytest.approx(0.015)
    assert metrics.wce == 4.0
    assert metrics.error_probability == pytest.approx(0.5)
    assert metrics.mse == pytest.approx((4 + 16) / 4)


def test_error_metric_input_validation():
    with pytest.raises(ValueError):
        compute_error_metrics(np.arange(3), np.arange(4), 10)
    with pytest.raises(ValueError):
        compute_error_metrics(np.array([]), np.array([]), 10)
    with pytest.raises(ValueError):
        compute_error_metrics(np.arange(3), np.arange(3), 0)


@settings(max_examples=50)
@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50),
    st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50),
)
def test_error_metric_invariants(exact, approx):
    length = min(len(exact), len(approx))
    exact_arr = np.array(exact[:length])
    approx_arr = np.array(approx[:length])
    metrics = compute_error_metrics(exact_arr, approx_arr, max_output=1000)
    assert 0.0 <= metrics.med <= 1.0
    assert metrics.wce >= metrics.mae
    assert 0.0 <= metrics.error_probability <= 1.0
    assert metrics.mse >= metrics.mae ** 2 - 1e-9


def test_mean_error_distance_shorthand():
    exact = np.array([0, 100])
    approx = np.array([0, 90])
    assert mean_error_distance(exact, approx, 100) == pytest.approx(0.05)


# --------------------------------------------------------------------- #
def test_exact_circuit_has_zero_error(multiplier4, multiplier4_evaluator):
    report = multiplier4_evaluator.evaluate(multiplier4)
    assert report.med == 0.0
    assert report.method == "exhaustive"
    assert report.num_patterns == 256


def test_truncated_multiplier_has_positive_error(multiplier4_evaluator):
    report = multiplier4_evaluator.evaluate(truncated_multiplier(4, 3))
    assert report.med > 0.0


def test_monte_carlo_used_for_wide_circuits():
    reference = ripple_carry_adder(16)
    evaluator = ErrorEvaluator(reference, max_exhaustive_inputs=18, num_samples=2048)
    assert evaluator.method == "monte_carlo"
    report = evaluator.evaluate(truncated_adder(16, 6))
    assert report.num_patterns == 2048
    assert report.med > 0.0


def test_monte_carlo_reproducible_with_seed():
    reference = ripple_carry_adder(16)
    circuit = truncated_adder(16, 8)
    first = ErrorEvaluator(reference, max_exhaustive_inputs=10, seed=7).evaluate(circuit)
    second = ErrorEvaluator(reference, max_exhaustive_inputs=10, seed=7).evaluate(circuit)
    assert first.metrics.as_dict() == second.metrics.as_dict()


def test_interface_mismatch_rejected(multiplier4_evaluator):
    with pytest.raises(ValueError):
        multiplier4_evaluator.evaluate(array_multiplier(8))


@pytest.mark.parametrize("packed_min_patterns", [1, 2**62], ids=["packed", "bool"])
def test_operands_expanded_once_per_input_layout(multiplier4, monkeypatch, packed_min_patterns):
    """An evaluator expands its shared operands into each input-bit layout
    once, on either simulation path: the reference and every circuit wired
    like it reuse that expansion, and a circuit wired differently gets its
    own, correct one."""
    monkeypatch.setattr(simulate_module, "PACKED_MIN_PATTERNS", packed_min_patterns)
    expanded = []

    def spy(netlist, operands):
        expanded.append(netlist.name)
        return expand_operand_bits(netlist, operands)

    # Both bindings: an evaluator that re-expanded through simulate_words
    # would be counted too.
    monkeypatch.setattr(simulate_module, "expand_operand_bits", spy)
    monkeypatch.setattr(evaluation_module, "expand_operand_bits", spy)
    evaluator = ErrorEvaluator(multiplier4)
    circuits = [truncated_multiplier(4, cut) for cut in (1, 2, 3)] + [multiplier4]
    assert all(c.input_words == multiplier4.input_words for c in circuits)
    reports = [evaluator.evaluate(circuit) for circuit in circuits]
    assert expanded == [multiplier4.name]
    assert reports[-1].metrics.med == 0.0 < reports[0].metrics.med

    rewired = Netlist(
        name="a_bits_reversed",
        kind=multiplier4.kind,
        input_words={"a": multiplier4.input_words["a"][::-1], "b": multiplier4.input_words["b"]},
        output_bits=multiplier4.output_bits,
        gates=list(multiplier4.gates),
    )
    report = evaluator.evaluate(rewired)
    evaluator.evaluate(rewired)
    assert expanded == [multiplier4.name, rewired.name]
    outputs = simulate_words(rewired, evaluator.operands)
    assert report.metrics == compute_error_metrics(
        evaluator.exact_outputs, outputs, evaluator.max_output
    )
    assert report.metrics.med > 0.0


def test_evaluate_error_one_shot():
    report = evaluate_error(truncated_adder(8, 2), ripple_carry_adder(8))
    assert report.circuit_name.startswith("add8_trunc2")
    assert report.med > 0.0


def test_error_ordering_matches_truncation_severity(multiplier4_evaluator):
    mild = multiplier4_evaluator.evaluate(truncated_multiplier(4, 1))
    severe = multiplier4_evaluator.evaluate(truncated_multiplier(4, 4))
    assert severe.med > mild.med
