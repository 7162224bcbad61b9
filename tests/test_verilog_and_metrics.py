"""Tests for Verilog export, structural metrics and activity estimation."""

import numpy as np
import pytest

from repro.circuits import GateType, random_operands, structural_metrics, to_verilog
from repro.circuits.activity import node_signal_probabilities, node_switching_activities
from repro.generators import truncated_adder


def test_verilog_contains_module_and_ports(multiplier4):
    text = to_verilog(multiplier4)
    assert text.startswith("module ")
    assert "input  [3:0] a;" in text
    assert "input  [3:0] b;" in text
    assert f"output [{multiplier4.num_outputs - 1}:0] out;" in text
    assert text.strip().endswith("endmodule")


def test_verilog_has_one_assign_per_gate_and_output(adder8):
    text = to_verilog(adder8)
    assert text.count("assign") == adder8.num_gates + adder8.num_outputs


def test_verilog_sanitizes_module_name(adder8):
    text = to_verilog(adder8, module_name="8weird name!")
    assert "module m_8weird_name_" in text


def test_structural_metrics_consistency(multiplier8):
    metrics = structural_metrics(multiplier8)
    assert metrics.num_inputs == 16
    assert metrics.num_outputs == 16
    assert metrics.live_gates <= metrics.num_gates
    assert metrics.depth > 0
    assert metrics.max_fanout >= 1
    counts = metrics.gate_counts
    assert sum(counts.values()) == metrics.live_gates
    assert counts[GateType.AND.name] >= 64  # at least the partial products


def test_structural_metrics_flags_constant_outputs():
    trunc = truncated_adder(8, cut=3)
    metrics = structural_metrics(trunc)
    assert metrics.constant_outputs >= 3


def test_metrics_as_dict_has_gate_count_keys(adder8):
    flat = structural_metrics(adder8).as_dict()
    assert "count_xor" in flat
    assert flat["num_inputs"] == 16


def test_signal_probabilities_in_unit_interval(multiplier4):
    probabilities = node_signal_probabilities(multiplier4, num_samples=128, seed=1)
    assert probabilities.shape == (multiplier4.num_nodes,)
    assert np.all(probabilities >= 0.0)
    assert np.all(probabilities <= 1.0)


def test_switching_activity_bounded_by_half(multiplier4):
    activities = node_switching_activities(multiplier4, num_samples=128, seed=1)
    assert np.all(activities >= 0.0)
    assert np.all(activities <= 0.5 + 1e-12)


def test_input_signal_probability_near_half(adder8):
    probabilities = node_signal_probabilities(adder8, num_samples=2048, seed=7)
    inputs = probabilities[: adder8.num_inputs]
    assert np.all(np.abs(inputs - 0.5) < 0.1)


def test_output_signal_probabilities_match_simulated_outputs(adder8):
    """Activity reads the oracle's node values: each output node's
    probability is the mean of that output bit over the same operands."""
    probabilities = node_signal_probabilities(adder8, num_samples=512, seed=5)
    operands = random_operands(adder8, 512, np.random.default_rng(5))
    words = adder8.evaluate_words(operands)
    for position, node in enumerate(adder8.output_bits):
        assert probabilities[node] == np.mean((words >> position) & 1), position


def test_activity_deterministic_for_fixed_seed(multiplier4):
    first = node_switching_activities(multiplier4, num_samples=64, seed=11)
    second = node_switching_activities(multiplier4, num_samples=64, seed=11)
    assert np.array_equal(first, second)


@pytest.mark.parametrize("num_samples", [0, -5])
def test_activity_rejects_sample_counts_below_one(multiplier4, num_samples):
    # Zero samples would divide by zero (NaN activities) and negative ones
    # would fail deep inside the simulation.
    with pytest.raises(ValueError, match="num_samples"):
        node_signal_probabilities(multiplier4, num_samples=num_samples)
