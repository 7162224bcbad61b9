"""Tests of the error metrics and evaluation engines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Netlist, simulate_words
from repro.circuits import simulate as simulate_module
from repro.circuits.simulate import expand_operands
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


@pytest.mark.parametrize(
    "exact,approx,max_output,error",
    [
        (np.array([]), np.array([]), 10, ValueError),
        (np.arange(3), np.arange(3), 0, ValueError),
        (np.arange(3), np.arange(4), 10, ValueError),
        # Same contract as words_to_bits: floats would truncate silently,
        # in either argument.
        (np.array([3.0, 4.7]), np.array([3, 4]), 100, TypeError),
        (np.array([3, 4]), np.array([3.0, 4.7]), 100, TypeError),
    ],
    ids=["empty", "max_output", "shape", "float_exact", "float_approx"],
)
def test_error_metric_input_validation(exact, approx, max_output, error):
    with pytest.raises(error):
        compute_error_metrics(exact, approx, max_output)


@settings(max_examples=50)
@given(
    st.integers(min_value=1, max_value=120).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(min_value=0, max_value=2**20), min_size=n, max_size=n),
            st.lists(st.integers(min_value=0, max_value=2**20), min_size=n, max_size=n),
        )
    )
)
def test_error_metrics_match_their_definitions(vectors):
    """Every metric is bit-identical to its textbook formula: integer sums
    divided exactly for the count-based metrics, float64 means for the rest."""
    exact = np.array(vectors[0], dtype=np.int64)
    approx = np.array(vectors[1], dtype=np.int64)
    max_output = 2**20
    metrics = compute_error_metrics(exact, approx, max_output)
    distance = [abs(a - e) for e, a in zip(vectors[0], vectors[1])]
    assert metrics.mae == sum(distance) / len(distance)
    assert metrics.med == metrics.mae / max_output
    assert metrics.wce == float(max(distance))
    assert metrics.wce_relative == metrics.wce / max_output
    assert metrics.error_probability == sum(d > 0 for d in distance) / len(distance)
    difference = np.abs(approx - exact).astype(np.float64)
    assert metrics.mse == np.mean(difference**2)
    assert metrics.mre == np.mean(difference / np.maximum(exact.astype(np.float64), 1.0))


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


def test_exhaustive_sweep_beyond_the_bound_is_refused(monkeypatch):
    """A limit admitting 26 input bits (2^26 patterns) raises, naming the
    width, before any operand is allocated."""
    reference = ripple_carry_adder(13)
    assert reference.num_inputs == 26

    def no_allocation(*args, **kwargs):
        raise AssertionError("operands allocated for a refused sweep")

    monkeypatch.setattr(simulate_module.np, "meshgrid", no_allocation)
    with pytest.raises(ValueError, match="26 input bits"):
        ErrorEvaluator(reference, max_exhaustive_inputs=26)


@pytest.mark.parametrize("keyword", ["chunk_patterns", "fidelity"])
@pytest.mark.parametrize(
    "build",
    [
        lambda reference, **retired: ErrorEvaluator(reference, **retired),
        lambda reference, **retired: evaluate_error(reference, reference, **retired),
    ],
    ids=["ErrorEvaluator", "evaluate_error"],
)
def test_retired_evaluation_keywords_are_rejected(build, keyword, multiplier4):
    """Streamed evaluation and fidelity rungs are gone: passing either
    keyword fails at the call instead of being silently accepted."""
    with pytest.raises(TypeError, match=keyword):
        build(multiplier4, **{keyword: 64})


def test_operands_expanded_once_per_input_layout(multiplier4, monkeypatch):
    """An evaluator packs its shared operands into the input planes of each
    input-bit layout once: the reference and every circuit wired like it
    reuse those planes, and a circuit wired differently gets its own,
    correct ones."""
    expanded = []

    def spy(netlist, operands):
        expanded.append(netlist.name)
        return expand_operands(netlist, operands)

    monkeypatch.setattr(evaluation_module, "expand_operands", spy)
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
