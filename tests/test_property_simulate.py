"""Property-based tests for the simulation kernels.

The project avoids extra dependencies, so "property-based" here means
seeded randomised sweeps over widths, values and circuits rather than a
hypothesis-style shrinker; every case is deterministic and reproducible
from the seeds below.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import Netlist
from repro.circuits.simulate import (
    bits_to_words,
    exhaustive_operands,
    exhaustive_simulate,
    expand_operand_bits,
    simulate_words,
    words_to_bits,
)
from repro.engine import BatchEvaluator, EvalCache
from repro.generators import (
    array_multiplier,
    perturbation_sweep,
    ripple_carry_adder,
)


class TestWordBitRoundTrip:
    @pytest.mark.parametrize("width", list(range(1, 17)) + [24, 32])
    def test_words_to_bits_round_trip_random_values(self, width):
        rng = np.random.default_rng(1000 + width)
        values = rng.integers(0, 1 << min(width, 62), size=257, dtype=np.int64)
        values = values % (1 << width)
        bits = words_to_bits(values, width)
        assert bits.shape == (len(values), width)
        assert bits.dtype == bool
        assert np.array_equal(bits_to_words(bits), values)

    @pytest.mark.parametrize("width", range(1, 13))
    def test_bits_to_words_round_trip_random_bits(self, width):
        rng = np.random.default_rng(2000 + width)
        bits = rng.random((128, width)) < 0.5
        values = bits_to_words(bits)
        assert np.array_equal(words_to_bits(values, width), bits)

    @pytest.mark.parametrize("width", [1, 8, 13, 32, 63, 64])
    def test_words_to_bits_matches_shift_and_mask(self, width):
        """Bit ``k`` of each word, for every width up to 64, from strided
        and unsigned inputs alike."""
        rng = np.random.default_rng(3000 + width)
        values = rng.integers(0, 2**64, size=300, dtype=np.uint64) >> np.uint64(64 - width)
        expected = np.array(
            [[(int(value) >> k) & 1 for k in range(width)] for value in values], dtype=bool
        )
        assert np.array_equal(words_to_bits(values, width), expected)
        assert np.array_equal(words_to_bits(values[::3], width), expected[::3])
        if width < 64:
            signed = values.astype(np.int64)
            assert np.array_equal(words_to_bits(signed, width), expected)

    def test_expansion_scatters_words_to_their_input_ids(self):
        """Interleaved word layouts land on their own input nodes."""
        base = array_multiplier(3)
        interleaved = Netlist(
            name="interleaved",
            kind=base.kind,
            input_words={"a": (4, 0, 2), "b": (5, 1, 3)},
            output_bits=base.output_bits,
            gates=base.gates,
        )
        operands = {"a": np.array([0, 5, 7, 2]), "b": np.array([6, 1, 7, 0])}
        input_bits = expand_operand_bits(interleaved, operands)
        for name, ids in interleaved.input_words.items():
            for position, node in enumerate(ids):
                assert np.array_equal(input_bits[:, node], (operands[name] >> position) & 1)

    def test_edge_values(self):
        for width in (1, 7, 16):
            values = np.array([0, (1 << width) - 1], dtype=np.int64)
            assert np.array_equal(bits_to_words(words_to_bits(values, width)), values)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            words_to_bits(np.array([4]), 2)
        with pytest.raises(ValueError):
            words_to_bits(np.array([-1]), 4)


class TestExhaustiveEqualsPerPattern:
    """``exhaustive_simulate`` must equal one ``simulate_words`` call per pattern."""

    @pytest.mark.parametrize(
        "make_circuit",
        [
            lambda: ripple_carry_adder(3),
            lambda: array_multiplier(3),
            lambda: ripple_carry_adder(4),
        ],
    )
    def test_matches_per_pattern_simulation(self, make_circuit):
        circuit = make_circuit()
        batched = exhaustive_simulate(circuit)
        operands = exhaustive_operands(circuit)
        names = list(operands)
        num_patterns = len(operands[names[0]])
        assert len(batched) == num_patterns == 1 << circuit.num_inputs
        for pattern in range(num_patterns):
            single = simulate_words(
                circuit, {name: np.array([operands[name][pattern]]) for name in names}
            )
            assert single.shape == (1,)
            assert single[0] == batched[pattern]

    def test_perturbed_circuits_match_too(self):
        base = array_multiplier(3)
        for variant in perturbation_sweep(base, count=6, seed=99):
            batched = exhaustive_simulate(variant)
            operands = exhaustive_operands(variant)
            names = list(operands)
            rng = np.random.default_rng(7)
            for pattern in rng.integers(0, len(batched), size=16):
                single = simulate_words(
                    variant,
                    {name: np.array([operands[name][pattern]]) for name in names},
                )
                assert single[0] == batched[pattern]


class TestEngineBitIdentical:
    """Engine-cached results must be bit-identical to uncached evaluation."""

    def test_cached_metrics_equal_uncached_across_random_circuits(self):
        reference = array_multiplier(4)
        variants = perturbation_sweep(reference, count=20, seed=5, max_mutations=6)
        cached_engine = BatchEvaluator(reference, mode="serial")
        uncached = [
            BatchEvaluator(reference, cache=EvalCache(), mode="serial")
            .evaluate_errors([variant])[0]
            for variant in variants
        ]
        # Evaluate twice through one engine: the second pass is pure cache.
        cached_engine.evaluate_errors(variants)
        cached = cached_engine.evaluate_errors(variants)
        for fresh, hit in zip(uncached, cached):
            assert fresh.metrics == hit.metrics
            assert fresh.num_patterns == hit.num_patterns
            assert fresh.method == hit.method

    def test_disk_roundtrip_preserves_exact_floats(self, tmp_path):
        reference = array_multiplier(4)
        variants = perturbation_sweep(reference, count=8, seed=11)
        direct = BatchEvaluator(reference, mode="serial").evaluate_errors(variants)
        cold = BatchEvaluator(
            reference, cache=EvalCache(disk_path=tmp_path / "d"), mode="serial"
        )
        cold.evaluate_errors(variants)
        warm = BatchEvaluator(
            reference, cache=EvalCache(disk_path=tmp_path / "d"), mode="serial"
        )
        restored = warm.evaluate_errors(variants)
        assert warm.stats().misses == 0
        for fresh, loaded in zip(direct, restored):
            # JSON round-trips IEEE doubles exactly via repr-based encoding.
            assert fresh.metrics == loaded.metrics
