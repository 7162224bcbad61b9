"""Tests of the MVM / 1-D signal workload family and its bit slicing.

The regression half of the scenario-matrix PR
(``benchmarks/test_workload_matrix.py`` is the matrix gate itself):

* a hypothesis property suite proving :func:`repro.workloads.convert_sliced`
  / :func:`repro.workloads.recombine_slices` are an exact round-trip for
  **every** ``(resolution, slice_width)`` pair -- including non-divisible
  widths and sign-magnitude negatives -- plus hand-pinned slice layouts;
* the ``reduce_balanced`` degenerate-case contract (single operand, empty
  list with/without the ``empty`` identity) the 1-D datapaths rely on;
* the flat/zero-signal quality-metric contract: ``snr`` (and ``psnr``)
  return documented values on degenerate inputs without ever emitting a
  ``RuntimeWarning``;
* the :class:`~repro.workloads.ApproxAccelerator` protocol surface of the
  four new workloads (1-D inputs, prepared-vs-unprepared equivalence,
  exact-configuration behaviour, token distinctness, 1-D fidelity crops);
* frozen golden digests of seeded ``ExplorationSession`` + NSGA-II runs
  per new workload (appended to ``tests/fixtures/workload_golden.json``,
  same study recipe as the image trio's goldens in
  ``tests/test_workloads.py``).
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExplorationSession
from repro.autoax import AutoAxConfig
from repro.engine import accelerator_token
from repro.generators import build_adder_library, build_multiplier_library
from repro.workloads import (
    MIN_FIDELITY_LENGTH,
    WORKLOADS,
    BitSlicedMVMAccelerator,
    DctAccelerator,
    MixedWidthFirAccelerator,
    VectorAccelerator,
    build_workload,
    components_from_library,
    convert_sliced,
    dct_matrix,
    default_signal_set,
    fidelity_inputs,
    num_slices,
    psnr,
    recombine_slices,
    reduce_balanced,
    snr,
    snr_score,
)

pytestmark = pytest.mark.workloads

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "workload_golden.json"
SIGNAL_WORKLOADS = ("mvm", "dct", "fir", "fir_mixed")


@pytest.fixture(scope="module")
def components():
    """The component setup the workload golden fixture was generated with."""
    multipliers = components_from_library(
        build_multiplier_library(8, size=30, seed=2), 6, max_error=0.1
    )
    adders = components_from_library(build_adder_library(16, size=24, seed=4), 5, max_error=0.02)
    return multipliers, adders


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def signature(entries):
    return [
        {
            "multipliers": list(entry.config.multiplier_indices),
            "adders": list(entry.config.adder_indices),
            "quality": repr(entry.quality),
            "cost": {name: repr(value) for name, value in sorted(entry.cost.items())},
        }
        for entry in entries
    ]


def digest(entries) -> str:
    blob = json.dumps(signature(entries), sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


# --------------------------------------------------------------------- #
# Bit slicing: exact round-trip property suite
# --------------------------------------------------------------------- #
@st.composite
def sliced_cases(draw):
    """(values, resolution, slice_width) across every legal pair."""
    resolution = draw(st.integers(min_value=2, max_value=12))
    slice_width = draw(st.integers(min_value=1, max_value=resolution - 1))
    limit = (1 << (resolution - 1)) - 1
    values = draw(
        st.lists(
            st.integers(min_value=-4 * limit - 7, max_value=4 * limit + 7),
            min_size=1,
            max_size=64,
        )
    )
    return np.asarray(values, dtype=np.int64), resolution, slice_width


class TestBitSlicing:
    @settings(max_examples=200)
    @given(sliced_cases())
    def test_round_trip_is_exact_after_clip(self, case):
        values, resolution, slice_width = case
        limit = (1 << (resolution - 1)) - 1
        signs, slices = convert_sliced(values, resolution, slice_width)
        assert len(slices) == num_slices(resolution, slice_width)
        width_mask = (1 << slice_width) - 1
        for plane in slices:
            assert plane.min() >= 0 and plane.max() <= width_mask
        back = recombine_slices(signs, slices, slice_width)
        assert np.array_equal(back, np.clip(values, -limit, limit))

    @settings(max_examples=60)
    @given(sliced_cases())
    def test_signs_are_sign_magnitude(self, case):
        values, resolution, slice_width = case
        signs, slices = convert_sliced(values, resolution, slice_width)
        assert set(np.unique(signs)) <= {-1, 1}
        # Zero is the collapsed double encoding: sign +1, all slices 0.
        zero_mask = np.clip(values, -((1 << (resolution - 1)) - 1),
                            (1 << (resolution - 1)) - 1) == 0
        assert np.all(signs[zero_mask] == 1)
        for plane in slices:
            assert np.all(plane[zero_mask] == 0)

    def test_non_divisible_slice_layout_is_pinned(self):
        # 8-bit sign-magnitude -> 7 magnitude bits -> 3 + 3 + 1 slices.
        assert num_slices(8, 3) == 3
        signs, slices = convert_sliced(np.array([127, -127, 85, -1]), 8, 3)
        assert [list(plane) for plane in slices] == [
            [7, 7, 5, 1],   # bits 0..2
            [7, 7, 2, 0],   # bits 3..5
            [1, 1, 1, 0],   # bit 6 (the narrow final slice)
        ]
        assert list(signs) == [1, -1, 1, -1]

    def test_divisible_and_single_slice_layouts(self):
        assert num_slices(9, 4) == 2
        assert num_slices(8, 7) == 1
        signs, slices = convert_sliced(np.array([-100]), 8, 7)
        assert len(slices) == 1 and slices[0][0] == 100 and signs[0] == -1

    def test_rejects_illegal_pairs(self):
        with pytest.raises(ValueError, match="resolution"):
            num_slices(1, 1)
        with pytest.raises(ValueError, match="slice width"):
            num_slices(8, 0)
        with pytest.raises(ValueError, match="slice width"):
            convert_sliced(np.array([1]), 8, 8)
        with pytest.raises(ValueError, match="empty slice list"):
            recombine_slices(np.array([1]), [], 3)


# --------------------------------------------------------------------- #
# reduce_balanced degenerate cases
# --------------------------------------------------------------------- #
class TestReduceBalanced:
    def _never(self, slot, left, right):  # pragma: no cover - must not run
        raise AssertionError("combine must not be called")

    def test_single_value_passes_through_without_a_slot(self):
        value, slot = reduce_balanced([42], self._never, slot=5)
        assert value == 42 and slot == 5

    def test_empty_without_identity_raises_the_historical_error(self):
        with pytest.raises(ValueError, match="empty value list"):
            reduce_balanced([], self._never)

    def test_empty_with_identity_returns_it_untouched(self):
        zero = np.zeros(3, dtype=np.int64)
        value, slot = reduce_balanced([], self._never, slot=7, empty=zero)
        assert value is zero and slot == 7

    def test_explicit_none_identity_is_honoured(self):
        value, slot = reduce_balanced([], self._never, empty=None)
        assert value is None and slot == 0

    def test_identity_is_ignored_when_values_exist(self):
        total, slot = reduce_balanced(
            [1, 2, 3], lambda s, a, b: a + b, empty="unused"
        )
        assert total == 6 and slot == 2


# --------------------------------------------------------------------- #
# Quality metrics on flat / zero signals
# --------------------------------------------------------------------- #
class TestDegenerateSignalMetrics:
    def test_snr_identical_signals_is_inf_without_warning(self):
        signal = np.array([3, 1, 4, 1, 5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert snr(signal, signal) == float("inf")
            assert snr_score(signal, signal) == 1.0

    def test_snr_on_identical_zero_signals_is_inf(self):
        zeros = np.zeros(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert snr(zeros, zeros) == float("inf")
            assert snr_score(zeros, zeros) == 1.0

    def test_snr_zero_reference_with_noise_is_minus_inf(self):
        zeros = np.zeros(8)
        noisy = np.ones(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert snr(zeros, noisy) == float("-inf")
            assert snr_score(zeros, noisy) == 0.0

    def test_snr_score_is_clamped_and_monotone(self):
        reference = np.array([100.0, -50.0, 25.0, 80.0])
        small = snr_score(reference, reference + 0.01)
        large = snr_score(reference, reference + 10.0)
        assert small == 1.0  # beyond the 60 dB cap
        assert 0.0 < large < small
        # Negative raw SNR (noise louder than signal) clamps to 0.
        assert snr_score(np.ones(4), np.full(4, 1000.0)) == 0.0

    def test_snr_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="same shape"):
            snr(np.zeros(3), np.zeros(4))

    def test_psnr_on_flat_zero_images_is_warning_free(self):
        zeros = np.zeros((6, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert psnr(zeros, zeros) == float("inf")
            assert np.isfinite(psnr(zeros, np.ones((6, 6))))


# --------------------------------------------------------------------- #
# Protocol surface of the new workloads
# --------------------------------------------------------------------- #
class TestSignalWorkloadProtocol:
    def test_registered_and_vector_based(self):
        for key in SIGNAL_WORKLOADS:
            assert key in WORKLOADS
            assert issubclass(WORKLOADS.get(key), VectorAccelerator)

    @pytest.mark.parametrize("key", SIGNAL_WORKLOADS)
    def test_default_inputs_are_1d_and_seeded(self, key):
        cls = WORKLOADS.get(key)
        inputs = default_signal_set(16, seed=cls.input_seed)
        assert len(inputs) == 4
        for signal in inputs:
            assert signal.ndim == 1 and signal.shape == (64,)
            assert signal.min() >= 0 and signal.max() <= 255

    def test_input_sets_pairwise_distinct(self):
        seeds = {WORKLOADS.get(key).input_seed for key in SIGNAL_WORKLOADS}
        assert len(seeds) == len(SIGNAL_WORKLOADS)
        sets = [default_signal_set(16, seed=seed) for seed in sorted(seeds)]
        blobs = {tuple(np.concatenate(signals).tolist()) for signals in sets}
        assert len(blobs) == len(sets)

    @pytest.mark.parametrize("key", SIGNAL_WORKLOADS)
    def test_prepared_equals_unprepared(self, components, key):
        accelerator = build_workload(key, *components)
        inputs = accelerator.default_inputs(12)
        operands, references, stops = accelerator.prepare_inputs(inputs)
        rng = np.random.default_rng(7)
        config = accelerator.random_configuration(rng)
        stacked = accelerator._apply_planes(operands, config)
        assert stops[-1] == stacked.size
        starts = (0,) + stops[:-1]
        for signal, reference, start, stop in zip(inputs, references, starts, stops):
            assert np.array_equal(accelerator.apply(signal, config), stacked[start:stop])
            assert np.array_equal(accelerator.exact_filter(signal), reference)

    @pytest.mark.parametrize("key", SIGNAL_WORKLOADS)
    def test_rejects_2d_inputs(self, components, key):
        accelerator = build_workload(key, *components)
        config = accelerator.exact_configuration()
        with pytest.raises(ValueError, match="1-D"):
            accelerator.apply(np.zeros((4, 4)), config)
        with pytest.raises(ValueError, match="1-D"):
            accelerator.prepare_inputs([np.zeros((4, 4))])

    def test_tokens_distinct_from_each_other_and_image_trio(self, components):
        keys = SIGNAL_WORKLOADS + ("gaussian", "sobel", "sharpen")
        tokens = {accelerator_token(build_workload(key, *components)) for key in keys}
        assert len(tokens) == len(keys)

    def test_slice_width_is_a_real_knob(self, components):
        base = BitSlicedMVMAccelerator(*components)
        wider = BitSlicedMVMAccelerator(*components, slice_width=4)
        assert base.workload_token() != wider.workload_token()
        signal = default_signal_set(12, seed=base.input_seed)[0]
        # The exact (recombined) datapath is slice-width independent ...
        assert np.array_equal(base.exact_filter(signal), wider.exact_filter(signal))
        # ... while the approximate one genuinely changes shape: a
        # different number of time-multiplexed passes.
        assert base._num_slices == 3 and wider._num_slices == 2

    def test_mvm_exact_configuration_matches_reference(self, components):
        # The libraries' most-accurate components are the exact circuits,
        # so the "exact configuration" reproduces the golden output bit
        # for bit -- through the full slice/phase/recombine datapath.
        for key in SIGNAL_WORKLOADS:
            accelerator = build_workload(key, *components)
            config = accelerator.exact_configuration()
            for signal in accelerator.default_inputs(12):
                assert np.array_equal(
                    accelerator.apply(signal, config), accelerator.exact_filter(signal)
                ), key

    def test_single_sign_weight_rows_hit_the_empty_reduce(self, components):
        # An all-positive row leaves the negative weight-sign group empty;
        # the datapath must route through reduce_balanced's identity
        # instead of crashing (the satellite fix this PR pins).
        accelerator = BitSlicedMVMAccelerator(
            *components, weights=[[3, 5, 2, 7], [1, 2, 3, 4]], workload_name="mvm-pos"
        )
        config = accelerator.exact_configuration()
        signal = default_signal_set(8, seed=1)[0]
        assert np.array_equal(
            accelerator.apply(signal, config), accelerator.exact_filter(signal)
        )

    def test_mvm_validation_errors(self, components):
        with pytest.raises(ValueError, match="zero weights"):
            BitSlicedMVMAccelerator(*components, weights=[[1, 0], [2, 3]])
        with pytest.raises(ValueError, match="rectangular"):
            BitSlicedMVMAccelerator(*components, weights=[[1, 2], [3]])
        with pytest.raises(ValueError, match="slice width"):
            BitSlicedMVMAccelerator(*components, slice_width=9)

    def test_mixed_width_fir_validation(self, components):
        with pytest.raises(ValueError, match="multiplier width"):
            MixedWidthFirAccelerator(*components, multiplier_width=9)
        with pytest.raises(ValueError, match="adder width"):
            MixedWidthFirAccelerator(*components, adder_width=8)

    def test_dct_matrix_has_no_zero_entries(self):
        matrix = dct_matrix()
        assert len(matrix) == 8 and all(len(row) == 8 for row in matrix)
        assert all(value != 0 for row in matrix for value in row)
        assert DctAccelerator.weights == matrix

    def test_slot_shapes(self, components):
        mvm = build_workload("mvm", *components)
        assert (mvm.num_multiplier_slots, mvm.num_adder_slots) == (8, 7)
        dct = build_workload("dct", *components)
        assert (dct.num_multiplier_slots, dct.num_adder_slots) == (8, 7)
        fir = build_workload("fir", *components)
        assert (fir.num_multiplier_slots, fir.num_adder_slots) == (7, 6)
        mixed = build_workload("fir_mixed", *components)
        assert (mixed.num_multiplier_slots, mixed.num_adder_slots) == (7, 6)
        widths = {slot.kind: slot.operand_width for slot in mixed.slots()}
        assert widths == {"multiplier": 6, "adder": 12}

    def test_fidelity_inputs_crops_1d_signals(self):
        signals = default_signal_set(48, seed=303)
        reduced, flag = fidelity_inputs(signals, 96)
        assert flag
        for signal in reduced:
            assert signal.ndim == 1 and signal.shape[0] == MIN_FIDELITY_LENGTH
        floor, _ = fidelity_inputs(signals, 1)
        assert all(s.shape[0] == MIN_FIDELITY_LENGTH for s in floor)
        full, flag = fidelity_inputs(signals, 10 ** 9)
        assert not flag
        assert all(a is b for a, b in zip(full, signals))


# --------------------------------------------------------------------- #
# Frozen golden digests of the new workloads
# --------------------------------------------------------------------- #
class TestSignalWorkloadGoldens:
    @pytest.mark.parametrize("workload", SIGNAL_WORKLOADS)
    def test_session_nsga2_run_matches_golden(self, components, golden, workload):
        config = AutoAxConfig(
            parameters=("area",),
            num_training_samples=12,
            num_random_baseline=8,
            hill_climb_iterations=60,
            image_size=32,
            seed=11,
            search_strategy="nsga2",
            workload=workload,
        )
        session = ExplorationSession(seed=11)
        result = session.run_autoax(*components, config)
        scenario = result.scenarios["area"]
        expected = golden[workload]
        assert digest(scenario.candidates) == expected["candidates"]
        assert digest(scenario.front) == expected["front"]
        assert digest(result.baseline) == expected["baseline"]
        assert len(scenario.front) == expected["num_front"]

    def test_goldens_distinct_across_signal_workloads(self, golden):
        fronts = {golden[workload]["front"] for workload in SIGNAL_WORKLOADS}
        assert len(fronts) == len(SIGNAL_WORKLOADS)
