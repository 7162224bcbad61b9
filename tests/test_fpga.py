"""Tests of the FPGA synthesis substrate: mapping, packing, timing, power."""

import numpy as np
import pytest

from repro.circuits import NetlistBuilder
from repro.fpga import (
    FpgaSynthesizer,
    default_device,
    estimate_synthesis_time,
    map_to_luts,
    pack_slices,
    synthesize_fpga,
)
from repro.generators import (
    array_multiplier,
    lower_or_adder,
    ripple_carry_adder,
    truncated_multiplier,
    wallace_multiplier,
)


def test_lut_inputs_respect_k(multiplier8):
    mapping = map_to_luts(multiplier8, lut_size=6)
    assert mapping.num_luts > 0
    for lut in mapping.luts:
        assert 1 <= lut.num_inputs <= 6


def test_lut_count_not_more_than_live_gates(multiplier8):
    mapping = map_to_luts(multiplier8, lut_size=6)
    assert mapping.num_luts <= multiplier8.live_gate_count()


def test_smaller_lut_size_needs_more_luts(multiplier8):
    luts_4 = map_to_luts(multiplier8, lut_size=4).num_luts
    luts_6 = map_to_luts(multiplier8, lut_size=6).num_luts
    assert luts_4 >= luts_6


def test_every_output_has_a_source(multiplier4):
    mapping = map_to_luts(multiplier4)
    assert set(mapping.output_sources) == set(multiplier4.output_bits)
    assert set(mapping.output_sources.values()) <= {"lut", "input", "constant"}


def test_constant_and_wire_circuits_need_no_luts():
    builder = NetlistBuilder("wires", kind="adder")
    a = builder.add_input_word("a", 4)
    builder.add_input_word("b", 4)
    zero = builder.const0()
    netlist = builder.finish([a[0], a[1], zero, zero])
    mapping = map_to_luts(netlist)
    assert mapping.num_luts == 0


def test_buffers_are_absorbed():
    builder = NetlistBuilder("bufs", kind="adder")
    a = builder.add_input_word("a", 2)
    b = builder.add_input_word("b", 2)
    buffered = builder.buf(builder.buf(a[0]))
    out = builder.xor(buffered, b[0])
    netlist = builder.finish([out])
    mapping = map_to_luts(netlist)
    assert mapping.num_luts == 1


def test_single_gate_maps_to_single_lut():
    builder = NetlistBuilder("one", kind="adder")
    a = builder.add_input_word("a", 1)
    b = builder.add_input_word("b", 1)
    netlist = builder.finish([builder.and_(a[0], b[0])])
    mapping = map_to_luts(netlist)
    assert mapping.num_luts == 1
    assert mapping.depth == 1


def test_mapping_depth_not_more_than_gate_depth(multiplier8):
    mapping = map_to_luts(multiplier8)
    assert 0 < mapping.depth <= multiplier8.depth()


# --------------------------------------------------------------------- #
def test_packing_capacity(multiplier8):
    device = default_device()
    mapping = map_to_luts(multiplier8, lut_size=device.lut_size)
    packing = pack_slices(mapping, device)
    assert packing.num_luts == mapping.num_luts
    assert all(s.occupancy <= device.luts_per_slice for s in packing.slices)
    lower_bound = -(-mapping.num_luts // device.luts_per_slice)
    assert packing.num_slices >= lower_bound
    assert packing.num_slices <= mapping.num_luts


# --------------------------------------------------------------------- #
def test_fpga_report_fields(multiplier8):
    report = synthesize_fpga(multiplier8)
    assert report.luts > 0
    assert report.slices > 0
    assert report.logic_levels > 0
    assert report.latency_ns > 0.0
    assert report.total_power_mw > 0.0
    assert report.synthesis_time_s > 0.0
    assert report.parameter("area") == report.luts
    assert report.parameter("latency") == report.latency_ns
    assert report.parameter("power") == report.total_power_mw
    with pytest.raises(KeyError):
        report.parameter("unknown")


def test_latency_at_least_one_lut_plus_routing(adder8):
    device = default_device()
    report = synthesize_fpga(adder8)
    assert report.latency_ns >= device.lut_delay_ns + device.input_delay_ns


def test_truncation_reduces_fpga_cost():
    exact = synthesize_fpga(array_multiplier(8))
    truncated = synthesize_fpga(truncated_multiplier(8, 6))
    assert truncated.luts < exact.luts
    assert truncated.latency_ns <= exact.latency_ns


def test_loa_reduces_adder_latency():
    exact = synthesize_fpga(ripple_carry_adder(16))
    approximate = synthesize_fpga(lower_or_adder(16, 8))
    assert approximate.latency_ns < exact.latency_ns
    assert approximate.luts < exact.luts


def test_wallace_faster_on_fpga_than_array():
    array_report = synthesize_fpga(array_multiplier(8))
    wallace_report = synthesize_fpga(wallace_multiplier(8))
    assert wallace_report.latency_ns < array_report.latency_ns


def test_fpga_synthesis_deterministic(multiplier4):
    synthesizer = FpgaSynthesizer()
    assert synthesizer.synthesize(multiplier4) == synthesizer.synthesize(multiplier4)


def test_synthesis_time_grows_with_circuit_size():
    small = estimate_synthesis_time(array_multiplier(4))
    medium = estimate_synthesis_time(array_multiplier(8))
    large = estimate_synthesis_time(array_multiplier(16))
    assert small < medium < large


def test_synthesis_time_order_of_minutes_for_8x8():
    seconds = estimate_synthesis_time(array_multiplier(8))
    # Calibration target: the paper implies roughly 15-20 minutes per circuit.
    assert 300.0 < seconds < 3600.0


def test_asic_fpga_pareto_divergence(small_multiplier_library, fpga_synth, asic_synth):
    """The motivational observation: ASIC cost ordering != FPGA cost ordering."""
    circuits = list(small_multiplier_library)[:30]
    asic_area = np.array([asic_synth.synthesize(c).area_um2 for c in circuits])
    fpga_area = np.array([fpga_synth.synthesize(c).luts for c in circuits])
    asic_order = np.argsort(asic_area)
    fpga_order = np.argsort(fpga_area)
    assert not np.array_equal(asic_order, fpga_order)


@pytest.mark.parametrize("samples", [0, -5])
def test_synthesizer_rejects_activity_samples_below_one(samples):
    # Zero samples would report NaN dynamic power and negative ones would
    # fail inside NumPy, both only once ``synthesize`` runs.
    with pytest.raises(ValueError, match="activity_samples"):
        FpgaSynthesizer(activity_samples=samples)
