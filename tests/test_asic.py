"""Tests of the ASIC synthesis substrate."""

import pytest

from repro.asic import AsicSynthesizer, default_cell_library, synthesize_asic
from repro.circuits import GateType
from repro.generators import (
    array_multiplier,
    truncated_multiplier,
    wallace_multiplier,
)


def test_default_cell_library_covers_all_gate_types():
    library = default_cell_library()
    assert set(library.cells) == set(GateType)
    for gate_type, cell in library.cells.items():
        assert cell.gate_type == gate_type
        assert cell.area_um2 >= 0.0
        assert cell.intrinsic_delay_ns >= 0.0


def test_constants_are_free():
    library = default_cell_library()
    assert library.cell(GateType.CONST0).area_um2 == 0.0
    assert library.cell(GateType.CONST1).switching_energy_fj == 0.0


def test_asic_report_fields_positive(multiplier8):
    report = synthesize_asic(multiplier8)
    assert report.area_um2 > 0.0
    assert report.critical_path_ns > 0.0
    assert report.total_power_mw > 0.0
    assert report.cell_count > 0
    assert report.latency_ns == report.critical_path_ns


def test_asic_report_as_dict_keys(adder8):
    report = synthesize_asic(adder8)
    as_dict = report.as_dict()
    for key in ("asic_area_um2", "asic_latency_ns", "asic_power_mw", "asic_cell_count"):
        assert key in as_dict


def test_multiplier_larger_than_adder(adder8, multiplier8):
    adder_report = synthesize_asic(adder8)
    multiplier_report = synthesize_asic(multiplier8)
    assert multiplier_report.area_um2 > adder_report.area_um2
    assert multiplier_report.critical_path_ns > adder_report.critical_path_ns


def test_truncation_reduces_asic_area():
    exact = synthesize_asic(array_multiplier(8))
    truncated = synthesize_asic(truncated_multiplier(8, 6))
    assert truncated.area_um2 < exact.area_um2
    assert truncated.cell_count < exact.cell_count


def test_wallace_shallower_than_array():
    array_report = synthesize_asic(array_multiplier(8))
    wallace_report = synthesize_asic(wallace_multiplier(8))
    assert wallace_report.critical_path_ns < array_report.critical_path_ns


def test_fixed_clock_period_changes_power(multiplier4):
    free_running = AsicSynthesizer().synthesize(multiplier4)
    slow_clock = AsicSynthesizer(clock_period_ns=100.0).synthesize(multiplier4)
    assert slow_clock.dynamic_power_mw < free_running.dynamic_power_mw


def test_asic_synthesis_is_deterministic(multiplier4):
    first = AsicSynthesizer().synthesize(multiplier4)
    second = AsicSynthesizer().synthesize(multiplier4)
    assert first == second


def test_dead_logic_not_counted():
    from repro.circuits import NetlistBuilder

    builder = NetlistBuilder("dead", kind="adder")
    a = builder.add_input_word("a", 2)
    b = builder.add_input_word("b", 2)
    live = builder.xor(a[0], b[0])
    builder.and_(a[1], b[1])  # dead
    netlist = builder.finish([live])
    report = synthesize_asic(netlist)
    assert report.cell_count == 1


@pytest.mark.parametrize("samples", [0, -5])
def test_synthesizer_rejects_activity_samples_below_one(samples):
    # Zero samples would report NaN dynamic power and negative ones would
    # fail inside NumPy, both only once ``synthesize`` runs.
    with pytest.raises(ValueError, match="activity_samples"):
        AsicSynthesizer(activity_samples=samples)
