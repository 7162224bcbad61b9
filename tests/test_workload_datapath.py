"""The datapath-evaluation contract of the workload subsystem.

* One datapath pass per configuration: ``prepare_inputs`` stacks every
  input's operands along the datapath's pattern (or block) axis, so one
  ``quality_prepared`` call makes the same number of
  :meth:`repro.workloads.ApproxComponent.compute` calls whatever the
  number of inputs -- a counted, deterministic measure of the work.
* Stacking is exact on input sets of mixed shapes and lengths: each input
  gets the output :meth:`~repro.workloads.ApproxAccelerator.apply` gives
  it alone, and the set's quality is bit-equal to the mean of the
  per-input qualities in input order.
* :class:`~repro.workloads.ApproxComponent` evaluation: every operand is
  masked to its own port's width on both the lookup-table and the
  simulation path, and the lazily built table takes no part in equality
  or ``repr``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.builder import NetlistBuilder
from repro.circuits.simulate import simulate_words
from repro.generators import build_adder_library, build_multiplier_library
from repro.workloads import (
    ApproxComponent,
    VectorAccelerator,
    build_workload,
    components_from_library,
)

pytestmark = pytest.mark.workloads

BUILTIN_WORKLOADS = ("gaussian", "sobel", "sharpen", "mvm", "dct", "fir", "fir_mixed")


@pytest.fixture(scope="module")
def components():
    """The component setup the workload golden fixture was generated with."""
    multipliers = components_from_library(
        build_multiplier_library(8, size=30, seed=2), 6, max_error=0.1
    )
    adders = components_from_library(build_adder_library(16, size=24, seed=4), 5, max_error=0.02)
    return multipliers, adders


@pytest.fixture
def compute_calls(monkeypatch):
    """A one-element list counting every ``ApproxComponent.compute`` call."""
    calls = [0]
    compute = ApproxComponent.compute

    def counted(self, a, b):
        calls[0] += 1
        return compute(self, a, b)

    monkeypatch.setattr(ApproxComponent, "compute", counted)
    return calls


def _mixed_inputs(accelerator):
    """Two inputs of different shapes (images) or lengths (signals)."""
    rng = np.random.default_rng(21)
    if isinstance(accelerator, VectorAccelerator):
        # 70 samples is not a whole number of the MVM's 8-sample blocks.
        return [rng.integers(0, 256, size=n).astype(np.int64) for n in (64, 70)]
    return [rng.integers(0, 256, size=shape, dtype=np.uint8) for shape in ((16, 16), (24, 20))]


@pytest.mark.parametrize("key", BUILTIN_WORKLOADS)
def test_one_datapath_pass_per_configuration(components, compute_calls, key):
    accelerator = build_workload(key, *components)
    inputs = accelerator.default_inputs(16)
    config = accelerator.random_configuration(np.random.default_rng(4))

    counts = []
    for subset in (inputs[:1], inputs):
        prepared = accelerator.prepare_inputs(subset)
        compute_calls[0] = 0
        accelerator.quality_prepared(prepared, config)
        counts.append(compute_calls[0])
    assert len(inputs) > 1
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("key", BUILTIN_WORKLOADS)
def test_mixed_shape_set_matches_each_input_alone(components, key):
    accelerator = build_workload(key, *components)
    inputs = _mixed_inputs(accelerator)
    config = accelerator.random_configuration(np.random.default_rng(8))

    prepared = accelerator.prepare_inputs(inputs)
    outputs = accelerator._outputs(prepared, config)
    for item, output, reference in zip(inputs, outputs, prepared[1]):
        alone = accelerator.apply(item, config)
        assert output.shape == alone.shape == reference.shape
        assert output.dtype == alone.dtype
        assert np.array_equal(output, alone)
        assert np.array_equal(reference, accelerator.exact_filter(item))

    per_input = [accelerator.quality([item], config) for item in inputs]
    assert accelerator.quality_prepared(prepared, config) == float(np.mean(per_input))


def test_prepare_inputs_rejects_an_empty_set(components):
    accelerator = build_workload("gaussian", *components)
    with pytest.raises(ValueError, match="empty"):
        accelerator.prepare_inputs([])


# --------------------------------------------------------------------- #
# ApproxComponent
# --------------------------------------------------------------------- #
def _concatenating_component(width_a: int, width_b: int) -> ApproxComponent:
    """A component whose output word is ``a | b << width_a``.

    Every output bit is one operand bit, so an operand masked with the
    wrong width shows up in the output.  Reports are not needed to compute.
    """
    builder = NetlistBuilder(f"cat{width_a}x{width_b}", kind="multiplier")
    a = builder.add_input_word("a", width_a)
    b = builder.add_input_word("b", width_b)
    netlist = builder.finish([builder.buf(bit) for bit in a + b])
    return ApproxComponent(netlist.name, "multiplier", netlist, fpga=None, error=None)


def _value(component: ApproxComponent, a: int, b: int) -> int:
    return int(component.compute(np.array([a]), np.array([b]))[0])


@pytest.mark.parametrize(
    "widths",
    [(4, 2), (2, 4), (12, 4), (10, 16)],
    ids=["table", "table-wide-b", "simulated", "simulated-wide-b"],
)
def test_compute_masks_each_operand_to_its_own_width(widths):
    width_a, width_b = widths
    component = _concatenating_component(width_a, width_b)
    rng = np.random.default_rng(3)
    a = rng.integers(0, 1 << 16, size=200)
    b = rng.integers(0, 1 << 16, size=200)
    masked = {"a": a & ((1 << width_a) - 1), "b": b & ((1 << width_b) - 1)}
    expected = simulate_words(component.netlist, masked)
    assert np.array_equal(component.compute(a, b), expected)
    assert np.array_equal(expected, masked["a"] | (masked["b"] << width_a))
    # The table holds 2 ** (width_a + width_b) entries; wider pairs simulate.
    assert (component._table is not None) == (width_a + width_b <= 20)


def test_compute_masks_the_narrow_port_on_both_paths():
    # 6 & 0b11 == 2, so 5 | 2 << 4 == 37; masking b to a's 4 bits read
    # table entry 5 * 4 + 6, the next row's.
    assert _value(_concatenating_component(4, 2), 5, 6) == 37
    # 20 & 0b1111 == 4; the simulation path rejected the unmasked 20.
    assert _value(_concatenating_component(12, 4), 3, 20) == 3 | 4 << 12


def test_component_equality_ignores_the_lookup_table(components):
    multiplier = components[0][0]

    def copy():
        return ApproxComponent(
            multiplier.name, multiplier.kind, multiplier.netlist, multiplier.fpga, multiplier.error
        )

    built, fresh = copy(), copy()
    built.compute(np.arange(4), np.arange(4))
    assert built._table is not None and fresh._table is None
    assert built == fresh
    assert built in [fresh]
    assert "_table" not in repr(built)
