"""Differential tests of the op tape against the ``bool`` oracle (``-m sim_backends``).

Every production simulation runs :func:`~repro.circuits.simulate_planes`,
the netlist's compiled op tape over packed bit planes;
:func:`~repro.circuits.simulate_bits` is the ``bool`` oracle it is tested
against.  The two must be *bit-identical* on every netlist and every
pattern count -- caches and flows rely on it.  This suite checks the
contract several ways:

* every gate type in every operand polarity through the compiler's truth
  masks, against the boolean truth tables;
* a seeded differential sweep over hundreds of randomly perturbed netlists
  and pattern counts (including non-multiples of 64 and floating
  ``gate.a/b == -1`` operands);
* hypothesis-driven random netlist/pattern generation on top, and on the
  word conversion: ``simulate_words`` against the oracle in value and
  dtype, for output words up to 66 bits and 64-bit operands;
* degenerate-netlist edge cases (wire-only, constant-only, repeated output
  bits, width-1 words) that both executors of the tape (native and NumPy
  fallback) must agree on, and the NumPy executor's lazily built op groups;
* evaluators, the engine and both whole flows, each run on the tape and
  then with every production simulation routed through the oracle
  (the ``oracle_route`` fixture);
* which entry point production reaches: error evaluation, lookup tables
  and wide components run the tape and never the oracle, an evaluator
  keeps the planes it packed, and the retired ``sim_backend`` keyword is
  rejected.
"""

from __future__ import annotations

import itertools
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import ExplorationSession
from repro.circuits import (
    PLANE_WIDTH,
    Gate,
    GateType,
    Netlist,
    compile_netlist,
    exhaustive_operands,
    num_planes,
    pack_bits,
    simulate_bits,
    simulate_planes,
    simulate_words,
    unpack_bits,
)
from repro.circuits import compiled as compiled_module
from repro.circuits import simulate as simulate_module
from repro.circuits._native import native_available
from repro.circuits.gates import GATE_FUNCTIONS
from repro.circuits.simulate import expand_operand_bits, expand_operands, node_values
from repro.engine import BatchEvaluator, EvalCache
from repro.error import ErrorEvaluator, evaluate_error
from repro.error import evaluation as evaluation_module
from repro.generators import array_multiplier, perturb_netlist, ripple_carry_adder
from repro.generators.perturbation import PerturbationConfig
from repro.workloads import ApproxComponent

pytestmark = pytest.mark.sim_backends


def random_input_bits(netlist: Netlist, patterns: int, rng: np.random.Generator) -> np.ndarray:
    return rng.random((patterns, netlist.num_inputs)) < 0.5


def run_packed(run, input_bits: np.ndarray) -> np.ndarray:
    """``run`` (packed input planes -> packed output planes) on a bool matrix."""
    return unpack_bits(run(pack_bits(input_bits.T)), input_bits.shape[0]).T


def simulate_packed(netlist: Netlist, input_bits: np.ndarray) -> np.ndarray:
    return run_packed(lambda planes: simulate_planes(netlist, planes), input_bits)


def assert_backends_agree(netlist: Netlist, input_bits: np.ndarray) -> None:
    reference = simulate_bits(netlist, input_bits)
    outputs = simulate_packed(netlist, input_bits)
    assert outputs.dtype == reference.dtype
    assert outputs.shape == reference.shape
    assert np.array_equal(reference, outputs)


@pytest.fixture
def on_each_path(monkeypatch, oracle_route):
    """Call ``run()`` on the tape, then with every production simulation
    routed through the oracle; returns ``{"tape": ..., "oracle": ...}``."""

    def run_each(run):
        results = {"tape": run()}
        with monkeypatch.context() as patch:
            oracle_route(patch)
            results["oracle"] = run()
        return results

    return run_each


@pytest.fixture
def planes_calls(monkeypatch):
    """Spy on the tape's entry point; returns ``(netlist name, planes)`` per call."""
    calls = []

    def spy(netlist, planes):
        calls.append((netlist.name, planes))
        return simulate_planes(netlist, planes)

    monkeypatch.setattr(simulate_module, "simulate_planes", spy)
    return calls


@pytest.fixture
def oracle_calls(monkeypatch):
    """Count calls of the ``bool`` oracle through the module production imports from."""
    calls = []

    def spy(netlist, input_bits):
        calls.append(netlist.name)
        return simulate_bits(netlist, input_bits)

    monkeypatch.setattr(simulate_module, "simulate_bits", spy)
    return calls


# --------------------------------------------------------------------- #
# Which entry point production reaches
# --------------------------------------------------------------------- #
def test_component_simulations_run_the_tape(multiplier8, planes_calls, oracle_calls):
    """A lookup-table build and a wide ``compute`` each make one
    ``simulate_planes`` call and no ``simulate_bits`` call."""
    table_component = ApproxComponent("mul8", "multiplier", multiplier8, fpga=None, error=None)
    a, b = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    products = table_component.compute(a.reshape(-1), b.reshape(-1))
    assert np.array_equal(products, (a * b).reshape(-1))
    assert [(name, p.shape[1]) for name, p in planes_calls] == [
        (multiplier8.name, num_planes(1 << 16))
    ]

    planes_calls.clear()
    adder = ripple_carry_adder(16)
    wide_component = ApproxComponent("add16", "adder", adder, fpga=None, error=None)
    sums = wide_component.compute(np.array([1, 40000, 65535]), np.array([2, 30000, 65535]))
    assert sums.tolist() == [3, 70000, 131070]
    assert [(name, p.shape[1]) for name, p in planes_calls] == [(adder.name, 1)]
    assert oracle_calls == []


def test_error_evaluation_runs_the_tape(multiplier4, planes_calls, oracle_calls):
    """``ErrorEvaluator.evaluate``, directly and through the engine, makes
    one ``simulate_planes`` call per circuit and no ``simulate_bits`` call,
    exhaustively and on a Monte-Carlo sample of any size."""
    circuit = perturb_netlist(multiplier4, seed=11)
    for evaluator, patterns in (
        (ErrorEvaluator(multiplier4), 256),
        (ErrorEvaluator(multiplier4, max_exhaustive_inputs=0, num_samples=100), 100),
    ):
        planes_calls.clear()
        evaluator.evaluate(circuit)
        BatchEvaluator(error_evaluator=evaluator, mode="serial").evaluate_errors([circuit])
        assert [(name, p.shape[1]) for name, p in planes_calls] == [
            (circuit.name, num_planes(patterns))
        ] * 2
    assert oracle_calls == []


def test_operand_memo_keeps_its_planes(multiplier4, planes_calls, monkeypatch):
    """An evaluator packs its operands once per input layout: the reference
    and every evaluation after it run the tape on the very same planes."""
    circuit = perturb_netlist(multiplier4, seed=11)
    evaluator = ErrorEvaluator(multiplier4)
    expanded = []

    def spy(netlist, operands):
        expanded.append(netlist.name)
        return expand_operands(netlist, operands)

    monkeypatch.setattr(evaluation_module, "expand_operands", spy)
    first = evaluator.evaluate(circuit)
    assert evaluator.evaluate(circuit) == first
    assert expanded == []
    assert [name for name, _ in planes_calls] == [multiplier4.name] + [circuit.name] * 2
    assert all(planes is planes_calls[0][1] for _, planes in planes_calls)


@pytest.mark.parametrize(
    "build",
    [
        lambda reference: ExplorationSession(sim_backend="bool"),
        lambda reference: BatchEvaluator(reference, sim_backend="bool"),
        lambda reference: ErrorEvaluator(reference, sim_backend="bool"),
        lambda reference: evaluate_error(reference, reference, sim_backend="bool"),
    ],
    ids=["ExplorationSession", "BatchEvaluator", "ErrorEvaluator", "evaluate_error"],
)
def test_sim_backend_keyword_is_rejected(build, multiplier4):
    """The path is no longer a knob: passing the retired keyword fails at
    the call instead of being silently accepted."""
    with pytest.raises(TypeError, match="sim_backend"):
        build(multiplier4)


# --------------------------------------------------------------------- #
# Words straight to planes and back
# --------------------------------------------------------------------- #
def random_wide_netlist(widths, out_width: int, num_gates: int, seed: int) -> Netlist:
    """Random gates over input words of ``widths`` bits, ``out_width``
    output bits drawn from every node (repeats and floating operands too)."""
    rng = np.random.default_rng(seed)
    num_inputs = sum(widths)
    gates = [
        Gate(
            GateType(int(rng.integers(len(GateType)))),
            int(rng.integers(-1, num_inputs + position)),
            int(rng.integers(-1, num_inputs + position)),
        )
        for position in range(num_gates)
    ]
    bounds = np.cumsum((0,) + tuple(widths))
    return Netlist(
        name=f"wide_{seed}",
        kind="test",
        input_words={
            name: tuple(range(start, stop))
            for name, start, stop in zip("ab", bounds[:-1].tolist(), bounds[1:].tolist())
        },
        output_bits=tuple(rng.integers(0, num_inputs + num_gates, size=out_width).tolist()),
        gates=gates,
    )


def random_words(netlist: Netlist, patterns: int, rng: np.random.Generator):
    return {
        name: rng.integers(0, 1 << len(bits), size=patterns, dtype=np.uint64, endpoint=False)
        if len(bits) == 64
        else rng.integers(0, 1 << len(bits), size=patterns)
        for name, bits in netlist.input_words.items()
    }


@settings(max_examples=40, deadline=None)
@given(
    patterns=st.sampled_from([0, 1, 63, 64, 65, 4097]) | st.integers(0, 300),
    out_width=st.sampled_from([1, 17, 63, 64, 66]) | st.integers(0, 70),
    widths=st.sampled_from([(1, 1), (3, 5), (8, 8), (16, 16), (64, 2)]),
    num_gates=st.integers(0, 40),
    seed=st.integers(0, 2**31 - 1),
)
@example(patterns=0, out_width=66, widths=(8, 8), num_gates=20, seed=1)
@example(patterns=1, out_width=64, widths=(64, 2), num_gates=10, seed=2)
@example(patterns=63, out_width=63, widths=(16, 16), num_gates=30, seed=3)
@example(patterns=64, out_width=17, widths=(8, 8), num_gates=40, seed=4)
@example(patterns=65, out_width=1, widths=(3, 5), num_gates=5, seed=5)
@example(patterns=100, out_width=0, widths=(1, 1), num_gates=3, seed=7)
@example(patterns=4097, out_width=66, widths=(64, 2), num_gates=40, seed=6)
def test_simulate_words_matches_the_oracle(
    patterns, out_width, widths, num_gates, seed, oracle_words
):
    netlist = random_wide_netlist(widths, out_width, num_gates, seed)
    operands = random_words(netlist, patterns, np.random.default_rng(seed))
    words = simulate_words(netlist, operands)
    expected = oracle_words(netlist, operands)
    assert words.dtype == expected.dtype
    assert words.shape == (patterns,)
    assert words.tolist() == expected.tolist()


def test_64_bit_words_at_and_above_2_63(oracle_words):
    """64-bit operand words from 2^63 up pass through whole, and a 65th
    output bit turns the words into Python ints."""
    netlist = Netlist(
        name="wide_wires",
        kind="test",
        input_words={"a": tuple(range(64))},
        output_bits=tuple(range(64)) + (64,),
        gates=[Gate(GateType.AND, 63, 62)],
    )
    values = np.array([0, 1, 2**63 - 1, 2**63, 2**63 + 12345, 2**64 - 1], dtype=np.uint64)
    words = simulate_words(netlist, {"a": values})
    expected = [int(v) | ((int(v) >> 63) & (int(v) >> 62) & 1) << 64 for v in values]
    assert words.dtype == object
    assert words.tolist() == expected
    assert words.tolist() == oracle_words(netlist, {"a": values}).tolist()

    wires = Netlist("wires64", "test", {"a": tuple(range(64))}, tuple(range(64)), [])
    passed = simulate_words(wires, {"a": values})
    assert passed.dtype == np.uint64
    assert np.array_equal(passed, values)


@pytest.mark.parametrize(
    "operands",
    [
        {"a": np.array([1.5, 2.0]), "b": np.array([1, 2])},
        {"a": np.array([1, 2], dtype=object), "b": np.array([1, 2])},
        {"a": [256, 1], "b": [1, 2]},
        {"a": [1, 2], "b": [-1, 2]},
        {"a": np.array([2**63], dtype=np.uint64), "b": [1]},
        {"a": [1, 2]},
        {"a": [1, 2], "b": [3, 4], "carry": [0, 1]},
        {"a": [1, 2], "b": [1]},
    ],
    ids=["float", "object", "too_wide", "negative", "uint64_overflow", "missing", "unknown",
         "unequal_lengths"],
)
def test_invalid_operands_raise_like_expand_operand_bits(adder8, operands):
    with pytest.raises((TypeError, ValueError)) as expected:
        expand_operand_bits(adder8, operands)
    with pytest.raises(expected.type, match=re.escape(str(expected.value))):
        simulate_words(adder8, operands)
    with pytest.raises(expected.type, match=re.escape(str(expected.value))):
        expand_operands(adder8, operands)


# --------------------------------------------------------------------- #
# pack / unpack
# --------------------------------------------------------------------- #
class TestPacking:
    @settings(max_examples=60)
    @given(
        patterns=st.integers(min_value=0, max_value=300),
        rows=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_roundtrip(self, patterns, rows, seed):
        rng = np.random.default_rng(seed)
        bits = rng.random((rows, patterns)) < 0.5
        packed = pack_bits(bits)
        assert packed.dtype == np.uint64
        assert packed.shape == (rows, num_planes(patterns))
        assert np.array_equal(unpack_bits(packed, patterns), bits)

    def test_one_dimensional_roundtrip(self):
        bits = np.array([True, False, True] * 43)  # 129 = 2*64 + 1 patterns
        packed = pack_bits(bits)
        assert packed.shape == (num_planes(129),)
        assert np.array_equal(unpack_bits(packed, 129), bits)

    def test_num_planes(self):
        assert [num_planes(p) for p in (0, 1, 63, 64, 65, 128)] == [0, 1, 1, 1, 2, 2]
        with pytest.raises(ValueError):
            num_planes(-1)

    def test_unpack_rejects_overlong_pattern_count(self):
        packed = pack_bits(np.ones(64, dtype=bool))
        with pytest.raises(ValueError):
            unpack_bits(packed, 65)


# --------------------------------------------------------------------- #
# Per-gate parity
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("gate_type", list(GateType))
def test_compiled_polarity_matches_bool_gate(gate_type):
    """Every operand polarity of ``gate_type`` through the packed path.

    An operand fed through a ``NOT`` is folded into the consuming gate's
    truth mask, so the four polarity cases pin every ``_EFFECTIVE_MASKS``
    entry of the gate type against ``GATE_FUNCTIONS``.  Every gate gets
    both operands: those beyond its arity are ignored, as by the oracle.
    """
    a = np.array([False, False, True, True])
    b = np.array([False, True, False, True])
    for a_inv, b_inv in itertools.product((False, True), repeat=2):
        netlist = Netlist(
            name=f"{gate_type.name.lower()}_{int(a_inv)}{int(b_inv)}",
            kind="test",
            input_words={"a": (0,), "b": (1,)},
            # node ids: inputs 0-1, NOT a = 2, NOT b = 3, gate under test = 4
            output_bits=(4,),
            gates=[
                Gate(GateType.NOT, 0),
                Gate(GateType.NOT, 1),
                Gate(gate_type, 2 if a_inv else 0, 3 if b_inv else 1),
            ],
        )
        expected = GATE_FUNCTIONS[gate_type](a ^ a_inv, b ^ b_inv)
        outputs = simulate_packed(netlist, np.stack([a, b], axis=1))
        assert np.array_equal(outputs[:, 0], expected), (a_inv, b_inv)


@pytest.mark.parametrize("gate_type", list(GateType))
def test_one_gate_netlist_matches_bool_gate(gate_type, rng):
    """A one-gate netlist per gate type agrees on both paths."""
    netlist = Netlist(
        name=f"single_{gate_type.name.lower()}",
        kind="test",
        input_words={"a": (0,), "b": (1,)},
        output_bits=(2,),
        gates=[
            Gate(gate_type)
            if gate_type in (GateType.CONST0, GateType.CONST1)
            else (Gate(gate_type, 0) if gate_type in (GateType.BUF, GateType.NOT)
                  else Gate(gate_type, 0, 1))
        ],
    )
    for patterns in (1, 65, 200):
        assert_backends_agree(netlist, random_input_bits(netlist, patterns, rng))


# --------------------------------------------------------------------- #
# Differential sweep: perturbed netlists x pattern counts
# --------------------------------------------------------------------- #
def test_differential_seeded_sweep():
    """>= 200 random netlist/pattern cases, bit-identical on both paths."""
    rng = np.random.default_rng(0xB17)
    bases = [
        ripple_carry_adder(3),
        ripple_carry_adder(5),
        array_multiplier(3),
        array_multiplier(4),
    ]
    pattern_counts = [1, 63, 64, 65, PLANE_WIDTH * 2, 197]
    cases = 0
    for base in bases:
        for seed in range(9):
            config = PerturbationConfig(num_mutations=1 + seed, locality=16)
            netlist = perturb_netlist(base, seed=seed, config=config)
            for patterns in pattern_counts:
                assert_backends_agree(netlist, random_input_bits(netlist, patterns, rng))
                cases += 1
    assert cases >= 200


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(min_value=2, max_value=4),
    kind=st.sampled_from(["adder", "multiplier"]),
    mutations=st.integers(min_value=0, max_value=10),
    perturb_seed=st.integers(min_value=0, max_value=2**31 - 1),
    patterns=st.integers(min_value=1, max_value=180),
    pattern_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_differential_hypothesis(width, kind, mutations, perturb_seed, patterns, pattern_seed):
    base = ripple_carry_adder(width) if kind == "adder" else array_multiplier(width)
    if mutations:
        config = PerturbationConfig(num_mutations=mutations, locality=24)
        netlist = perturb_netlist(base, seed=perturb_seed, config=config)
    else:
        netlist = base
    rng = np.random.default_rng(pattern_seed)
    assert_backends_agree(netlist, random_input_bits(netlist, patterns, rng))


def test_floating_operands_read_as_zero():
    """Gates with ``a``/``b`` == -1 see constant-0 inputs on both paths."""
    netlist = Netlist(
        name="floating",
        kind="test",
        input_words={"a": (0, 1)},
        # node ids: inputs 0-1, gates 2-6
        output_bits=(2, 3, 4, 5, 6),
        gates=[
            Gate(GateType.NOT, 0),         # regular unary (b floats by design)
            Gate(GateType.CONST1),         # both operands float
            Gate(GateType.AND, 0, -1),     # binary gate with floating b
            Gate(GateType.ORNOT, -1, 1),   # binary gate with floating a
            Gate(GateType.BUF, -1),        # unary gate with floating a
        ],
    )
    rng = np.random.default_rng(7)
    for patterns in (1, 64, 65, 130):
        bits = random_input_bits(netlist, patterns, rng)
        assert_backends_agree(netlist, bits)
        outputs = simulate_packed(netlist, bits)
        assert not outputs[:, 2].any()                                       # a AND 0 == 0
        assert np.array_equal(outputs[:, 3], np.logical_not(bits[:, 1]))     # 0 OR NOT b
        assert not outputs[:, 4].any()                                       # BUF of floating == 0


def test_node_values_hold_every_node(rng):
    """``node_values`` (the oracle's gate loop, shared with switching
    activity) returns the input columns, then one vector per gate; its
    output nodes are exactly what ``simulate_bits`` reports."""
    netlist = perturb_netlist(array_multiplier(4), seed=3)
    bits = random_input_bits(netlist, 97, rng)
    values = node_values(netlist, bits)
    assert len(values) == netlist.num_nodes
    for node in range(netlist.num_inputs):
        assert np.array_equal(values[node], bits[:, node])
    outputs = np.stack([values[bit] for bit in netlist.output_bits], axis=1)
    assert np.array_equal(outputs, simulate_bits(netlist, bits))


def test_simulate_planes_shape_validation(multiplier4):
    with pytest.raises(ValueError):
        simulate_planes(multiplier4, np.zeros((3, 2), dtype=np.uint64))


# --------------------------------------------------------------------- #
# Word-level and evaluator-level equivalence
# --------------------------------------------------------------------- #
def test_simulate_words_backends_agree(multiplier4, rng, on_each_path, oracle_words):
    operands = {
        "a": rng.integers(0, 16, size=321),
        "b": rng.integers(0, 16, size=321),
    }
    reference = oracle_words(multiplier4, operands)
    results = on_each_path(lambda: multiplier4.evaluate_words(operands))
    assert np.array_equal(results["tape"], reference)
    assert np.array_equal(results["oracle"], reference)


def test_error_evaluator_backends_bit_identical(multiplier4, on_each_path):
    circuit = perturb_netlist(multiplier4, seed=11)
    reports = on_each_path(lambda: ErrorEvaluator(multiplier4).evaluate(circuit))
    assert reports["tape"] == reports["oracle"]


def test_error_evaluator_monte_carlo_backends_bit_identical(on_each_path):
    reference = ripple_carry_adder(16)
    circuit = perturb_netlist(reference, seed=5)
    reports = on_each_path(
        lambda: ErrorEvaluator(
            reference, max_exhaustive_inputs=10, num_samples=2048
        ).evaluate(circuit)
    )
    assert reports["oracle"].method == "monte_carlo"
    assert reports["tape"] == reports["oracle"]


# --------------------------------------------------------------------- #
# Engine integration: the oracle and the tape share results and cache keys
# --------------------------------------------------------------------- #
def test_engine_results_and_cache_shared_across_backends(multiplier4, monkeypatch, oracle_route):
    circuits = [perturb_netlist(multiplier4, seed=s) for s in range(6)]
    cache = EvalCache()
    with monkeypatch.context() as patch:
        oracle_route(patch)
        oracle_reports = BatchEvaluator(multiplier4, cache=cache, mode="serial").evaluate_errors(
            circuits
        )

    before = cache.stats()
    served = BatchEvaluator(multiplier4, cache=cache, mode="serial").evaluate_errors(circuits)
    after = cache.stats()
    # Identical cache keys: the tape engine is served entirely from the
    # oracle engine's entries without re-simulating anything.
    assert after.hits - before.hits == len(circuits)
    assert after.misses == before.misses
    assert served == oracle_reports

    # And an uncached engine recomputes the exact same reports on the tape.
    fresh = BatchEvaluator(multiplier4, cache=EvalCache(), mode="serial")
    assert fresh.evaluate_errors(circuits) == oracle_reports


def test_process_pool_task_carries_the_pattern_budget(multiplier4):
    """Pool workers rebuild the error evaluator from its pickled constructor
    arguments; its sample count and seed must survive the trip (a dropped
    budget would evaluate 8,192 patterns instead of 200, a dropped seed
    another sample)."""
    circuits = [perturb_netlist(multiplier4, seed=s) for s in range(4)]

    def engine(mode):
        evaluator = ErrorEvaluator(multiplier4, max_exhaustive_inputs=0, num_samples=200, seed=7)
        return BatchEvaluator(error_evaluator=evaluator, mode=mode, max_workers=2)

    serial = engine("serial").evaluate_errors(circuits)
    assert {(r.method, r.num_patterns) for r in serial} == {("monte_carlo", 200)}
    other_seed = ErrorEvaluator(multiplier4, max_exhaustive_inputs=0, num_samples=200, seed=8)
    assert [other_seed.evaluate(c) for c in circuits] != serial
    assert engine("process").evaluate_errors(circuits) == serial


# --------------------------------------------------------------------- #
# Degenerate-netlist edge cases, differential across both paths
# --------------------------------------------------------------------- #
class TestDegenerateNetlists:
    """Both paths must agree on the shapes simulation rarely sees."""

    def test_wire_only_netlist(self, rng):
        """Zero gates: outputs wired straight to (repeated) input bits."""
        netlist = Netlist(
            name="wires",
            kind="test",
            input_words={"a": (0, 1), "b": (2,)},
            output_bits=(1, 0, 2, 1),  # permuted and repeated input nodes
            gates=[],
        )
        for patterns in (1, 64, 65, 200):
            bits = random_input_bits(netlist, patterns, rng)
            assert_backends_agree(netlist, bits)
            outputs = simulate_packed(netlist, bits)
            assert np.array_equal(outputs, bits[:, [1, 0, 2, 1]])

    def test_constant_only_gates(self, rng):
        netlist = Netlist(
            name="consts",
            kind="test",
            input_words={"a": (0,)},
            output_bits=(1, 2, 1),  # repeated constant outputs too
            gates=[Gate(GateType.CONST0), Gate(GateType.CONST1)],
        )
        for patterns in (1, 63, 130):
            bits = random_input_bits(netlist, patterns, rng)
            assert_backends_agree(netlist, bits)
            outputs = simulate_packed(netlist, bits)
            assert not outputs[:, 0].any()
            assert outputs[:, 1].all()
            assert not outputs[:, 2].any()

    def test_repeated_gate_output_bits(self, rng):
        netlist = Netlist(
            name="repeated",
            kind="test",
            input_words={"a": (0,), "b": (1,)},
            output_bits=(2, 2, 3, 2),
            gates=[Gate(GateType.XOR, 0, 1), Gate(GateType.NAND, 0, 1)],
        )
        for patterns in (1, 65, 200):
            bits = random_input_bits(netlist, patterns, rng)
            assert_backends_agree(netlist, bits)
            outputs = simulate_packed(netlist, bits)
            assert np.array_equal(outputs[:, 0], outputs[:, 1])
            assert np.array_equal(outputs[:, 0], outputs[:, 3])

    def test_width_one_words(self, rng):
        netlist = Netlist(
            name="bit_and",
            kind="test",
            input_words={"a": (0,), "b": (1,)},
            output_bits=(2,),
            gates=[Gate(GateType.AND, 0, 1)],
        )
        for patterns in (1, 64, 129):
            assert_backends_agree(netlist, random_input_bits(netlist, patterns, rng))
        words = simulate_words(netlist, {"a": [0, 1, 0, 1], "b": [0, 0, 1, 1]})
        assert words.tolist() == [0, 0, 0, 1]

    def test_exhaustive_operands_single_input_word(self, on_each_path):
        netlist = Netlist(
            name="parity3",
            kind="test",
            input_words={"a": (0, 1, 2)},
            output_bits=(4,),
            gates=[Gate(GateType.XOR, 0, 1), Gate(GateType.XOR, 3, 2)],
        )
        operands = exhaustive_operands(netlist)
        assert list(operands) == ["a"]
        assert np.array_equal(operands["a"], np.arange(8))
        expected = [bin(value).count("1") % 2 for value in range(8)]
        for words in on_each_path(lambda: netlist.evaluate_words(operands)).values():
            assert words.tolist() == expected


# --------------------------------------------------------------------- #
# Compiled-program unit tests (lowering, caching, pickling, fallback)
# --------------------------------------------------------------------- #
class TestCompiledProgram:
    def test_dead_node_elimination_and_folding(self):
        netlist = Netlist(
            name="foldable",
            kind="test",
            input_words={"a": (0,), "b": (1,)},
            # node ids: inputs 0-1; gates 2-7
            output_bits=(7,),
            gates=[
                Gate(GateType.AND, 0, 1),      # 2: dead (not in any output cone)
                Gate(GateType.CONST1),         # 3: folds to the constant slot
                Gate(GateType.AND, 0, 3),      # 4: AND with 1 -> alias of input 0
                Gate(GateType.NOT, 4),         # 5: free polarity flip
                Gate(GateType.XOR, 5, 5),      # 6: same-operand XOR -> constant 0
                Gate(GateType.OR, 6, 1),       # 7: OR with 0 -> alias of input 1
            ],
        )
        program = compile_netlist(netlist, use_cache=False)
        assert program.source_gates == 6
        assert program.live_gates == 5  # gate 2 eliminated
        assert program.num_ops == 0  # everything folded or aliased
        bits = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=bool)
        assert np.array_equal(run_packed(program.run, bits), bits[:, [1]])

    def test_inverting_gates_become_polarity_flags(self, multiplier4):
        """NAND/NOR/XNOR/NOT lower to non-inverting tape opcodes."""
        perturbed = perturb_netlist(multiplier4, seed=3)
        for netlist in (multiplier4, perturbed):
            program = compile_netlist(netlist, use_cache=False)
            assert program.num_ops <= program.live_gates
            assert program.tape.shape == (program.num_ops, 4)
            opcodes = set(program.tape[:, 0].tolist())
            assert opcodes <= {
                compiled_module.OP_AND,
                compiled_module.OP_OR,
                compiled_module.OP_XOR,
                compiled_module.OP_ANDNOT,
                compiled_module.OP_ORNOT,
            }

    def test_simulate_planes_compiles_once_per_fingerprint(self, multiplier4, rng, monkeypatch):
        """The packed entry point runs the cached program: repeated and
        structurally identical netlists reuse one compilation."""
        compiled_module.clear_program_cache()
        compiled = []
        compile_once = compiled_module._compile
        monkeypatch.setattr(
            compiled_module, "_compile", lambda n: compiled.append(n.name) or compile_once(n)
        )
        bits = random_input_bits(multiplier4, 130, rng)
        planes = pack_bits(bits.T)
        first = simulate_planes(multiplier4, planes)
        again = simulate_planes(array_multiplier(4), planes)
        assert compiled == [multiplier4.name]
        assert np.array_equal(again, first)
        assert np.array_equal(unpack_bits(first, 130).T, simulate_bits(multiplier4, bits))

    def test_program_cache_identity_and_eviction(self, multiplier4):
        compiled_module.clear_program_cache()
        first = compile_netlist(multiplier4)
        assert compile_netlist(multiplier4) is first
        # A structurally identical rebuild shares the fingerprint entry; a
        # perturbed variant gets its own.
        assert compile_netlist(array_multiplier(4)) is first
        assert compile_netlist(perturb_netlist(multiplier4, seed=9)) is not first
        assert compile_netlist(multiplier4) is first
        assert compile_netlist(multiplier4, use_cache=False) is not first
        compiled_module.clear_program_cache()
        assert compile_netlist(multiplier4) is not first

    def test_program_pickles_cleanly(self, multiplier4, rng):
        """Process pools may ship programs; results must survive the trip."""
        program = compile_netlist(multiplier4, use_cache=False)
        restored = pickle.loads(pickle.dumps(program))
        bits = random_input_bits(multiplier4, 197, rng)
        assert np.array_equal(run_packed(restored.run, bits), simulate_bits(multiplier4, bits))
        assert restored.fingerprint == program.fingerprint

    def test_native_run_builds_no_op_groups(self, multiplier4, rng, monkeypatch):
        """Only the NumPy executor reads the op groups, so a native run never
        builds them."""
        if not native_available():
            pytest.skip("the native tape executor is unavailable")

        def no_groups(program):
            raise AssertionError("a native run built the op groups")

        monkeypatch.setattr(compiled_module.CompiledProgram, "op_groups", no_groups)
        program = compile_netlist(perturb_netlist(multiplier4, seed=4), use_cache=False)
        bits = random_input_bits(multiplier4, 197, rng)
        assert np.array_equal(
            run_packed(program.run, bits), simulate_bits(perturb_netlist(multiplier4, seed=4), bits)
        )
        assert program._groups is None

    @pytest.mark.parametrize("pickled", ["before_groups", "after_groups"])
    def test_numpy_executor_runs_programs_pickled_around_their_groups(
        self, pickled, multiplier4, rng, monkeypatch
    ):
        """The NumPy executor builds the groups on its first run; a program
        pickled before that, or after, runs and matches the oracle."""
        monkeypatch.setattr(compiled_module, "run_tape_native", lambda *args: False)
        netlist = perturb_netlist(multiplier4, seed=2)
        program = compile_netlist(netlist, use_cache=False)
        bits = random_input_bits(netlist, 197, rng)
        if pickled == "after_groups":
            assert np.array_equal(run_packed(program.run, bits), simulate_bits(netlist, bits))
        restored = pickle.loads(pickle.dumps(program))
        assert (restored._groups is None) == (pickled == "before_groups")
        assert np.array_equal(run_packed(restored.run, bits), simulate_bits(netlist, bits))
        assert restored._groups is not None

    def test_numpy_fallback_matches_native(self, multiplier4, rng, monkeypatch):
        """The pure-NumPy executor is pinned against the bool oracle even
        when the native tape interpreter is available and in use."""
        monkeypatch.setattr(compiled_module, "run_tape_native", lambda *args: False)
        for seed in range(4):
            netlist = perturb_netlist(multiplier4, seed=seed)
            for patterns in (1, 64, 197):
                bits = random_input_bits(netlist, patterns, rng)
                assert np.array_equal(
                    simulate_packed(netlist, bits), simulate_bits(netlist, bits)
                )


# --------------------------------------------------------------------- #
# Whole flows do not depend on the simulation path
# --------------------------------------------------------------------- #
class TestWholeFlowBackendEquivalence:
    """Seeded session runs of both flows are bit-identical on the tape and
    with every simulation routed through the oracle."""

    def test_approxfpgas_bit_identical_across_backends(
        self, small_multiplier_library, on_each_path
    ):
        import json

        from repro.core import ApproxFpgasConfig
        from repro.io import result_to_dict

        config = ApproxFpgasConfig(
            training_fraction=0.25,
            min_training_circuits=12,
            num_pseudo_fronts=2,
            top_k_models=2,
            model_ids=["ML2", "ML14", "ML18"],
            seed=21,
        )

        def run():
            # Serial, so every simulation runs in this process, on the
            # path under test.
            session = ExplorationSession(seed=config.seed, engine_mode="serial")
            payload = result_to_dict(session.run_approxfpgas(small_multiplier_library, config))
            # Drop the wall-clock fields; everything else must match.
            for key in ("model_time_s", "approxfpgas_time_s", "speedup"):
                payload["exploration_cost"].pop(key)
            for evaluation in payload["model_evaluations"]:
                evaluation.pop("train_time_s")
            return json.dumps(payload, sort_keys=True)

        dumps = on_each_path(run)
        assert dumps["tape"] == dumps["oracle"]

    def test_autoax_bit_identical_across_backends(self, on_each_path):
        from repro.autoax import AutoAxConfig
        from repro.generators import build_adder_library, build_multiplier_library
        from repro.workloads import components_from_library

        multiplier_library = build_multiplier_library(8, size=20, seed=31)
        adder_library = build_adder_library(16, size=16, seed=37)
        config = AutoAxConfig(
            num_training_samples=10,
            num_random_baseline=8,
            hill_climb_iterations=25,
            image_size=24,
            seed=17,
        )

        def entries(items):
            return [(entry.config, entry.quality, entry.cost) for entry in items]

        def run():
            multipliers = components_from_library(
                multiplier_library,
                4,
                max_error=0.1,
                engine=BatchEvaluator(multiplier_library.reference(), mode="serial"),
            )
            adders = components_from_library(
                adder_library,
                4,
                max_error=0.05,
                engine=BatchEvaluator(adder_library.reference(), mode="serial"),
            )
            session = ExplorationSession(seed=config.seed, engine_mode="serial")
            result = session.run_autoax(multipliers, adders, config)
            return (
                {
                    parameter: (entries(scenario.candidates), entries(scenario.front))
                    for parameter, scenario in result.scenarios.items()
                },
                entries(result.baseline),
                result.design_space_size,
                result.training_size,
            )

        signatures = on_each_path(run)
        assert signatures["tape"] == signatures["oracle"]
