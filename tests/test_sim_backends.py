"""Differential tests of the two simulation paths (``-m sim_backends``).

Below :data:`repro.circuits.simulate.PACKED_MIN_PATTERNS` patterns
simulation runs :func:`~repro.circuits.simulate_bits`, the ``bool``
oracle; from there up it runs :func:`~repro.circuits.simulate_planes`, the
netlist's compiled op tape over packed bit planes.  The two must be
*bit-identical* on every netlist and every pattern count -- caches and flows
rely on it (no engine cache key names the path).  This suite checks the
contract several ways:

* every gate type in every operand polarity through the compiler's truth
  masks, against the boolean truth tables;
* a seeded differential sweep over hundreds of randomly perturbed netlists
  and pattern counts (including non-multiples of 64 and floating
  ``gate.a/b == -1`` operands);
* hypothesis-driven random netlist/pattern generation on top;
* degenerate-netlist edge cases (wire-only, constant-only, repeated output
  bits, width-1 words) that both paths -- and both executors of the packed
  path (native and NumPy fallback) -- must agree on;
* evaluators, the engine and both whole flows, each run once forced onto
  each path by patching ``PACKED_MIN_PATTERNS``;
* the rule itself: which path each entry point (``simulate_words``, lookup
  tables, the batch evaluator) takes at the threshold, that an evaluator
  keeps the form its operands were expanded in, and that the retired
  ``sim_backend`` keyword is rejected.
"""

from __future__ import annotations

import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExplorationSession
from repro.circuits import (
    PLANE_WIDTH,
    Gate,
    GateType,
    Netlist,
    bits_to_words,
    compile_netlist,
    exhaustive_operands,
    num_planes,
    pack_bits,
    random_operands,
    simulate_bits,
    simulate_planes,
    simulate_words,
    unpack_bits,
)
from repro.circuits import compiled as compiled_module
from repro.circuits import simulate as simulate_module
from repro.circuits.gates import GATE_FUNCTIONS
from repro.circuits.simulate import expand_operand_bits, node_values, use_packed_path
from repro.engine import BatchEvaluator, EvalCache
from repro.error import ErrorEvaluator, evaluate_error
from repro.generators import array_multiplier, perturb_netlist, ripple_carry_adder
from repro.generators.perturbation import PerturbationConfig

pytestmark = pytest.mark.sim_backends

#: ``PACKED_MIN_PATTERNS`` values that force every simulation onto one path.
FORCED_PATHS = {"packed": 1, "bool": 2**62}


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
def on_each_path(monkeypatch):
    """Call ``run()`` forced onto each path; returns ``{path: result}``."""

    def run_each(run):
        results = {}
        for path, threshold in FORCED_PATHS.items():
            monkeypatch.setattr(simulate_module, "PACKED_MIN_PATTERNS", threshold)
            results[path] = run()
        return results

    return run_each


@pytest.fixture
def packed_calls(monkeypatch):
    """Spy on the packed entry point; returns ``(netlist name, planes)`` per call."""
    calls = []

    def spy(netlist, planes):
        calls.append((netlist.name, planes.shape[1]))
        return simulate_planes(netlist, planes)

    monkeypatch.setattr(simulate_module, "simulate_planes", spy)
    return calls


# --------------------------------------------------------------------- #
# Path selection
# --------------------------------------------------------------------- #
def test_use_packed_path_rule(monkeypatch):
    """Packed from ``PACKED_MIN_PATTERNS`` patterns up, bool below; the
    constant is read at call time, so patching it moves the boundary."""
    threshold = simulate_module.PACKED_MIN_PATTERNS
    assert threshold == 4096
    counts = (0, 1, threshold - 1, threshold, 2**20)
    assert [use_packed_path(p) for p in counts] == [False, False, False, True, True]
    monkeypatch.setattr(simulate_module, "PACKED_MIN_PATTERNS", 100)
    assert [use_packed_path(p) for p in (1, 99, 100, threshold - 1)] == [
        False, False, True, True
    ]


def test_packed_path_from_packed_min_patterns(multiplier4, packed_calls, monkeypatch):
    """``simulate_words`` and the batch evaluator take the packed path at
    ``PACKED_MIN_PATTERNS`` patterns and the bool path one pattern below.

    Both read the threshold at call time, which the forced-path tests below
    rely on: checked at its real value and at a patched one.
    """
    circuit = perturb_netlist(multiplier4, seed=11)
    rng = np.random.default_rng(5)
    for threshold in (simulate_module.PACKED_MIN_PATTERNS, 100):
        monkeypatch.setattr(simulate_module, "PACKED_MIN_PATTERNS", threshold)
        for patterns in (threshold - 1, threshold):
            expected = [circuit.name] if patterns >= threshold else []
            evaluator = ErrorEvaluator(multiplier4, max_exhaustive_inputs=0, num_samples=patterns)
            engine = BatchEvaluator(error_evaluator=evaluator, mode="serial")
            packed_calls.clear()
            engine.evaluate_errors([circuit])
            assert [name for name, _ in packed_calls] == expected, (threshold, patterns)
            packed_calls.clear()
            simulate_words(circuit, random_operands(circuit, patterns, rng))
            assert [name for name, _ in packed_calls] == expected, (threshold, patterns)


def test_component_lookup_tables_take_the_packed_path(multiplier4, multiplier8, packed_calls):
    """At the real threshold, ``Netlist.exhaustive_outputs`` runs an 8x8
    multiplier's 65,536 patterns packed and a 4x4's 256 patterns on bool."""
    table = multiplier8.exhaustive_outputs()
    assert packed_calls == [(multiplier8.name, num_planes(1 << 16))]
    a, b = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    assert np.array_equal(table, (a * b).reshape(-1))

    packed_calls.clear()
    small = multiplier4.exhaustive_outputs()
    assert packed_calls == []
    a, b = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
    assert np.array_equal(small, (a * b).reshape(-1))


def test_operand_memo_keeps_the_form_it_was_expanded_in(multiplier4, packed_calls, monkeypatch):
    """An evaluator's expanded operands record their path, and the memo is
    keyed by input layout alone: moving the threshold under a live
    evaluator neither re-expands its operands nor moves it off the bool
    path."""
    circuit = perturb_netlist(multiplier4, seed=11)
    evaluator = ErrorEvaluator(multiplier4)  # 256 patterns: the bool path
    on_bool = evaluator.evaluate(circuit)
    assert packed_calls == []

    expanded = []

    def spy(netlist, operands):
        expanded.append(netlist.name)
        return expand_operand_bits(netlist, operands)

    monkeypatch.setattr(simulate_module, "expand_operand_bits", spy)
    monkeypatch.setattr(simulate_module, "PACKED_MIN_PATTERNS", 100)
    assert evaluator.evaluate(circuit) == on_bool
    assert expanded == [] and packed_calls == []


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
def test_simulate_words_backends_agree(multiplier4, rng, on_each_path):
    operands = {
        "a": rng.integers(0, 16, size=321),
        "b": rng.integers(0, 16, size=321),
    }
    reference = bits_to_words(
        simulate_bits(multiplier4, expand_operand_bits(multiplier4, operands))
    )
    results = on_each_path(lambda: simulate_words(multiplier4, operands))
    assert np.array_equal(results["packed"], reference)
    assert np.array_equal(results["bool"], reference)


def test_error_evaluator_backends_bit_identical(multiplier4, on_each_path):
    circuit = perturb_netlist(multiplier4, seed=11)
    reports = on_each_path(lambda: ErrorEvaluator(multiplier4).evaluate(circuit))
    assert reports["packed"] == reports["bool"]


def test_error_evaluator_monte_carlo_backends_bit_identical(on_each_path):
    reference = ripple_carry_adder(16)
    circuit = perturb_netlist(reference, seed=5)
    reports = on_each_path(
        lambda: ErrorEvaluator(
            reference, max_exhaustive_inputs=10, num_samples=2048
        ).evaluate(circuit)
    )
    assert reports["bool"].method == "monte_carlo"
    assert reports["packed"] == reports["bool"]


# --------------------------------------------------------------------- #
# Engine integration: the path changes neither results nor cache keys
# --------------------------------------------------------------------- #
def test_engine_results_and_cache_shared_across_backends(multiplier4, monkeypatch):
    circuits = [perturb_netlist(multiplier4, seed=s) for s in range(6)]
    cache = EvalCache()
    monkeypatch.setattr(simulate_module, "PACKED_MIN_PATTERNS", FORCED_PATHS["bool"])
    bool_reports = BatchEvaluator(multiplier4, cache=cache, mode="serial").evaluate_errors(
        circuits
    )

    monkeypatch.setattr(simulate_module, "PACKED_MIN_PATTERNS", FORCED_PATHS["packed"])
    before = cache.stats()
    served = BatchEvaluator(multiplier4, cache=cache, mode="serial").evaluate_errors(circuits)
    after = cache.stats()
    # Identical cache keys: the packed-path engine is served entirely from
    # the bool-path engine's entries without re-simulating anything.
    assert after.hits - before.hits == len(circuits)
    assert after.misses == before.misses
    assert served == bool_reports

    # And an uncached packed-path engine recomputes the exact same reports.
    fresh = BatchEvaluator(multiplier4, cache=EvalCache(), mode="serial")
    assert fresh.evaluate_errors(circuits) == bool_reports


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
        for words in on_each_path(lambda: simulate_words(netlist, operands)).values():
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
    """Seeded session runs of both flows are bit-identical when every
    simulation is forced onto the packed path and onto the bool path."""

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
            # forced path.
            session = ExplorationSession(seed=config.seed, engine_mode="serial")
            payload = result_to_dict(session.run_approxfpgas(small_multiplier_library, config))
            # Drop the wall-clock fields; everything else must match.
            for key in ("model_time_s", "approxfpgas_time_s", "speedup"):
                payload["exploration_cost"].pop(key)
            for evaluation in payload["model_evaluations"]:
                evaluation.pop("train_time_s")
            return json.dumps(payload, sort_keys=True)

        dumps = on_each_path(run)
        assert dumps["packed"] == dumps["bool"]

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
        assert signatures["packed"] == signatures["bool"]
