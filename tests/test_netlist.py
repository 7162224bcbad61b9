"""Unit tests for the Netlist IR and the NetlistBuilder."""

import numpy as np
import pytest

from repro.circuits import Gate, GateType, Netlist, NetlistBuilder, NetlistError
from repro.generators import ripple_carry_adder


def build_tiny_xor():
    builder = NetlistBuilder("tiny_xor", kind="adder")
    a = builder.add_input_word("a", 1)
    b = builder.add_input_word("b", 1)
    s = builder.xor(a[0], b[0])
    c = builder.and_(a[0], b[0])
    return builder.finish([s, c])


def test_builder_produces_valid_netlist():
    netlist = build_tiny_xor()
    netlist.validate()
    assert netlist.num_inputs == 2
    assert netlist.num_outputs == 2
    assert netlist.num_gates == 2


def test_builder_rejects_inputs_after_gates():
    builder = NetlistBuilder("bad", kind="adder")
    builder.add_input_word("a", 1)
    builder.const0()
    with pytest.raises(ValueError):
        builder.add_input_word("b", 1)


def test_builder_rejects_duplicate_word():
    builder = NetlistBuilder("bad", kind="adder")
    builder.add_input_word("a", 2)
    with pytest.raises(ValueError):
        builder.add_input_word("a", 2)


def test_builder_rejects_forward_reference():
    builder = NetlistBuilder("bad", kind="adder")
    a = builder.add_input_word("a", 1)
    with pytest.raises(ValueError):
        builder.add_gate(GateType.AND, a[0], 99)


def test_validate_detects_nontopological_gates():
    netlist = Netlist(
        name="broken",
        kind="adder",
        input_words={"a": (0,)},
        output_bits=(1,),
        gates=[Gate(GateType.AND, 0, 2), Gate(GateType.BUF, 0)],
    )
    with pytest.raises(NetlistError):
        netlist.validate()


def test_validate_detects_bad_output_reference():
    netlist = Netlist(
        name="broken",
        kind="adder",
        input_words={"a": (0,)},
        output_bits=(5,),
        gates=[],
    )
    with pytest.raises(NetlistError):
        netlist.validate()


def test_validate_detects_unassigned_inputs():
    netlist = Netlist(
        name="broken",
        kind="adder",
        input_words={"a": (0,)},
        output_bits=(0,),
        gates=[Gate(GateType.BUF, 1)],
    )
    # input node 1 exists implicitly (num_inputs counts word bits only), so the
    # gate references an out-of-range node.
    with pytest.raises(NetlistError):
        netlist.validate()


def test_depth_and_fanout():
    netlist = build_tiny_xor()
    assert netlist.depth() == 1
    fanouts = netlist.fanout_counts()
    # Each input feeds the XOR and the AND.
    assert fanouts[0] == 2
    assert fanouts[1] == 2


def test_const_cache_shared(adder8):
    builder = NetlistBuilder("consts", kind="adder")
    builder.add_input_word("a", 1)
    builder.add_input_word("b", 1)
    first = builder.const0()
    second = builder.const0()
    assert first == second


def test_half_and_full_adder_truth():
    builder = NetlistBuilder("fa", kind="adder")
    a = builder.add_input_word("a", 1)
    b = builder.add_input_word("b", 1)
    c = builder.add_input_word("c", 1)
    total, carry = builder.full_adder(a[0], b[0], c[0])
    netlist = builder.finish([total, carry])
    outputs = netlist.exhaustive_outputs()
    grid = np.array(np.meshgrid(np.arange(2), np.arange(2), np.arange(2), indexing="ij"))
    expected = grid.reshape(3, -1).sum(axis=0)
    assert np.array_equal(outputs, expected)


def test_mux_selects_correct_input():
    builder = NetlistBuilder("mux", kind="adder")
    s = builder.add_input_word("s", 1)
    x = builder.add_input_word("x", 1)
    y = builder.add_input_word("y", 1)
    out = builder.mux(s[0], x[0], y[0])
    netlist = builder.finish([out])
    values = netlist.evaluate_words({"s": [0, 0, 1, 1], "x": [0, 1, 0, 1], "y": [1, 0, 1, 0]})
    assert values.tolist() == [0, 1, 1, 0]


def test_pruned_removes_dead_logic_preserving_function(adder8):
    builder = NetlistBuilder("dead", kind="adder")
    a = builder.add_input_word("a", 2)
    b = builder.add_input_word("b", 2)
    live = builder.xor(a[0], b[0])
    builder.and_(a[1], b[1])  # dead gate
    netlist = builder.finish([live])
    pruned = netlist.pruned()
    assert pruned.num_gates < netlist.num_gates
    operands = {"a": np.arange(4), "b": np.arange(4)[::-1]}
    assert np.array_equal(netlist.evaluate_words(operands), pruned.evaluate_words(operands))


def test_copy_preserves_function_and_applies_metadata(multiplier4):
    duplicate = multiplier4.copy(name="other", meta={"tag": 1})
    assert duplicate.name == "other"
    assert duplicate.meta["tag"] == 1
    operands = {"a": np.arange(16), "b": np.arange(16)}
    assert np.array_equal(multiplier4.evaluate_words(operands), duplicate.evaluate_words(operands))


def test_gate_of_node_and_is_input(multiplier4):
    assert multiplier4.is_input_node(0)
    with pytest.raises(NetlistError):
        multiplier4.gate_of_node(0)
    gate = multiplier4.gate_of_node(multiplier4.num_inputs)
    assert isinstance(gate, Gate)


def test_live_gate_count_not_larger_than_total(multiplier8):
    assert 0 < multiplier8.live_gate_count() <= multiplier8.num_gates


@pytest.mark.parametrize("root", [-1, -29, 29, 1000])
def test_transitive_fanin_rejects_out_of_range_roots(root):
    # A negative root must not wrap around to the last node (for ``[-1]`` on
    # this 29-node adder: node 28 marked, its fan-in never followed), and a
    # root >= num_nodes must not escape as a bare IndexError.
    adder = ripple_carry_adder(4)
    assert adder.num_nodes == 29
    with pytest.raises(NetlistError, match="outside the node range"):
        adder.transitive_fanin([root])
    with pytest.raises(NetlistError):
        adder.transitive_fanin([0, root])


def test_transitive_fanin_checks_output_bits_too():
    netlist = build_tiny_xor()
    netlist.output_bits = (2, netlist.num_nodes)
    with pytest.raises(NetlistError, match="outside the node range"):
        netlist.transitive_fanin()
    with pytest.raises(NetlistError):
        netlist.live_gate_count()

