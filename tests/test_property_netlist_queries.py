"""Property tests: the linear-sweep graph queries equal a naive reference.

``Netlist.transitive_fanin``, ``fanout_counts``, ``node_depths``,
``live_gate_count``, ``depth`` and :func:`repro.circuits.structural_metrics`
are single passes over the topologically ordered gates.  This suite checks
them against straightforward DFS / per-node loops over ``Gate.operands()``
-- kept here, in the test file only -- on random netlists that include
constant gates (with and without stray operands), unary gates carrying a
stray ``b`` operand, repeated output bits, wire-only netlists and explicit
fan-in roots.

The default-root live mask and the structural summary are memoised on the
netlist, so the last block checks the memo itself: repeated calls, explicit
roots after a default-root call, read-only results, unmemoised copies and
pickle round trips all still match the naive references.
"""

from __future__ import annotations

import pickle
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuits import GATE_ARITY, Gate, GateType, Netlist, structural_metrics
from repro.circuits.metrics import StructuralMetrics, gate_type_counts


# --------------------------------------------------------------------- #
# Naive references
# --------------------------------------------------------------------- #
def naive_fanin(netlist: Netlist, roots: Optional[Sequence[int]] = None) -> np.ndarray:
    mask = np.zeros(netlist.num_nodes, dtype=bool)
    stack = list(netlist.output_bits if roots is None else roots)
    while stack:
        node = stack.pop()
        if mask[node]:
            continue
        mask[node] = True
        if node >= netlist.num_inputs:
            stack.extend(netlist.gates[node - netlist.num_inputs].operands())
    return mask


def naive_fanout(netlist: Netlist) -> np.ndarray:
    counts = np.zeros(netlist.num_nodes, dtype=np.int64)
    for gate in netlist.gates:
        for operand in gate.operands():
            counts[operand] += 1
    for bit in netlist.output_bits:
        counts[bit] += 1
    return counts


def naive_depths(netlist: Netlist) -> np.ndarray:
    depths = np.zeros(netlist.num_nodes, dtype=np.int64)
    for index, gate in enumerate(netlist.gates):
        operands = gate.operands()
        if operands:
            depths[netlist.num_inputs + index] = 1 + max(int(depths[o]) for o in operands)
    return depths


def naive_depth(netlist: Netlist) -> int:
    depths = naive_depths(netlist)
    return max((int(depths[bit]) for bit in netlist.output_bits), default=0)


def naive_metrics(netlist: Netlist) -> StructuralMetrics:
    fanouts = naive_fanout(netlist)
    live = naive_fanin(netlist)
    live_fanouts = fanouts[live] if live.any() else np.zeros(1)
    counts = {gate_type.name: 0 for gate_type in GateType}
    for index, gate in enumerate(netlist.gates):
        if live[netlist.num_inputs + index]:
            counts[gate.gate_type.name] += 1
    constant_outputs = passthrough_outputs = 0
    for bit in netlist.output_bits:
        if netlist.is_input_node(bit):
            passthrough_outputs += 1
            continue
        gate = netlist.gate_of_node(bit)
        if gate.gate_type in (GateType.CONST0, GateType.CONST1):
            constant_outputs += 1
        elif gate.gate_type == GateType.BUF and netlist.is_input_node(gate.a):
            passthrough_outputs += 1
    return StructuralMetrics(
        num_inputs=netlist.num_inputs,
        num_outputs=netlist.num_outputs,
        num_gates=netlist.num_gates,
        live_gates=int(live[netlist.num_inputs:].sum()),
        depth=naive_depth(netlist),
        gate_counts=counts,
        max_fanout=int(fanouts.max()) if fanouts.size else 0,
        mean_fanout=float(live_fanouts.mean()) if live_fanouts.size else 0.0,
        constant_outputs=constant_outputs,
        passthrough_outputs=passthrough_outputs,
    )


# --------------------------------------------------------------------- #
# Random netlists
# --------------------------------------------------------------------- #
@st.composite
def netlists(draw, max_gates: int = 40) -> Netlist:
    widths = draw(st.lists(st.integers(1, 4), max_size=3), label="word widths")
    input_words: Dict[str, Tuple[int, ...]] = {}
    next_id = 0
    for index, width in enumerate(widths):
        input_words[f"w{index}"] = tuple(range(next_id, next_id + width))
        next_id += width
    num_inputs = next_id

    gates: List[Gate] = []
    for _ in range(draw(st.integers(0, max_gates), label="gates")):
        node_id = num_inputs + len(gates)
        gate_types = list(GateType) if node_id else [GateType.CONST0, GateType.CONST1]
        gate_type = draw(st.sampled_from(gate_types))
        arity = GATE_ARITY[gate_type]
        defined = st.integers(0, node_id - 1) if node_id else st.just(-1)
        # Operands a gate does not read are -1 or a stray in-range id.
        stray = st.one_of(st.just(-1), defined)
        a = draw(defined if arity >= 1 else stray)
        b = draw(defined if arity == 2 else stray)
        gates.append(Gate(gate_type, a, b))

    num_nodes = num_inputs + len(gates)
    if num_nodes:
        output_bits = draw(st.lists(st.integers(0, num_nodes - 1), max_size=8), label="outputs")
    else:
        output_bits = []
    netlist = Netlist(
        name="random",
        kind="test",
        input_words=input_words,
        output_bits=tuple(output_bits),
        gates=gates,
    )
    netlist.validate()
    return netlist


def _netlist(widths, gates, outputs) -> Netlist:
    input_words, next_id = {}, 0
    for index, width in enumerate(widths):
        input_words[f"w{index}"] = tuple(range(next_id, next_id + width))
        next_id += width
    return Netlist("example", "test", input_words, tuple(outputs), list(gates))


#: Wire-only: outputs are primary inputs (one repeated), no gates at all.
WIRE_ONLY = _netlist([2, 2], [], [3, 0, 3])
#: Constant gates (one with stray operands), unary gates with a stray ``b``,
#: repeated outputs and a dead gate.
DEGENERATE = _netlist(
    [2],
    [
        Gate(GateType.CONST1, 0, 1),   # node 2: constant, stray a and b
        Gate(GateType.NOT, 0, 2),      # node 3: unary, stray b -> node 2
        Gate(GateType.BUF, 1, 3),      # node 4: unary, stray b -> node 3
        Gate(GateType.AND, 3, 4),      # node 5
        Gate(GateType.XOR, 0, 1),      # node 6: dead
        Gate(GateType.CONST0),         # node 7
    ],
    [5, 5, 2, 7, 4],
)
#: No inputs, no gates, no outputs.
EMPTY = _netlist([], [], [])


def assert_same_array(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


# --------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------- #
@settings(max_examples=150, deadline=None)
@given(netlist=netlists())
@example(netlist=WIRE_ONLY)
@example(netlist=DEGENERATE)
@example(netlist=EMPTY)
def test_graph_queries_match_naive_reference(netlist):
    assert_same_array(netlist.transitive_fanin(), naive_fanin(netlist))
    assert_same_array(netlist.fanout_counts(), naive_fanout(netlist))
    assert_same_array(netlist.node_depths(), naive_depths(netlist))
    assert netlist.depth() == naive_depth(netlist)
    assert netlist.live_gate_count() == int(naive_fanin(netlist)[netlist.num_inputs:].sum())


@settings(max_examples=150, deadline=None)
@given(netlist=netlists())
@example(netlist=WIRE_ONLY)
@example(netlist=DEGENERATE)
@example(netlist=EMPTY)
def test_structural_metrics_match_naive_reference(netlist):
    metrics = structural_metrics(netlist)
    expected = naive_metrics(netlist)
    assert metrics == expected
    assert list(metrics.gate_counts) == list(expected.gate_counts)
    assert gate_type_counts(netlist, live_only=True) == expected.gate_counts
    everything = {gate_type.name: 0 for gate_type in GateType}
    for gate in netlist.gates:
        everything[gate.gate_type.name] += 1
    assert gate_type_counts(netlist, live_only=False) == everything


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_explicit_roots_match_naive_reference(data):
    netlist = data.draw(netlists(), label="netlist")
    if netlist.num_nodes:
        node = st.integers(0, netlist.num_nodes - 1)
        roots = data.draw(st.lists(node, max_size=6), label="roots")
    else:
        roots = []
    assert_same_array(netlist.transitive_fanin(roots), naive_fanin(netlist, roots))
    # Any iterable of integers works, including a NumPy array and a generator.
    assert_same_array(
        netlist.transitive_fanin(np.asarray(roots, dtype=np.int64)), naive_fanin(netlist, roots)
    )
    assert_same_array(netlist.transitive_fanin(iter(roots)), naive_fanin(netlist, roots))


@settings(max_examples=75, deadline=None)
@given(netlist=netlists())
@example(netlist=DEGENERATE)
def test_pruned_keeps_exactly_the_live_gates(netlist):
    pruned = netlist.pruned()
    pruned.validate()
    assert pruned.num_gates == netlist.live_gate_count()
    assert pruned.live_gate_count() == pruned.num_gates
    assert pruned.depth() == netlist.depth()
    assert structural_metrics(pruned).gate_counts == structural_metrics(netlist).gate_counts


# --------------------------------------------------------------------- #
# The memo: live mask and structural summary, derived once per netlist
# --------------------------------------------------------------------- #
def grow(netlist: Netlist) -> None:
    """Change ``netlist`` in place: one more gate, a constant driving a new output."""
    netlist.gates.append(Gate(GateType.CONST1))
    netlist.output_bits = netlist.output_bits + (netlist.num_nodes - 1,)


@settings(max_examples=100, deadline=None)
@given(netlist=netlists())
@example(netlist=WIRE_ONLY)
@example(netlist=DEGENERATE)
@example(netlist=EMPTY)
def test_memoised_queries_match_naive_reference_on_every_call(netlist):
    live = naive_fanin(netlist)
    expected = naive_metrics(netlist)
    for _ in range(2):
        assert_same_array(netlist.transitive_fanin(), live)
        assert netlist.live_gate_count() == expected.live_gates
        assert gate_type_counts(netlist) == expected.gate_counts
        assert structural_metrics(netlist) == expected
        pruned = netlist.pruned()
        assert pruned.num_gates == expected.live_gates
        assert structural_metrics(pruned).gate_counts == expected.gate_counts


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_explicit_roots_sweep_after_a_default_root_call(data):
    netlist = data.draw(netlists(), label="netlist")
    if netlist.num_nodes:
        node = st.integers(0, netlist.num_nodes - 1)
        roots = data.draw(st.lists(node, max_size=6), label="roots")
    else:
        roots = []
    netlist.transitive_fanin()
    structural_metrics(netlist)
    assert_same_array(netlist.transitive_fanin(roots), naive_fanin(netlist, roots))
    # Explicit roots equal to the outputs still get a fresh, writeable mask.
    outputs = netlist.transitive_fanin(netlist.output_bits)
    assert outputs.flags.writeable
    assert_same_array(outputs, naive_fanin(netlist))


@settings(max_examples=50, deadline=None)
@given(netlist=netlists())
@example(netlist=DEGENERATE)
@example(netlist=EMPTY)
def test_callers_cannot_write_into_the_memo(netlist):
    mask = netlist.transitive_fanin()
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask.flags.writeable = True
    # Writing into what a query returned leaves the next query unchanged.
    netlist.transitive_fanin(netlist.output_bits)[:] = True
    structural_metrics(netlist).gate_counts.clear()
    gate_type_counts(netlist).clear()
    expected = naive_metrics(netlist)
    assert_same_array(netlist.transitive_fanin(), naive_fanin(netlist))
    assert structural_metrics(netlist) == expected
    assert gate_type_counts(netlist) == expected.gate_counts


@settings(max_examples=75, deadline=None)
@given(netlist=netlists())
@example(netlist=WIRE_ONLY)
@example(netlist=DEGENERATE)
@example(netlist=EMPTY)
def test_copies_start_unmemoised(netlist):
    mask = netlist.transitive_fanin().copy()
    metrics = structural_metrics(netlist)
    for derived in (netlist.copy(), netlist.pruned()):
        grow(derived)  # changed before its first query
        expected = naive_metrics(derived)
        assert_same_array(derived.transitive_fanin(), naive_fanin(derived))
        assert derived.live_gate_count() == expected.live_gates
        assert structural_metrics(derived) == expected
    assert_same_array(netlist.transitive_fanin(), mask)
    assert structural_metrics(netlist) == metrics


@settings(max_examples=50, deadline=None)
@given(netlist=netlists())
@example(netlist=DEGENERATE)
@example(netlist=EMPTY)
def test_pickle_round_trip_keeps_results_and_a_read_only_memo(netlist):
    expected = naive_metrics(netlist)
    netlist.fingerprint()
    structural_metrics(netlist)  # memoised before pickling
    clone = pickle.loads(pickle.dumps(netlist))
    assert clone == netlist
    assert clone.fingerprint() == netlist.fingerprint()
    for _ in range(2):
        mask = clone.transitive_fanin()
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask.flags.writeable = True
        assert_same_array(mask, naive_fanin(netlist))
        assert clone.live_gate_count() == expected.live_gates
        structural_metrics(clone).gate_counts.clear()
        assert structural_metrics(clone) == expected
