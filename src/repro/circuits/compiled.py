"""Compiled netlists: lower once into a levelized op tape.

Packing patterns into bit planes (:mod:`repro.circuits.bitplane`) removes
the per-pattern cost of simulation; a gate-by-gate interpreter over the
planes would still pay per-*gate* Python dispatch, one interpreter
round-trip plus one or two NumPy calls per gate per simulation.  This
module removes most of that too, with the classic
compile-once/simulate-many restructuring:

:func:`compile_netlist` lowers a :class:`~repro.circuits.netlist.Netlist`
into a :class:`CompiledProgram` -- a flat op tape held in contiguous
integer arrays ``(opcode, operand-a, operand-b, destination)`` that
executes over whole packed bit-plane matrices.  Compilation performs

* **dead-node elimination** -- only gates in the
  :meth:`~repro.circuits.netlist.Netlist.transitive_fanin` of the outputs
  are lowered;
* **constant folding** -- ``CONST0``/``CONST1`` gates, gates fed by folded
  constants (and by floating ``-1`` operands, which read as constant 0) and
  same-operand identities (``AND(x, x)``, ``XOR(x, x)``, ...) collapse to
  one of two preloaded constant slots or a zero-cost alias;
* **polarity canonicalization** -- every node is stored in the polarity its
  producing op computes naturally and inversions ride on compile-time
  edge flags: ``NOT``/``BUF`` become free aliases, ``NAND``/``NOR``/
  ``XNOR`` lower to ``AND``/``OR``/``XOR`` with an inverted-output flag,
  and inverted *inputs* are folded into the consuming gate's truth table,
  so the tape contains no inverter ops at all (inverted primary outputs
  are fixed up by one vectorised XOR against a per-output mask);
* **levelized batching** -- a ready-list scheduler groups mutually
  independent same-opcode ops into one fused tape step each, with
  *contiguous destination slots per group*, so execution runs one short
  NumPy call sequence per group (a single combined operand gather plus the
  bitwise kernel into the destination slice) instead of one dispatch per
  gate.  Operand gathers that form contiguous slot ranges degrade to
  zero-copy slices.

The tape runs on the native executor (:mod:`repro.circuits._native`)
where it could be built, and otherwise on the NumPy executor, which alone
reads the :class:`OpGroup` list; :meth:`CompiledProgram.op_groups` builds
it from the stored group bounds on the first NumPy run, so a native run
never pays for it.

Programs are cached per structural fingerprint (:data:`PROGRAM_CACHE_SIZE`
entries, LRU) so repeated simulations of the same circuit -- Monte-Carlo
inner loops, datapath passes, warm engine passes -- pay compilation
exactly once per process.  A :class:`CompiledProgram` contains only plain
integers and NumPy arrays (with or without its groups built), so it
pickles cleanly across process pools; workers that receive only the
netlist rebuild the program through the same per-process cache.

:func:`repro.circuits.bitplane.simulate_planes` is the one simulation
entry point that runs these programs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ._native import TILE, run_tape_native
from .gates import GATE_ARITY, GateType, gate_truth_table
from .netlist import Netlist

__all__ = [
    "CompiledProgram",
    "OpGroup",
    "PROGRAM_CACHE_SIZE",
    "compile_netlist",
    "clear_program_cache",
]

#: Compiled programs kept per process, keyed by structural fingerprint (LRU).
PROGRAM_CACHE_SIZE = 256

#: All-ones ``uint64`` lane: constant 1 on 64 packed patterns.
PLANE_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: 4-entry truth table per gate type as a bit mask over (a, b) =
#: (00, 01, 10, 11).  Unary and constant gates are broadcast over their
#: unused operands, which read as constant 0 (exactly the floating-operand
#: semantics of :func:`~repro.circuits.simulate.simulate_bits`), so
#: lowering treats every gate type uniformly as a two-input truth table.
_TRUTH_MASKS: Dict[GateType, int] = {
    gate_type: sum(int(bool(v)) << i for i, v in enumerate(gate_truth_table(gate_type)))
    for gate_type in GateType
}

# Tape opcodes (deliberately decoupled from GateType: after polarity
# canonicalization only non-inverting kernels survive).
OP_AND = 0
OP_OR = 1
OP_XOR = 2
OP_ANDNOT = 3  # a AND (NOT b)
OP_ORNOT = 4   # a OR (NOT b)

#: Canonical lowering of every non-degenerate two-input truth mask:
#: mask -> (opcode, swap_operands, invert_output).  Masks index bits as
#: 1 << (2*a + b).  Degenerate masks (constants, single-operand functions)
#: never reach this table -- folding handles them first.
_MASK_TO_OP: Dict[int, Tuple[int, bool, bool]] = {
    0b1000: (OP_AND, False, False),    # a AND b
    0b0111: (OP_AND, False, True),     # NAND
    0b1110: (OP_OR, False, False),     # a OR b
    0b0001: (OP_OR, False, True),      # NOR
    0b0110: (OP_XOR, False, False),    # a XOR b
    0b1001: (OP_XOR, False, True),     # XNOR
    0b0100: (OP_ANDNOT, False, False),  # a AND NOT b
    0b1011: (OP_ANDNOT, False, True),   # NOT a OR b == NOT(a AND NOT b)
    0b0010: (OP_ANDNOT, True, False),   # NOT a AND b
    0b1101: (OP_ANDNOT, True, True),    # a OR NOT b == NOT(NOT a AND b)
}


# --------------------------------------------------------------------- #
# Grouped execution kernels.  One entry per tape opcode; every kernel
# writes into ``out`` (the group's contiguous destination slice) and never
# mutates ``a``/``b``, so zero-copy operand slices are always safe.  The
# differential suite pins the whole pipeline against
# ``gates.GATE_FUNCTIONS``.
# --------------------------------------------------------------------- #
def _k_and(a, b, out):
    np.bitwise_and(a, b, out=out)


def _k_or(a, b, out):
    np.bitwise_or(a, b, out=out)


def _k_xor(a, b, out):
    np.bitwise_xor(a, b, out=out)


def _k_andnot(a, b, out):
    np.bitwise_not(b, out=out)
    np.bitwise_and(a, out, out=out)


def _k_ornot(a, b, out):
    np.bitwise_not(b, out=out)
    np.bitwise_or(a, out, out=out)


_KERNELS: Dict[int, Callable[[np.ndarray, np.ndarray, np.ndarray], None]] = {
    OP_AND: _k_and,
    OP_OR: _k_or,
    OP_XOR: _k_xor,
    OP_ANDNOT: _k_andnot,
    OP_ORNOT: _k_ornot,
}


@dataclass(frozen=True)
class OpGroup:
    """One fused tape step: a batch of mutually independent same-opcode ops.

    Destinations are the contiguous slot range ``[dest_start, dest_stop)``
    by construction.  Operands are gathered with one combined ``take`` of
    the ``a`` rows followed by the ``b`` rows (``ab_index``), or -- when
    the combined gather happens to be a contiguous slot range -- with a
    zero-copy ``(start, stop)`` slice (``ab_slice``).
    """

    opcode: int
    dest_start: int
    dest_stop: int
    ab_index: Optional[np.ndarray]
    ab_slice: Optional[Tuple[int, int]]

    @property
    def size(self) -> int:
        return self.dest_stop - self.dest_start


@dataclass
class CompiledProgram:
    """A netlist lowered to a flat, levelized op tape over value slots.

    Slots ``0 .. num_inputs-1`` mirror the primary inputs,
    ``zero_slot``/``one_slot`` hold the preloaded constants, and every tape
    group (a ``group_bounds`` entry: opcode and the tape rows ``[start,
    stop)`` it fuses) writes the contiguous slot range it owns.
    ``out_index`` gathers the output rows and ``out_invert`` marks outputs
    stored in inverted polarity (fixed up by one vectorised XOR).  The
    program holds only integers and NumPy arrays, so it pickles cleanly
    into process-pool workers.
    """

    fingerprint: str
    num_inputs: int
    num_slots: int
    zero_slot: int
    one_slot: int
    tape: np.ndarray  # (num_ops, 4) int32 rows: opcode, a, b, dest
    group_bounds: Tuple[Tuple[int, int, int], ...]  # (opcode, start, stop)
    out_index: np.ndarray
    out_invert: np.ndarray  # (num_outputs,) uint64 polarity masks (0 or ~0)
    num_outputs: int
    source_gates: int
    live_gates: int
    num_ops: int
    num_levels: int
    _groups: Optional[List[OpGroup]] = field(default=None, repr=False, compare=False)

    def op_groups(self) -> List[OpGroup]:
        """The NumPy executor's fused steps, built on first use and kept."""
        if self._groups is None:
            first_op_slot = self.one_slot + 1
            groups = []
            for opcode, start, stop in self.group_bounds:
                ab = np.concatenate((self.tape[start:stop, 1], self.tape[start:stop, 2]))
                if np.array_equal(ab, np.arange(ab[0], ab[0] + ab.size)):
                    ab_index, ab_slice = None, (int(ab[0]), int(ab[0]) + int(ab.size))
                else:
                    ab_index, ab_slice = ab.astype(np.intp), None
                groups.append(
                    OpGroup(opcode, first_op_slot + start, first_op_slot + stop, ab_index, ab_slice)
                )
            self._groups = groups
        return self._groups

    def run(self, input_planes: np.ndarray) -> np.ndarray:
        """Execute the tape on ``(num_inputs, planes)`` packed input planes.

        Returns freshly-allocated ``(num_outputs, planes)`` output planes
        (never a view into the internal scratch arena).
        """
        input_planes = np.ascontiguousarray(input_planes, dtype=np.uint64)
        if input_planes.ndim != 2 or input_planes.shape[0] != self.num_inputs:
            raise ValueError(
                f"expected input planes of shape ({self.num_inputs}, planes), "
                f"got {input_planes.shape}"
            )
        planes = input_planes.shape[1]
        if planes:
            outputs = np.empty((self.num_outputs, planes), dtype=np.uint64)
            scratch = _scratch_matrix(self.num_slots, TILE).reshape(-1)
            if run_tape_native(
                self.tape, input_planes, self.num_slots, self.zero_slot,
                self.one_slot, self.out_index, self.out_invert, outputs, scratch,
            ):
                return outputs
        values = _scratch_matrix(self.num_slots, planes)
        values[: self.num_inputs] = input_planes
        values[self.zero_slot] = 0
        values[self.one_slot] = PLANE_ONES
        for group in self.op_groups():
            size = group.dest_stop - group.dest_start
            out = values[group.dest_start : group.dest_stop]
            if group.ab_slice is not None:
                operands = values[group.ab_slice[0] : group.ab_slice[1]]
            else:
                operands = values.take(group.ab_index, axis=0)
            _KERNELS[group.opcode](operands[:size], operands[size:], out)
        outputs = values.take(self.out_index, axis=0)
        if (self.out_invert != 0).any():
            np.bitwise_xor(outputs, self.out_invert[:, None], out=outputs)
        return outputs


# --------------------------------------------------------------------- #
# Scratch arena: one grow-only per-process buffer backs the slot matrix of
# every run, so the simulate-many loop does not re-fault a multi-megabyte
# allocation per circuit.  Oversized requests fall back to a fresh
# allocation instead of pinning unbounded memory.
# --------------------------------------------------------------------- #
_SCRATCH_CAP_BYTES = 64 * 1024 * 1024
_scratch_buffer: Optional[np.ndarray] = None


def _scratch_matrix(num_slots: int, planes: int) -> np.ndarray:
    global _scratch_buffer
    needed = num_slots * planes
    if needed * 8 > _SCRATCH_CAP_BYTES:
        return np.empty((num_slots, planes), dtype=np.uint64)
    buffer = _scratch_buffer
    if buffer is None or buffer.size < needed:
        buffer = np.empty(needed, dtype=np.uint64)
        _scratch_buffer = buffer
    return buffer[:needed].reshape(num_slots, planes)


# --------------------------------------------------------------------- #
# Compilation
# --------------------------------------------------------------------- #
def _effective_mask(gate_type: GateType, a_inv: bool, b_inv: bool) -> int:
    """Truth mask of ``gate_type`` with input polarities folded in."""
    mask = _TRUTH_MASKS[gate_type]
    folded = 0
    for a in (0, 1):
        for b in (0, 1):
            if mask >> (2 * (a ^ int(a_inv)) + (b ^ int(b_inv))) & 1:
                folded |= 1 << (2 * a + b)
    return folded


#: :func:`_effective_mask` of every (gate type, a inverted, b inverted),
#: indexed by ``4 * gate_type + 2 * a_inv + b_inv``.
_EFFECTIVE_MASKS: Tuple[int, ...] = tuple(
    _effective_mask(GateType(value), a_inv, b_inv)
    for value in range(len(GateType))
    for a_inv in (False, True)
    for b_inv in (False, True)
)


def _compile(netlist: Netlist) -> CompiledProgram:
    num_inputs = netlist.num_inputs
    zero_slot = num_inputs
    one_slot = num_inputs + 1
    first_op_slot = num_inputs + 2

    num_nodes = num_inputs + netlist.num_gates
    live_mask = netlist.transitive_fanin()
    live_gates = int(live_mask[num_inputs:].sum())
    live = live_mask.tolist()

    # Per-node lowering state: the (provisional) slot holding each node's
    # value, whether the stored polarity is inverted, and the node's
    # constant value when folded; plus each slot's logic level.
    node_slot = list(range(num_inputs)) + [0] * (num_nodes - num_inputs)
    node_inv = [False] * num_nodes
    node_const: List[Optional[int]] = [None] * num_nodes
    slot_level = [0] * first_op_slot

    # Surviving ops before scheduling, op ``i`` provisionally writing slot
    # ``first_op_slot + i``: opcode and provisional operand slots.
    op_codes: List[int] = []
    op_a: List[int] = []
    op_b: List[int] = []
    const_slots = (zero_slot, one_slot)

    def operand(node: int) -> Tuple[int, bool, Optional[int]]:
        if node < 0:
            return zero_slot, False, 0  # floating operands read as constant 0
        return node_slot[node], node_inv[node], node_const[node]

    for node_id, gate in enumerate(netlist.gates, num_inputs):
        if not live[node_id]:
            continue  # dead-node elimination
        # Operands beyond the gate's arity float, as in ``simulate_bits``
        # (which ignores them) and ``transitive_fanin`` (which leaves them
        # dead).
        arity = GATE_ARITY[gate.gate_type]
        a_slot, a_inv, a_const = operand(gate.a if arity >= 1 else -1)
        b_slot, b_inv, b_const = operand(gate.b if arity == 2 else -1)

        mask = _EFFECTIVE_MASKS[4 * gate.gate_type + 2 * a_inv + b_inv]
        # Constant operands (and same-slot operands) restrict the mask to a
        # sub-function of at most one variable.
        if a_const is not None and b_const is not None:
            value = mask >> (2 * a_const + b_const) & 1
            node_const[node_id] = value
            node_slot[node_id] = const_slots[value]
            continue
        if a_const is not None:
            f0 = mask >> (2 * a_const) & 1        # f(b=0)
            f1 = mask >> (2 * a_const + 1) & 1    # f(b=1)
            variable = b_slot
        elif b_const is not None:
            f0 = mask >> b_const & 1              # f(a=0)
            f1 = mask >> (2 + b_const) & 1        # f(a=1)
            variable = a_slot
        elif a_slot == b_slot:
            f0 = mask & 1                         # f(0, 0)
            f1 = mask >> 3 & 1                    # f(1, 1)
            variable = a_slot
        else:
            opcode, swap, out_inv = _MASK_TO_OP[mask]
            slot_level.append(max(slot_level[a_slot], slot_level[b_slot]) + 1)
            if swap:
                a_slot, b_slot = b_slot, a_slot
            node_slot[node_id] = first_op_slot + len(op_codes)
            node_inv[node_id] = out_inv
            op_codes.append(opcode)
            op_a.append(a_slot)
            op_b.append(b_slot)
            continue

        if f0 == f1:  # degenerate: constant regardless of the variable
            node_const[node_id] = f0
            node_slot[node_id] = const_slots[f0]
        else:  # buffer (f0=0) or inverter (f0=1): both are free aliases
            node_slot[node_id] = variable
            node_inv[node_id] = bool(f0)

    # Ready-list scheduling: repeatedly take every currently-ready op of the
    # most numerous opcode as one fused group.  Ready ops are mutually
    # independent by construction, destination slots are renumbered in
    # schedule order so each group owns a contiguous destination range, and
    # ops only ever read slots committed by earlier groups, so the schedule
    # is a valid topological order.
    num_ops = len(op_codes)
    dependents: Dict[int, List[int]] = {}
    blockers = [0] * num_ops
    for position in range(num_ops):
        for slot in (op_a[position], op_b[position]):
            if slot >= first_op_slot:
                producer = slot - first_op_slot
                dependents.setdefault(producer, []).append(position)
                blockers[position] += 1

    ready: Dict[int, List[int]] = {}  # opcode -> ready op positions
    for position in range(num_ops):
        if blockers[position] == 0:
            ready.setdefault(op_codes[position], []).append(position)

    schedule: List[int] = []
    group_bounds: List[Tuple[int, int, int]] = []  # (opcode, start, stop)
    while ready:
        opcode = max(ready, key=lambda key: len(ready[key]))
        batch = ready.pop(opcode)
        start = len(schedule)
        schedule.extend(batch)
        group_bounds.append((opcode, start, len(schedule)))
        for position in batch:
            for dependent in dependents.get(position, ()):
                blockers[dependent] -= 1
                if blockers[dependent] == 0:
                    ready.setdefault(op_codes[dependent], []).append(dependent)

    order = np.array(schedule, dtype=np.int64)
    destinations = first_op_slot + np.arange(num_ops, dtype=np.int64)
    slot_remap = np.arange(first_op_slot + num_ops, dtype=np.int64)
    slot_remap[first_op_slot + order] = destinations

    tape = np.empty((num_ops, 4), dtype=np.int32)
    tape[:, 0] = np.array(op_codes, dtype=np.int64)[order]
    tape[:, 1] = slot_remap[np.array(op_a, dtype=np.int64)[order]]
    tape[:, 2] = slot_remap[np.array(op_b, dtype=np.int64)[order]]
    tape[:, 3] = destinations

    if netlist.output_bits:
        out_nodes = list(netlist.output_bits)
        out_index = slot_remap[np.array([node_slot[n] for n in out_nodes], dtype=np.int64)]
        inverted = np.array([node_inv[n] for n in out_nodes], dtype=bool)
    else:
        out_index = np.empty(0, dtype=np.int64)
        inverted = np.empty(0, dtype=bool)
    out_invert = np.where(inverted, np.uint64(PLANE_ONES), np.uint64(0))

    return CompiledProgram(
        fingerprint=netlist.fingerprint(),
        num_inputs=num_inputs,
        num_slots=first_op_slot + num_ops,
        zero_slot=zero_slot,
        one_slot=one_slot,
        tape=tape,
        group_bounds=tuple(group_bounds),
        out_index=np.ascontiguousarray(out_index, dtype=np.int64),
        out_invert=np.ascontiguousarray(out_invert, dtype=np.uint64),
        num_outputs=netlist.num_outputs,
        source_gates=netlist.num_gates,
        live_gates=live_gates,
        num_ops=num_ops,
        num_levels=max(slot_level),
    )


_PROGRAM_CACHE: "OrderedDict[str, CompiledProgram]" = OrderedDict()


def compile_netlist(netlist: Netlist, use_cache: bool = True) -> CompiledProgram:
    """Lower ``netlist`` to a :class:`CompiledProgram`, cached by fingerprint.

    Structurally identical netlists (same
    :meth:`~repro.circuits.netlist.Netlist.fingerprint`) share one compiled
    program per process; the cache holds :data:`PROGRAM_CACHE_SIZE` entries
    with LRU eviction.  ``use_cache=False`` always recompiles and leaves
    the cache untouched (useful for tests and one-off circuits).
    """
    if not use_cache:
        return _compile(netlist)
    fingerprint = netlist.fingerprint()
    program = _PROGRAM_CACHE.get(fingerprint)
    if program is not None:
        _PROGRAM_CACHE.move_to_end(fingerprint)
        return program
    program = _compile(netlist)
    _PROGRAM_CACHE[fingerprint] = program
    while len(_PROGRAM_CACHE) > PROGRAM_CACHE_SIZE:
        _PROGRAM_CACHE.popitem(last=False)
    return program


def clear_program_cache() -> None:
    """Drop every cached compiled program (and the scratch arena)."""
    global _scratch_buffer
    _PROGRAM_CACHE.clear()
    _scratch_buffer = None
