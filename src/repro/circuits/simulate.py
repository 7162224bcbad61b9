"""Vectorised behavioural simulation of gate-level netlists.

All simulation is bit-parallel over the gate list: a single pass evaluates
the circuit for an arbitrary number of input patterns.  This is the
"behavioural model" counterpart of the C models that ship with EvoApproxLib
in the original paper.

Every production simulation runs one path:
:func:`~repro.circuits.bitplane.simulate_planes`, 64 patterns packed per
``uint64`` lane, through the netlist's compiled op tape
(:mod:`repro.circuits.compiled`).  :func:`expand_operands` packs operand
words straight into input planes, one packed row per bit position, and
:func:`simulate_expanded` runs a netlist on them and turns its output
planes straight back into words; neither builds a ``(patterns, bits)``
matrix.  :func:`simulate_words` is the two composed.  Callers that
simulate many circuits on one operand set (the error evaluator) expand
once and reuse the planes.

:func:`simulate_bits` -- one NumPy ``bool`` byte per pattern per net, on
the matrix :func:`expand_operand_bits` builds -- is the reference oracle
the tape is tested against (``pytest -m sim_backends``), and
:func:`node_values`, its gate loop, computes switching activity.
"""

from __future__ import annotations

from typing import List, Mapping, NamedTuple, Sequence

import numpy as np

from .bitplane import num_planes, pack_bits, simulate_planes
from .gates import evaluate_gate
from .netlist import Netlist

#: Exhaustive enumeration is refused beyond this many input bits (2^24
#: patterns); wider circuits are simulated on a seeded sample instead.
MAX_EXHAUSTIVE_INPUTS = 24

#: (mask, shift) of the three swaps that transpose the 8x8 bit matrix held
#: in a little-endian ``uint64`` (byte ``r`` is row ``r``, bit ``c`` of it
#: column ``c``).
_TRANSPOSE8 = tuple(
    (np.uint64(mask), np.uint64(shift))
    for mask, shift in ((0x00AA00AA00AA00AA, 7), (0x0000CCCC0000CCCC, 14), (0xF0F0F0F0, 28))
)


def node_values(netlist: Netlist, input_bits: np.ndarray) -> List[np.ndarray]:
    """Boolean value vector of every node for a (patterns, num_inputs) matrix.

    Entry ``i`` holds node ``i``: the primary-input columns first, then each
    gate's output in topological order.  Floating (``-1``) operands read as
    constant 0.
    """
    # One contiguous row per primary input: gates read rows, not strided
    # columns of the pattern-major matrix.
    values = list(np.ascontiguousarray(input_bits[:, : netlist.num_inputs].T))
    zeros = np.zeros(input_bits.shape[0], dtype=bool)
    for gate in netlist.gates:
        a = values[gate.a] if gate.a >= 0 else zeros
        b = values[gate.b] if gate.b >= 0 else zeros
        values.append(evaluate_gate(gate.gate_type, a, b))
    return values


def simulate_bits(netlist: Netlist, input_bits: np.ndarray) -> np.ndarray:
    """Simulate ``netlist`` on a (patterns, num_inputs) boolean matrix.

    Returns a (patterns, num_outputs) boolean matrix with the output word,
    column ``j`` being output bit ``j`` (LSB first).
    """
    input_bits = np.asarray(input_bits, dtype=bool)
    if input_bits.ndim != 2 or input_bits.shape[1] != netlist.num_inputs:
        raise ValueError(
            f"expected input matrix of shape (patterns, {netlist.num_inputs}), "
            f"got {input_bits.shape}"
        )
    values = node_values(netlist, input_bits)
    outputs = np.empty((input_bits.shape[0], netlist.num_outputs), dtype=bool)
    for j, bit in enumerate(netlist.output_bits):
        outputs[:, j] = values[bit]
    return outputs


def _word_octets(values: np.ndarray, width: int) -> np.ndarray:
    """Unsigned ``width``-bit words as ``(n, 8)`` little-endian bytes.

    Operands must have an integer (or boolean) dtype: floating-point values
    used to slip through and truncate silently, so they are rejected, as are
    values outside the unsigned ``width``-bit range (checked in the original
    dtype, before any conversion could wrap around).
    """
    values = np.asarray(values)
    if values.dtype != np.bool_ and (
        values.dtype == object or not np.issubdtype(values.dtype, np.integer)
    ):
        raise TypeError(
            f"operand values must be integers, got dtype {values.dtype} "
            "(floating-point operands would be truncated silently)"
        )
    if values.size and (int(values.min()) < 0 or int(values.max()) >= (1 << width)):
        raise ValueError(f"operand values out of range for a {width}-bit unsigned word")
    return np.ascontiguousarray(values, dtype="<u8").reshape(-1, 1).view(np.uint8)


def words_to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Expand unsigned integers into a (n, width) boolean matrix, LSB first.

    Float operands raise :class:`TypeError`, values outside the unsigned
    ``width``-bit range :class:`ValueError`.
    """
    # A word's little-endian bytes, unpacked LSB first, are its bits.
    octets = _word_octets(values, width)
    return np.unpackbits(octets, axis=1, count=width, bitorder="little").view(bool)


def bits_to_words(bits: np.ndarray) -> np.ndarray:
    """Collapse a (n, width) boolean matrix (LSB first) into unsigned integers.

    Accumulation happens in ``uint64``: the former ``int64`` weights went
    negative at bit 63 (``np.int64(1) << 63``), silently corrupting every
    output word of width >= 64.  Words up to 63 bits return ``int64``
    (unchanged dtype for existing callers), 64-bit words return ``uint64``,
    and wider words fall back to arbitrary-precision Python ints in an
    ``object`` array.
    """
    bits = np.asarray(bits, dtype=bool)
    width = bits.shape[1]
    if width > 64:
        weights = np.array([1 << i for i in range(width)], dtype=object)
        return bits.astype(object) @ weights
    weights = np.uint64(1) << np.arange(width, dtype=np.uint64)
    words = bits.astype(np.uint64) @ weights
    return words if width == 64 else words.astype(np.int64)


def _pattern_count(netlist: Netlist, operands: Mapping[str, Sequence[int]]) -> int:
    """Common length of ``operands``, which must name every input word and no other."""
    missing = set(netlist.input_words) - set(operands)
    if missing:
        raise ValueError(f"missing operand values for input words: {sorted(missing)}")
    extras = set(operands) - set(netlist.input_words)
    if extras:
        raise ValueError(
            f"unknown operand names: {sorted(extras)}; "
            f"the netlist's input words are {sorted(netlist.input_words)}"
        )
    lengths = {len(np.asarray(operands[name])) for name in netlist.input_words}
    if len(lengths) != 1:
        raise ValueError("all operand arrays must have the same length")
    return lengths.pop()


def expand_operand_bits(
    netlist: Netlist, operands: Mapping[str, Sequence[int]]
) -> np.ndarray:
    """Expand word-level operand vectors into the netlist's input-bit matrix.

    Returns the (patterns, num_inputs) boolean matrix :func:`simulate_bits`
    takes, with each word's bits scattered to its primary-input node ids:
    the oracle's input, and the operand sample of switching activity.
    """
    input_bits = np.zeros((_pattern_count(netlist, operands), netlist.num_inputs), dtype=bool)
    for name, bit_ids in netlist.input_words.items():
        input_bits[:, list(bit_ids)] = words_to_bits(np.asarray(operands[name]), len(bit_ids))
    return input_bits


class ExpandedOperands(NamedTuple):
    """Operands packed into a netlist's input planes."""

    planes: np.ndarray
    """``(num_inputs, num_planes(patterns))`` ``uint64`` input planes."""

    patterns: int


def expand_operands(
    netlist: Netlist, operands: Mapping[str, Sequence[int]]
) -> ExpandedOperands:
    """Pack operand vectors straight into the netlist's input planes.

    Bit ``k`` of every word, ``(v >> k) & 1`` read from the byte that holds
    it, is packed by :func:`~repro.circuits.bitplane.pack_bits` into the
    planes of that bit's primary input.  Operands are checked as
    :func:`expand_operand_bits` checks them.  The result serves every
    netlist whose input words are wired like ``netlist``'s.
    """
    patterns = _pattern_count(netlist, operands)
    planes = np.zeros((netlist.num_inputs, num_planes(patterns)), dtype=np.uint64)
    for name, bit_ids in netlist.input_words.items():
        bits = np.arange(min(len(bit_ids), 64))  # wider bits stay 0
        octets = _word_octets(operands[name], len(bit_ids))[:, : -(-bits.size // 8)]
        rows = np.ascontiguousarray(octets.T)[bits >> 3]
        rows >>= (bits & 7).astype(np.uint8)[:, None]
        rows &= 1
        planes[list(bit_ids[:64])] = pack_bits(rows.view(bool))
    return ExpandedOperands(planes, patterns)


def _planes_to_words(planes: np.ndarray, patterns: int) -> np.ndarray:
    """Output words of ``(bits, planes)`` packed output planes, LSB first.

    Each byte of a plane row holds one output bit of 8 patterns; eight
    rows' bytes gathered into one ``uint64`` and transposed as an 8x8 bit
    matrix give one output byte of each of those patterns.  Dtypes are
    those of :func:`bits_to_words`.
    """
    width, lanes = planes.shape
    groups = -(-width // 8)
    rows = np.zeros((groups, 8, lanes * 8), dtype=np.uint8)
    rows.reshape(groups * 8, lanes * 8)[:width] = planes.view(np.uint8)
    # Copies run along the long pattern axis: one per bit, one per byte.
    blocks = np.empty((groups, lanes * 8, 8), dtype=np.uint8)
    for bit in range(8):
        blocks[:, :, bit] = rows[:, bit]
    blocks = blocks.view("<u8")
    swap = np.empty_like(blocks)
    for mask, shift in _TRANSPOSE8:
        np.right_shift(blocks, shift, out=swap)
        swap ^= blocks
        swap &= mask
        blocks ^= swap
        swap <<= shift
        blocks ^= swap
    words = np.zeros((patterns, max(1, -(-groups // 8))), dtype="<u8" if width >= 64 else "<i8")
    word_bytes = words.view(np.uint8)
    out_bytes = blocks.view(np.uint8).reshape(groups, lanes * 64)
    for group in range(groups):
        word_bytes[:, group] = out_bytes[group, :patterns]
    if width <= 64:
        return words[:, 0].astype(np.uint64 if width == 64 else np.int64, copy=False)
    chunks = words.astype(object)
    return sum(chunks[:, index] << (64 * index) for index in range(chunks.shape[1]))


def simulate_expanded(netlist: Netlist, inputs: ExpandedOperands) -> np.ndarray:
    """Output words of ``netlist`` on operands from :func:`expand_operands`."""
    return _planes_to_words(simulate_planes(netlist, inputs.planes), inputs.patterns)


def simulate_words(
    netlist: Netlist, operands: Mapping[str, Sequence[int]]
) -> np.ndarray:
    """Simulate the netlist on integer operand vectors.

    ``operands`` must provide a value array for every input word of the
    netlist; all arrays must have the same length.  This is
    :func:`expand_operands` and :func:`simulate_expanded` composed.
    """
    return simulate_expanded(netlist, expand_operands(netlist, operands))


def exhaustive_operands(netlist: Netlist) -> Mapping[str, np.ndarray]:
    """All input-word combinations of the netlist, in row-major operand order.

    Raises :class:`ValueError` beyond :data:`MAX_EXHAUSTIVE_INPUTS` input
    bits, before allocating anything.
    """
    if netlist.num_inputs > MAX_EXHAUSTIVE_INPUTS:
        raise ValueError(
            f"exhaustive enumeration of {netlist.num_inputs} input bits is "
            f"infeasible (at most {MAX_EXHAUSTIVE_INPUTS}); use sampled "
            "simulation instead"
        )
    names = list(netlist.input_words)
    widths = [len(netlist.input_words[name]) for name in names]
    grids = np.meshgrid(*[np.arange(1 << w, dtype=np.int64) for w in widths], indexing="ij")
    return {name: grid.reshape(-1) for name, grid in zip(names, grids)}


def exhaustive_simulate(netlist: Netlist) -> np.ndarray:
    """Output word for every input combination.

    The number of patterns is ``2 ** num_inputs``, refused beyond
    :data:`MAX_EXHAUSTIVE_INPUTS` input bits (use sampled simulation for
    wider circuits).
    """
    return simulate_words(netlist, exhaustive_operands(netlist))


def random_operands(
    netlist: Netlist, num_samples: int, rng: np.random.Generator
) -> Mapping[str, np.ndarray]:
    """Uniformly random operand vectors for sampled (Monte-Carlo) evaluation."""
    operands = {}
    for name, bit_ids in netlist.input_words.items():
        operands[name] = rng.integers(0, 1 << len(bit_ids), size=num_samples, dtype=np.int64)
    return operands
