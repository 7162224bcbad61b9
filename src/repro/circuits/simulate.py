"""Vectorised behavioural simulation of gate-level netlists.

All simulation is bit-parallel over the gate list: a single pass evaluates
the circuit for an arbitrary number of input patterns.  This is the
"behavioural model" counterpart of the C models that ship with EvoApproxLib
in the original paper.

Two bit-identical paths implement the pass, and this module alone picks
between them, by pattern count (:func:`use_packed_path`):

* below :data:`PACKED_MIN_PATTERNS` patterns, :func:`simulate_bits` -- one
  NumPy ``bool`` byte per pattern per net, and the reference oracle the
  packed path is tested against;
* from :data:`PACKED_MIN_PATTERNS` patterns up,
  :func:`~repro.circuits.bitplane.simulate_planes` -- 64 patterns packed
  per ``uint64`` lane, run through the netlist's compiled op tape
  (:mod:`repro.circuits.compiled`).

:func:`expand_operands` expands operand vectors into the input form their
pattern count selects, and :func:`simulate_expanded` runs a netlist on that
form; :func:`simulate_words` is the two composed.  Callers that simulate
many circuits on one operand set (the error evaluator) expand once and
reuse the result.

The paths are *bit-identical by contract*: the differential suite
(``pytest -m sim_backends``) asserts it, and downstream caches rely on it
(no cache key names the path).
"""

from __future__ import annotations

from typing import List, Mapping, NamedTuple, Sequence

import numpy as np

from .bitplane import pack_bits, simulate_planes, unpack_bits
from .gates import evaluate_gate
from .netlist import Netlist

#: Simulations of at least this many patterns take the packed path, where
#: compiling a cache-cold netlist pays for itself within one simulation;
#: smaller ones run :func:`simulate_bits`.
PACKED_MIN_PATTERNS = 4096

#: Exhaustive enumeration is refused beyond this many input bits (2^24
#: patterns); wider circuits are simulated on a seeded sample instead.
MAX_EXHAUSTIVE_INPUTS = 24


def use_packed_path(patterns: int) -> bool:
    """Whether a simulation of ``patterns`` patterns takes the packed path.

    The one place a simulation path is chosen; :func:`expand_operands`
    asks here.
    """
    return patterns >= PACKED_MIN_PATTERNS


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


def words_to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Expand unsigned integers into a (n, width) boolean matrix, LSB first.

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
    # A word's little-endian bytes, unpacked LSB first, are its bits.
    octets = np.ascontiguousarray(values, dtype="<i8").reshape(-1, 1).view(np.uint8)
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


def expand_operand_bits(
    netlist: Netlist, operands: Mapping[str, Sequence[int]]
) -> np.ndarray:
    """Expand word-level operand vectors into the netlist's input-bit matrix.

    Returns the (patterns, num_inputs) boolean matrix both simulation
    paths start from, with each word's bits scattered to its primary-input
    node ids.  This is the single implementation of the word-to-bit layout;
    the error evaluator's operand memo and the benchmarks reuse it so they
    measure exactly what production simulates.
    """
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
    patterns = lengths.pop()

    input_bits = np.zeros((patterns, netlist.num_inputs), dtype=bool)
    for name, bit_ids in netlist.input_words.items():
        input_bits[:, list(bit_ids)] = words_to_bits(np.asarray(operands[name]), len(bit_ids))
    return input_bits


class ExpandedOperands(NamedTuple):
    """Operands in the input form of the path their pattern count selects."""

    data: np.ndarray
    """``(num_inputs, planes)`` ``uint64`` planes when :attr:`packed`, else
    the ``(patterns, num_inputs)`` boolean matrix."""

    patterns: int
    packed: bool


def expand_operands(
    netlist: Netlist, operands: Mapping[str, Sequence[int]]
) -> ExpandedOperands:
    """Expand operand vectors into the input form their pattern count selects.

    From :data:`PACKED_MIN_PATTERNS` patterns up that is packed planes for
    :func:`~repro.circuits.bitplane.simulate_planes`, below it the boolean
    matrix for :func:`simulate_bits`.  The result serves every netlist
    whose input words are wired like ``netlist``'s.
    """
    input_bits = expand_operand_bits(netlist, operands)
    patterns = input_bits.shape[0]
    if use_packed_path(patterns):
        return ExpandedOperands(pack_bits(input_bits.T), patterns, True)
    return ExpandedOperands(input_bits, patterns, False)


def simulate_expanded(netlist: Netlist, inputs: ExpandedOperands) -> np.ndarray:
    """Output words of ``netlist`` on operands from :func:`expand_operands`."""
    if inputs.packed:
        output_bits = unpack_bits(simulate_planes(netlist, inputs.data), inputs.patterns).T
    else:
        output_bits = simulate_bits(netlist, inputs.data)
    return bits_to_words(output_bits)


def simulate_words(
    netlist: Netlist, operands: Mapping[str, Sequence[int]]
) -> np.ndarray:
    """Simulate the netlist on integer operand vectors.

    ``operands`` must provide a value array for every input word of the
    netlist; all arrays must have the same length.  This is
    :func:`expand_operands` and :func:`simulate_expanded` composed: the
    pattern count picks the simulation path (:func:`use_packed_path`);
    both are bit-identical, so this only affects speed.
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
