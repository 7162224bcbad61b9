"""Gate-level netlist intermediate representation.

A :class:`Netlist` is an immutable-ish DAG of primitive gates together with a
word-level interface (named input words and a single output word, all LSB
first).  Node identifiers are dense integers: ids ``0 .. num_inputs-1`` are
primary inputs, id ``num_inputs + i`` is the output of the ``i``-th gate.
Gates are stored in topological order (a gate may only reference nodes with a
smaller id), which makes simulation, mapping and cost analysis simple linear
passes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .gates import GATE_ARITY, GateType

#: Version tag mixed into every structural fingerprint so cached evaluation
#: results are invalidated if the hashing scheme ever changes.
_FINGERPRINT_VERSION = b"nl-fp-v1"


@dataclass(frozen=True)
class Gate:
    """A single primitive gate instance.

    ``a`` and ``b`` are node ids of the operands; unused operands are ``-1``
    (unary gates use only ``a``, constant gates use neither).
    """

    gate_type: GateType
    a: int = -1
    b: int = -1

    @property
    def arity(self) -> int:
        return GATE_ARITY[self.gate_type]

    def operands(self) -> Tuple[int, ...]:
        """Node ids actually read by this gate."""
        if self.arity == 0:
            return ()
        if self.arity == 1:
            return (self.a,)
        return (self.a, self.b)


class NetlistError(ValueError):
    """Raised when a netlist is structurally invalid."""


@dataclass
class Netlist:
    """A combinational gate-level circuit with a word-level interface.

    Attributes
    ----------
    name:
        Human readable identifier, unique within a circuit library.
    kind:
        Functional class of the circuit, e.g. ``"adder"`` or ``"multiplier"``.
    input_words:
        Mapping from word name to the tuple of primary-input node ids that
        form the word, least-significant bit first.
    output_bits:
        Node ids forming the output word, least-significant bit first.  Any
        node id (input or gate output) may appear here, including repeats.
    gates:
        Gates in topological order.
    meta:
        Free-form metadata (generator family, seed, bit-width, ...).

    ``num_inputs`` and ``num_nodes`` are derived from ``input_words`` and
    ``gates`` on every access, so a hot loop should read them once, before
    the loop.  Every structural query below is one linear pass over the
    topologically ordered gates.  Three results of pure structure are
    memoised on the instance (see :meth:`fingerprint`): the fingerprint,
    the default-root live mask of :meth:`transitive_fanin` and the
    :func:`~repro.circuits.metrics.structural_metrics` summary.
    """

    name: str
    kind: str
    input_words: Dict[str, Tuple[int, ...]]
    output_bits: Tuple[int, ...]
    gates: List[Gate]
    meta: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Basic structure
    # ------------------------------------------------------------------ #
    @property
    def num_inputs(self) -> int:
        """Number of primary-input bits."""
        return sum(len(bits) for bits in self.input_words.values())

    @property
    def num_gates(self) -> int:
        return len(self.gates)

    @property
    def num_nodes(self) -> int:
        """Total node count (primary inputs + gate outputs)."""
        return self.num_inputs + self.num_gates

    @property
    def num_outputs(self) -> int:
        return len(self.output_bits)

    def gate_of_node(self, node_id: int) -> Gate:
        """Gate driving ``node_id``; raises for primary inputs."""
        if node_id < self.num_inputs:
            raise NetlistError(f"node {node_id} is a primary input, not a gate")
        return self.gates[node_id - self.num_inputs]

    def is_input_node(self, node_id: int) -> bool:
        return 0 <= node_id < self.num_inputs

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check structural invariants, raising :class:`NetlistError` if broken."""
        num_inputs = self.num_inputs
        seen_inputs: set = set()
        for word, bits in self.input_words.items():
            for bit in bits:
                if not (0 <= bit < num_inputs):
                    raise NetlistError(
                        f"input word {word!r} references node {bit} outside the "
                        f"primary-input range [0, {num_inputs})"
                    )
                if bit in seen_inputs:
                    raise NetlistError(f"input node {bit} assigned to two word bits")
                seen_inputs.add(bit)
        if len(seen_inputs) != num_inputs:
            raise NetlistError("some primary inputs are not part of any input word")

        for node_id, gate in enumerate(self.gates, num_inputs):
            for operand in gate.operands():
                if not (0 <= operand < node_id):
                    raise NetlistError(
                        f"gate {node_id - num_inputs} ({gate.gate_type.name}) references node "
                        f"{operand}, which is not defined before node {node_id}; "
                        "gates must be in topological order"
                    )

        num_nodes = num_inputs + len(self.gates)
        for bit in self.output_bits:
            if not (0 <= bit < num_nodes):
                raise NetlistError(f"output references undefined node {bit}")

    # ------------------------------------------------------------------ #
    # Graph queries
    # ------------------------------------------------------------------ #
    def fanout_counts(self) -> np.ndarray:
        """Number of gate/output references to each node."""
        num_inputs = self.num_inputs
        counts = [0] * (num_inputs + len(self.gates))
        for gate in self.gates:
            arity = GATE_ARITY[gate.gate_type]
            if arity:
                counts[gate.a] += 1
                if arity == 2:
                    counts[gate.b] += 1
        for bit in self.output_bits:
            counts[bit] += 1
        return np.array(counts, dtype=np.int64)

    def node_depths(self) -> np.ndarray:
        """Logic depth of each node (primary inputs and constants are depth 0)."""
        num_inputs = self.num_inputs
        depths = [0] * (num_inputs + len(self.gates))
        for node_id, gate in enumerate(self.gates, num_inputs):
            arity = GATE_ARITY[gate.gate_type]
            if arity == 2:
                depth_a = depths[gate.a]
                depth_b = depths[gate.b]
                depths[node_id] = 1 + (depth_a if depth_a >= depth_b else depth_b)
            elif arity:
                depths[node_id] = 1 + depths[gate.a]
        return np.array(depths, dtype=np.int64)

    def depth(self) -> int:
        """Logic depth of the deepest output (0 for a wire-only circuit)."""
        if not self.output_bits:
            return 0
        depths = self.node_depths()
        return int(max(depths[bit] for bit in self.output_bits))

    def transitive_fanin(self, roots: Optional[Iterable[int]] = None) -> np.ndarray:
        """Boolean mask of nodes in the transitive fan-in of ``roots``.

        Defaults to the output bits, i.e. the *live* part of the circuit.
        Raises :class:`NetlistError` for a root outside ``[0, num_nodes)``.
        One reverse sweep: gates are topologically ordered, so a gate's
        liveness is final by the time the sweep reaches it.  Floating
        (``-1``) operands reference no node and mark nothing.

        The default-root mask is memoised on the instance and is read-only;
        explicit ``roots`` always sweep and return a fresh, writeable mask.
        """
        if roots is None:
            cached = self.__dict__.get("_live_mask")
            if cached is not None:
                return cached
        num_inputs = self.num_inputs
        gates = self.gates
        num_nodes = num_inputs + len(gates)
        live = bytearray(num_nodes)
        for root in self.output_bits if roots is None else roots:
            node = int(root)
            if not 0 <= node < num_nodes:
                raise NetlistError(
                    f"fan-in root {node} is outside the node range [0, {num_nodes})"
                )
            live[node] = 1
        node_id = num_nodes
        for gate in reversed(gates):
            node_id -= 1
            if live[node_id]:
                arity = GATE_ARITY[gate.gate_type]
                if arity and gate.a >= 0:
                    live[gate.a] = 1
                if arity == 2 and gate.b >= 0:
                    live[gate.b] = 1
        if roots is not None:
            return np.frombuffer(live, dtype=bool)
        # A view of immutable bytes: no caller can make it writeable again.
        mask = np.frombuffer(bytes(live), dtype=bool)
        self.__dict__["_live_mask"] = mask
        return mask

    def live_gate_count(self) -> int:
        """Number of gates reachable from the outputs (dead logic excluded)."""
        mask = self.transitive_fanin()
        return int(mask[self.num_inputs:].sum())

    # ------------------------------------------------------------------ #
    # Structural identity
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Stable content hash of the circuit *structure*.

        Two netlists share a fingerprint exactly when they have the same
        input-word layout, the same output-bit wiring and the same gate list
        (types and operand ids).  ``name``, ``kind`` and ``meta`` are
        deliberately excluded: they do not affect the computed function or
        any cost model, so structurally identical circuits can share cached
        evaluation results regardless of how they were generated or named.

        The digest is cached on the instance; netlists are treated as
        immutable once built (all transformations return copies), so the
        cache is never invalidated.  The same contract memoises the other
        two results of pure structure: the default-root live mask of
        :meth:`transitive_fanin` (read by :meth:`live_gate_count`,
        :meth:`pruned`, compilation and ASIC synthesis) and the
        :func:`~repro.circuits.metrics.structural_metrics` summary (read by
        feature extraction).  Nothing else -- no switching activity,
        compiled program or evaluation report -- is kept on a netlist.
        :meth:`copy` and :meth:`pruned` return unmemoised netlists, and the
        live mask and summary stay out of pickles (see
        :meth:`__getstate__`).
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        digest = hashlib.blake2b(_FINGERPRINT_VERSION, digest_size=20)
        for word in sorted(self.input_words):
            bits = self.input_words[word]
            digest.update(b"w")
            digest.update(word.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(np.asarray(bits, dtype=np.int64).tobytes())
        digest.update(b"o")
        digest.update(np.asarray(self.output_bits, dtype=np.int64).tobytes())
        digest.update(b"g")
        if self.gates:
            table = np.array(
                [(int(g.gate_type.value), g.a, g.b) for g in self.gates],
                dtype=np.int64,
            )
            digest.update(table.tobytes())
        value = digest.hexdigest()
        self.__dict__["_fingerprint"] = value
        return value

    def __getstate__(self) -> Dict[str, object]:
        """Pickle state without the live mask and structural summary.

        An unpickled array comes back writeable, so process-pool workers
        rebuild both on first use instead of receiving them.
        """
        state = dict(self.__dict__)
        state.pop("_live_mask", None)
        state.pop("_structural_metrics", None)
        return state

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def copy(self, name: Optional[str] = None, meta: Optional[Mapping[str, object]] = None) -> "Netlist":
        """Deep-enough copy; gate tuples are immutable so the list is recreated."""
        new_meta = dict(self.meta)
        if meta:
            new_meta.update(meta)
        return Netlist(
            name=name if name is not None else self.name,
            kind=self.kind,
            input_words={k: tuple(v) for k, v in self.input_words.items()},
            output_bits=tuple(self.output_bits),
            gates=list(self.gates),
            meta=new_meta,
        )

    def pruned(self) -> "Netlist":
        """Return an equivalent netlist with dead gates removed.

        Gate ids are compacted; primary inputs are always retained so the
        word-level interface is unchanged.
        """
        num_inputs = self.num_inputs
        live = self.transitive_fanin()
        remap: Dict[int, int] = {i: i for i in range(num_inputs)}
        new_gates: List[Gate] = []
        for node_id, gate in enumerate(self.gates, num_inputs):
            if not live[node_id]:
                continue
            arity = GATE_ARITY[gate.gate_type]
            if arity == 0:
                new_gate = Gate(gate.gate_type)
            elif arity == 1:
                new_gate = Gate(gate.gate_type, remap[gate.a])
            else:
                new_gate = Gate(gate.gate_type, remap[gate.a], remap[gate.b])
            remap[node_id] = num_inputs + len(new_gates)
            new_gates.append(new_gate)
        return Netlist(
            name=self.name,
            kind=self.kind,
            input_words={k: tuple(v) for k, v in self.input_words.items()},
            output_bits=tuple(remap[b] for b in self.output_bits),
            gates=new_gates,
            meta=dict(self.meta),
        )

    # ------------------------------------------------------------------ #
    # Evaluation (thin wrappers around repro.circuits.simulate)
    # ------------------------------------------------------------------ #
    def evaluate_words(self, operands: Mapping[str, Sequence[int]]) -> np.ndarray:
        """Evaluate the circuit on integer operand vectors.

        ``operands`` maps each input word name to an array of unsigned
        integers.  Returns the output word as an unsigned integer array.
        """
        from .simulate import simulate_words

        return simulate_words(self, operands)

    def exhaustive_outputs(self) -> np.ndarray:
        """Output word for every input combination (use only for small circuits)."""
        from .simulate import exhaustive_simulate

        return exhaustive_simulate(self)

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    def word_width(self, name: str) -> int:
        return len(self.input_words[name])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        words = ", ".join(f"{k}[{len(v)}]" for k, v in self.input_words.items())
        return (
            f"Netlist(name={self.name!r}, kind={self.kind!r}, inputs=({words}), "
            f"outputs={self.num_outputs}, gates={self.num_gates})"
        )
