"""K-input LUT technology mapping.

The mapper is a greedy depth-oriented cut-absorption algorithm (a
light-weight relative of FlowMap / priority-cut mapping): every gate keeps a
single best cut, formed by absorbing the cuts of its fan-ins whenever the
merged leaf set still fits into a K-input LUT, and falling back to the
fan-ins themselves otherwise.  The final cover is extracted from the outputs
downwards.  Constant and buffer nodes are propagated for free, as Vivado
would sweep them during optimisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set

from ..circuits import GATE_ARITY, GateType, Netlist


@dataclass(frozen=True)
class Lut:
    """One mapped LUT: the gate node it implements and its leaf inputs."""

    root: int
    leaves: FrozenSet[int]
    level: int

    @property
    def num_inputs(self) -> int:
        return len(self.leaves)


@dataclass
class LutMapping:
    """Result of technology mapping a netlist onto K-input LUTs."""

    netlist: Netlist
    lut_size: int
    luts: List[Lut]
    output_sources: Dict[int, str] = field(default_factory=dict)
    """How each output bit is driven: ``"lut"``, ``"input"`` or ``"constant"``."""

    @property
    def num_luts(self) -> int:
        return len(self.luts)

    @property
    def depth(self) -> int:
        """Maximum LUT level over all mapped LUTs (0 when no LUT is needed)."""
        return max((lut.level for lut in self.luts), default=0)

    def fanout_counts(self) -> Dict[int, int]:
        """How many LUT inputs / circuit outputs each mapped LUT (or PI) drives."""
        counts: Dict[int, int] = {}
        for lut in self.luts:
            for leaf in lut.leaves:
                counts[leaf] = counts.get(leaf, 0) + 1
        for bit in self.netlist.output_bits:
            counts[bit] = counts.get(bit, 0) + 1
        return counts


def _constant_nodes(netlist: Netlist) -> Set[int]:
    """Nodes whose value is a constant (constants and gates fed only by constants)."""
    constants: Set[int] = set()
    for node_id, gate in enumerate(netlist.gates, netlist.num_inputs):
        arity = GATE_ARITY[gate.gate_type]
        if arity == 0:
            constants.add(node_id)
        elif gate.a in constants and (arity == 1 or gate.b in constants):
            constants.add(node_id)
    return constants


def map_to_luts(netlist: Netlist, lut_size: int = 6) -> LutMapping:
    """Map ``netlist`` onto ``lut_size``-input LUTs.

    Returns the selected LUT cover.  Buffers and constant logic are absorbed;
    output bits driven directly by primary inputs or constants require no
    LUT.
    """
    if lut_size < 2:
        raise ValueError("lut_size must be at least 2")
    num_inputs = netlist.num_inputs
    constants = _constant_nodes(netlist)
    buf = GateType.BUF

    # alias[n]: node whose logic value n simply forwards (through BUF
    # chains).  A BUF is aliased to its already-resolved operand, so one
    # lookup resolves any node.
    alias: Dict[int, int] = {}

    def resolve(node: int) -> int:
        return alias.get(node, node)

    best_cut: Dict[int, FrozenSet[int]] = {}
    # LUT level of every mapped node; primary inputs stay at level 0.
    level = [0] * (num_inputs + len(netlist.gates))

    for node_id, gate in enumerate(netlist.gates, num_inputs):
        if node_id in constants:
            continue
        if gate.gate_type == buf:
            alias[node_id] = resolve(gate.a)
            continue
        # Constant gates were skipped above, so every gate here reads ``a``.
        operands = []
        a = resolve(gate.a)
        if a not in constants:
            operands.append(a)
        if GATE_ARITY[gate.gate_type] == 2:
            b = resolve(gate.b)
            if b not in constants:
                operands.append(b)
        if not operands:
            constants.add(node_id)
            continue

        merged: Set[int] = set()
        for operand in operands:
            if operand < num_inputs:
                merged.add(operand)
            else:
                merged.update(best_cut[operand])
        if len(merged) <= lut_size:
            cut = frozenset(merged)
        else:
            cut = frozenset(operands)
        best_cut[node_id] = cut
        level[node_id] = 1 + max(map(level.__getitem__, cut), default=0)

    # Cover extraction from the outputs downwards.
    selected: Dict[int, Lut] = {}
    output_sources: Dict[int, str] = {}
    stack: List[int] = []
    for bit in netlist.output_bits:
        target = resolve(bit)
        if target in constants:
            output_sources[bit] = "constant"
        elif target < num_inputs:
            output_sources[bit] = "input"
        else:
            output_sources[bit] = "lut"
            stack.append(target)

    while stack:
        root = stack.pop()
        if root in selected:
            continue
        cut = best_cut[root]
        selected[root] = Lut(root=root, leaves=cut, level=level[root])
        for leaf in cut:
            if leaf >= num_inputs and leaf not in constants and leaf not in selected:
                stack.append(leaf)

    luts = sorted(selected.values(), key=lambda lut: lut.root)
    return LutMapping(netlist=netlist, lut_size=lut_size, luts=luts, output_sources=output_sources)
