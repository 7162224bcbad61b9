"""Structural metrics of gate-level netlists.

These metrics serve two purposes: they are the raw material for the ML
feature vectors (:mod:`repro.features`) and they provide quick sanity checks
in tests (an approximate circuit should never be *larger* than it claims).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import compress
from typing import Dict, Iterable

import numpy as np

from .gates import CONSTANT_GATES, GateType
from .netlist import Gate, Netlist


@dataclass(frozen=True)
class StructuralMetrics:
    """Summary of a netlist's structure."""

    num_inputs: int
    num_outputs: int
    num_gates: int
    live_gates: int
    depth: int
    gate_counts: Dict[str, int]
    max_fanout: int
    mean_fanout: float
    constant_outputs: int
    passthrough_outputs: int

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary form (gate counts prefixed with ``count_``)."""
        flat: Dict[str, float] = {
            "num_inputs": self.num_inputs,
            "num_outputs": self.num_outputs,
            "num_gates": self.num_gates,
            "live_gates": self.live_gates,
            "depth": self.depth,
            "max_fanout": self.max_fanout,
            "mean_fanout": self.mean_fanout,
            "constant_outputs": self.constant_outputs,
            "passthrough_outputs": self.passthrough_outputs,
        }
        for gate_name, count in self.gate_counts.items():
            flat[f"count_{gate_name.lower()}"] = count
        return flat


def _tally(gates: Iterable[Gate]) -> Dict[str, int]:
    """Number of ``gates`` of each type, keyed by type name in enum order."""
    tally = Counter(gate.gate_type for gate in gates)
    return {gate_type.name: tally[gate_type] for gate_type in GateType}


def gate_type_counts(netlist: Netlist, live_only: bool = True) -> Dict[str, int]:
    """Number of gates of each type, optionally restricted to live logic."""
    if not live_only:
        return _tally(netlist.gates)
    return structural_metrics(netlist).gate_counts


def structural_metrics(netlist: Netlist) -> StructuralMetrics:
    """The full structural summary of a netlist.

    Computed once per netlist and memoised on it beside its fingerprint
    (see :meth:`~repro.circuits.netlist.Netlist.fingerprint`); every call
    returns a fresh ``gate_counts`` dict, so a caller cannot change what
    the next call returns.
    """
    summary = netlist.__dict__.get("_structural_metrics")
    if summary is None:
        summary = netlist.__dict__["_structural_metrics"] = _summarise(netlist)
    return replace(summary, gate_counts=dict(summary.gate_counts))


def _summarise(netlist: Netlist) -> StructuralMetrics:
    """Compute the summary from one fan-out and one depth sweep.

    Live-gate count, live gate-type counts and the live fan-out statistics
    are all derived from the netlist's memoised live mask.
    """
    num_inputs = netlist.num_inputs
    gates = netlist.gates
    fanouts = netlist.fanout_counts()
    live_mask = netlist.transitive_fanin()
    live_gates = live_mask[num_inputs:].tolist()
    live_fanouts = fanouts[live_mask] if live_mask.any() else np.zeros(1)

    # The fan-in sweep above rejected any output bit outside the node range.
    constant_outputs = 0
    passthrough_outputs = 0
    for bit in netlist.output_bits:
        if bit < num_inputs:
            passthrough_outputs += 1
            continue
        gate = gates[bit - num_inputs]
        if gate.gate_type in CONSTANT_GATES:
            constant_outputs += 1
        elif gate.gate_type == GateType.BUF and 0 <= gate.a < num_inputs:
            passthrough_outputs += 1

    return StructuralMetrics(
        num_inputs=num_inputs,
        num_outputs=netlist.num_outputs,
        num_gates=len(gates),
        live_gates=sum(live_gates),
        depth=netlist.depth(),
        gate_counts=_tally(compress(gates, live_gates)),
        max_fanout=int(fanouts.max()) if fanouts.size else 0,
        mean_fanout=float(live_fanouts.mean()) if live_fanouts.size else 0.0,
        constant_outputs=constant_outputs,
        passthrough_outputs=passthrough_outputs,
    )
