"""FPGA timing analysis.

Static timing over the mapped LUT network: the arrival time of a LUT output
is the worst arrival over its leaf signals plus the LUT delay plus a
fanout-dependent routing delay for the net it drives.  Primary inputs start
at the device's input (IOB-to-fabric) delay.  The reported latency is the
worst arrival over the circuit outputs -- the combinational critical path
that Vivado would report for an unregistered arithmetic core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .device import FpgaDevice
from .lut_mapping import LutMapping


@dataclass(frozen=True)
class TimingReport:
    """Critical-path summary of a mapped circuit."""

    critical_path_ns: float
    logic_levels: int
    logic_delay_ns: float
    routing_delay_ns: float


def analyze_timing(mapping: LutMapping, device: FpgaDevice) -> TimingReport:
    """Compute the critical path of a LUT mapping on ``device``."""
    netlist = mapping.netlist
    num_inputs = netlist.num_inputs
    fanouts = mapping.fanout_counts()

    arrival: Dict[int, float] = {}
    logic_component: Dict[int, float] = {}

    def source_arrival(node: int) -> float:
        if node in arrival:
            return arrival[node]
        # Primary input or constant feeding a LUT directly.
        return device.input_delay_ns if node < num_inputs else 0.0

    total_levels = 0
    for lut in sorted(mapping.luts, key=lambda l: l.level):
        worst_leaf = 0.0
        worst_logic = 0.0
        for leaf in lut.leaves:
            leaf_arrival = source_arrival(leaf)
            if leaf_arrival > worst_leaf:
                worst_leaf = leaf_arrival
                worst_logic = logic_component.get(leaf, 0.0)
        net_fanout = fanouts.get(lut.root, 1)
        routing = device.routing_delay_ns + device.routing_fanout_delay_ns * max(0, net_fanout - 1)
        arrival[lut.root] = worst_leaf + device.lut_delay_ns + routing
        logic_component[lut.root] = worst_logic + device.lut_delay_ns
        total_levels = max(total_levels, lut.level)

    critical = 0.0
    critical_logic = 0.0
    for bit in netlist.output_bits:
        bit_arrival = arrival.get(bit, source_arrival(bit) if bit < num_inputs else 0.0)
        if bit_arrival > critical:
            critical = bit_arrival
            critical_logic = logic_component.get(bit, 0.0)

    if not mapping.luts and critical == 0.0:
        # Pure-wire / constant circuit: only the input delay remains.
        critical = device.input_delay_ns if netlist.output_bits else 0.0

    routing_delay = max(0.0, critical - critical_logic - device.input_delay_ns)
    return TimingReport(
        critical_path_ns=critical,
        logic_levels=total_levels,
        logic_delay_ns=critical_logic,
        routing_delay_ns=routing_delay,
    )
