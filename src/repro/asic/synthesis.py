"""ASIC synthesis substrate.

"Synthesis" here is a deterministic gate-level cost analysis against a
standard-cell library: each live primitive gate becomes one cell, the
critical path is a load-aware longest path, dynamic power comes from the
per-node switching activity and the operating frequency is derived from the
critical path.  This is the stand-in for the commercial ASIC reports the
paper uses as ML features and for the ASIC Pareto front of Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..circuits import GATE_ARITY, Netlist
from ..circuits.activity import node_switching_activities
from .cell_library import CellLibrary, default_cell_library


@dataclass(frozen=True)
class AsicReport:
    """Area / timing / power report of an ASIC mapping."""

    circuit_name: str
    area_um2: float
    critical_path_ns: float
    dynamic_power_mw: float
    leakage_power_mw: float
    cell_count: int

    @property
    def total_power_mw(self) -> float:
        return self.dynamic_power_mw + self.leakage_power_mw

    @property
    def latency_ns(self) -> float:
        """Alias used by the methodology (matches the FPGA report naming)."""
        return self.critical_path_ns

    def as_dict(self) -> Dict[str, float]:
        return {
            "asic_area_um2": self.area_um2,
            "asic_latency_ns": self.critical_path_ns,
            "asic_power_mw": self.total_power_mw,
            "asic_dynamic_power_mw": self.dynamic_power_mw,
            "asic_leakage_power_mw": self.leakage_power_mw,
            "asic_cell_count": self.cell_count,
        }


class AsicSynthesizer:
    """Maps netlists onto a standard-cell library and reports costs.

    Parameters
    ----------
    cell_library:
        The target library; defaults to the bundled 45nm-class library.
    clock_period_ns:
        Assumed operating period used to convert switching energy into
        dynamic power.  When ``None``, the circuit's own critical path is
        used (i.e. the circuit runs at its maximum frequency).
    activity_samples, activity_seed:
        Monte-Carlo parameters for the switching-activity estimate; at
        least one sample (``ValueError`` otherwise).
    """

    def __init__(
        self,
        cell_library: Optional[CellLibrary] = None,
        clock_period_ns: Optional[float] = None,
        activity_samples: int = 256,
        activity_seed: int = 99,
    ):
        if activity_samples < 1:
            raise ValueError(f"activity_samples must be at least 1, got {activity_samples}")
        self.cell_library = cell_library or default_cell_library()
        self.clock_period_ns = clock_period_ns
        self.activity_samples = activity_samples
        self.activity_seed = activity_seed

    def synthesize(self, netlist: Netlist) -> AsicReport:
        """Produce the ASIC area / timing / power report for ``netlist``."""
        num_inputs = netlist.num_inputs
        live = netlist.transitive_fanin().tolist()
        fanouts = netlist.fanout_counts().tolist()
        activities = node_switching_activities(
            netlist, num_samples=self.activity_samples, seed=self.activity_seed
        )
        cell_of = self.cell_library.cell

        area = 0.0
        leakage_nw = 0.0
        switched_energy_fj = 0.0
        cell_count = 0

        # Load-aware longest path: arrival time of each node.
        arrival = [0.0] * len(live)
        for node_id, gate in enumerate(netlist.gates, num_inputs):
            cell = cell_of(gate.gate_type)
            arity = GATE_ARITY[gate.gate_type]
            if arity == 2:
                arrival_a = arrival[gate.a]
                arrival_b = arrival[gate.b]
                operand_arrival = arrival_a if arrival_a >= arrival_b else arrival_b
            elif arity:
                operand_arrival = arrival[gate.a]
            else:
                operand_arrival = 0.0
            load = max(1, fanouts[node_id])
            arrival[node_id] = operand_arrival + cell.intrinsic_delay_ns + cell.load_delay_ns_per_fanout * load

            if not live[node_id]:
                continue
            cell_count += 1
            area += cell.area_um2
            leakage_nw += cell.leakage_nw
            switched_energy_fj += cell.switching_energy_fj * activities[node_id] * load

        critical_path = max((float(arrival[bit]) for bit in netlist.output_bits), default=0.0)
        critical_path = max(critical_path, 1e-3)

        period_ns = self.clock_period_ns if self.clock_period_ns else critical_path
        # fJ per cycle over a period in ns: 1 fJ / 1 ns = 1e-6 W = 1e-3 mW.
        dynamic_power_mw = (switched_energy_fj / period_ns) * 1e-3
        leakage_power_mw = leakage_nw * 1e-6

        return AsicReport(
            circuit_name=netlist.name,
            area_um2=area,
            critical_path_ns=critical_path,
            dynamic_power_mw=dynamic_power_mw,
            leakage_power_mw=leakage_power_mw,
            cell_count=cell_count,
        )


def synthesize_asic(netlist: Netlist, **kwargs) -> AsicReport:
    """One-shot convenience wrapper around :class:`AsicSynthesizer`."""
    return AsicSynthesizer(**kwargs).synthesize(netlist)
