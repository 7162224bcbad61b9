"""FPGA synthesis substrate: mapping, packing, timing, power and report.

This is the drop-in replacement for the Vivado synthesize + implement flow
used in the paper.  Given a gate-level netlist it produces an
:class:`FpgaReport` with the three FPGA parameters the methodology estimates
(#LUTs, latency, power), the slice count, and a *modeled* synthesis
wall-clock time.  The time model is calibrated against the paper's
observation that synthesizing 10% of the 4,494-circuit 8x8 multiplier
library took about six days, i.e. roughly 19 minutes per circuit on their
machine; it is what the exploration-time accounting of Fig. 3 consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from ..circuits import Netlist
from .device import FpgaDevice, default_device
from .lut_mapping import LutMapping, map_to_luts
from .packing import PackingResult, pack_slices
from .power import PowerReport, analyze_power
from .timing import TimingReport, analyze_timing


@dataclass(frozen=True)
class FpgaReport:
    """Area / timing / power report of an FPGA implementation."""

    circuit_name: str
    luts: int
    slices: int
    logic_levels: int
    latency_ns: float
    dynamic_power_mw: float
    static_power_mw: float
    synthesis_time_s: float

    @property
    def total_power_mw(self) -> float:
        return self.dynamic_power_mw + self.static_power_mw

    @property
    def area_luts(self) -> float:
        """Alias: the paper's "area" FPGA parameter (#LUTs)."""
        return float(self.luts)

    def parameter(self, name: str) -> float:
        """Access one of the paper's three FPGA parameters by name."""
        if name == "latency":
            return self.latency_ns
        if name == "power":
            return self.total_power_mw
        if name == "area":
            return float(self.luts)
        raise KeyError(f"unknown FPGA parameter {name!r}")

    def as_dict(self) -> Dict[str, float]:
        return {
            "fpga_luts": self.luts,
            "fpga_slices": self.slices,
            "fpga_logic_levels": self.logic_levels,
            "fpga_latency_ns": self.latency_ns,
            "fpga_power_mw": self.total_power_mw,
            "fpga_dynamic_power_mw": self.dynamic_power_mw,
            "fpga_static_power_mw": self.static_power_mw,
            "fpga_synthesis_time_s": self.synthesis_time_s,
        }


#: The three FPGA parameters the methodology estimates, as named in the paper.
FPGA_PARAMETERS = ("latency", "power", "area")


def estimate_synthesis_time(netlist: Netlist, device: Optional[FpgaDevice] = None) -> float:
    """Modeled Vivado synthesis + implementation wall-clock time in seconds.

    The model grows slightly super-linearly with netlist size (placement and
    routing dominate) and is calibrated so an 8x8 approximate multiplier
    costs on the order of 15-20 minutes, matching the per-circuit time
    implied by the paper's motivational analysis.
    """
    gates = max(1, netlist.live_gate_count())
    inputs = netlist.num_inputs
    base_s = 55.0
    per_gate_s = 1.45
    congestion_s = 0.16 * gates * math.log2(gates + 1) / 8.0
    io_s = 1.8 * inputs
    return base_s + per_gate_s * gates + congestion_s + io_s


@dataclass
class FpgaSynthesisResult:
    """Full synthesis artefacts, for callers that need more than the report."""

    report: FpgaReport
    mapping: LutMapping
    packing: PackingResult
    timing: TimingReport
    power: PowerReport


class FpgaSynthesizer:
    """Maps netlists to the target FPGA and reports costs.

    Parameters
    ----------
    device:
        Target FPGA model; defaults to the bundled Virtex-7-class device.
    clock_period_ns:
        Operating period for the power model; ``None`` uses each circuit's
        critical path (maximum-frequency operation).
    activity_samples, activity_seed:
        Monte-Carlo parameters of the switching-activity estimation; at
        least one sample (``ValueError`` otherwise).
    """

    def __init__(
        self,
        device: Optional[FpgaDevice] = None,
        clock_period_ns: Optional[float] = None,
        activity_samples: int = 256,
        activity_seed: int = 99,
    ):
        if activity_samples < 1:
            raise ValueError(f"activity_samples must be at least 1, got {activity_samples}")
        self.device = device or default_device()
        self.clock_period_ns = clock_period_ns
        self.activity_samples = activity_samples
        self.activity_seed = activity_seed

    def synthesize_full(self, netlist: Netlist) -> FpgaSynthesisResult:
        """Run mapping, packing, timing and power analysis on ``netlist``."""
        mapping = map_to_luts(netlist, lut_size=self.device.lut_size)
        packing = pack_slices(mapping, self.device)
        timing = analyze_timing(mapping, self.device)
        power = analyze_power(
            mapping,
            self.device,
            timing,
            clock_period_ns=self.clock_period_ns,
            activity_samples=self.activity_samples,
            activity_seed=self.activity_seed,
        )
        report = FpgaReport(
            circuit_name=netlist.name,
            luts=mapping.num_luts,
            slices=packing.num_slices,
            logic_levels=timing.logic_levels,
            latency_ns=timing.critical_path_ns,
            dynamic_power_mw=power.dynamic_power_mw,
            static_power_mw=power.static_power_mw,
            synthesis_time_s=estimate_synthesis_time(netlist, self.device),
        )
        return FpgaSynthesisResult(
            report=report, mapping=mapping, packing=packing, timing=timing, power=power
        )

    def synthesize(self, netlist: Netlist) -> FpgaReport:
        """Produce only the FPGA report for ``netlist``."""
        return self.synthesize_full(netlist).report


def synthesize_fpga(netlist: Netlist, **kwargs) -> FpgaReport:
    """One-shot convenience wrapper around :class:`FpgaSynthesizer`."""
    return FpgaSynthesizer(**kwargs).synthesize(netlist)
