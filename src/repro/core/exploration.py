"""Exploration-time accounting (Fig. 3).

The paper's headline efficiency claim is bookkeeping over synthesis time:
exhaustive exploration synthesizes every circuit in every library, while
ApproxFPGAs synthesizes only the training subset plus the circuits on the
union of pseudo-Pareto fronts, and adds the (comparatively negligible) model
training time.  This module provides that accounting on top of the modeled
per-circuit synthesis time of :func:`repro.fpga.estimate_synthesis_time`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..circuits import Netlist
from ..fpga import FpgaDevice, estimate_synthesis_time


@dataclass(frozen=True)
class ExplorationCost:
    """Synthesis-time accounting for one circuit library."""

    library_name: str
    num_circuits: int
    exhaustive_time_s: float
    training_time_s: float
    resynthesis_time_s: float
    model_time_s: float = 0.0

    @property
    def approxfpgas_time_s(self) -> float:
        """Total time of the proposed flow for this library."""
        return self.training_time_s + self.resynthesis_time_s + self.model_time_s

    @property
    def speedup(self) -> float:
        """Exhaustive time divided by ApproxFPGAs time."""
        denominator = max(self.approxfpgas_time_s, 1e-9)
        return self.exhaustive_time_s / denominator

    def as_dict(self) -> Dict[str, float]:
        return {
            "num_circuits": self.num_circuits,
            "exhaustive_time_s": self.exhaustive_time_s,
            "training_time_s": self.training_time_s,
            "resynthesis_time_s": self.resynthesis_time_s,
            "model_time_s": self.model_time_s,
            "approxfpgas_time_s": self.approxfpgas_time_s,
            "speedup": self.speedup,
        }


def total_synthesis_time(circuits: Iterable[Netlist], device: Optional[FpgaDevice] = None) -> float:
    """Sum of the modeled synthesis times of ``circuits`` in seconds."""
    return float(sum(estimate_synthesis_time(circuit, device) for circuit in circuits))


@dataclass
class ExplorationSummary:
    """Aggregate of several libraries (the cumulative curves of Fig. 3)."""

    costs: List[ExplorationCost] = field(default_factory=list)

    def add(self, cost: ExplorationCost) -> None:
        self.costs.append(cost)

    @property
    def exhaustive_total_s(self) -> float:
        return sum(cost.exhaustive_time_s for cost in self.costs)

    @property
    def approxfpgas_total_s(self) -> float:
        return sum(cost.approxfpgas_time_s for cost in self.costs)

    @property
    def overall_speedup(self) -> float:
        return self.exhaustive_total_s / max(self.approxfpgas_total_s, 1e-9)

    def cumulative_rows(self) -> List[Dict[str, float]]:
        """Per-library rows plus running cumulative sums (the Fig. 3 series)."""
        rows: List[Dict[str, float]] = []
        cumulative_exhaustive = 0.0
        cumulative_approx = 0.0
        for cost in self.costs:
            cumulative_exhaustive += cost.exhaustive_time_s
            cumulative_approx += cost.approxfpgas_time_s
            rows.append(
                {
                    "library": cost.library_name,
                    "exhaustive_time_s": cost.exhaustive_time_s,
                    "approxfpgas_time_s": cost.approxfpgas_time_s,
                    "cumulative_exhaustive_s": cumulative_exhaustive,
                    "cumulative_approxfpgas_s": cumulative_approx,
                }
            )
        return rows


def seconds_to_days(seconds: float) -> float:
    """Convenience conversion used when reporting Fig. 3 style numbers."""
    return seconds / 86400.0
