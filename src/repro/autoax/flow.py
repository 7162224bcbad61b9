"""Configuration and results of the AutoAx-FPGA flow (the paper's case study, Fig. 9).

Given the Pareto-optimal FPGA approximate components produced by the
ApproxFPGAs methodology (9 multipliers and 8 adders in the paper), the flow:

1. evaluates a random sample of accelerator configurations exactly
   (behavioural SSIM + composed FPGA cost) to build a training set;
2. trains a QoR estimator and a HW-cost estimator per FPGA parameter
   (fits are cached by model and training data, so the QoR forest is grown
   once per study);
3. runs the configured search strategy in each (parameter, SSIM) plane to
   select a small set of candidate configurations;
4. re-evaluates the candidates exactly and reports, per scenario, the final
   Pareto front next to a plain random-search baseline.

The stages live in :mod:`repro.autoax.stages`; run the flow with
:meth:`repro.api.ExplorationSession.run_autoax`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.pareto import hypervolume_2d
from ..fpga import FPGA_PARAMETERS
from ..workloads import WORKLOADS
from .search import SEARCH_STRATEGIES, EvaluatedConfiguration, _non_dominated


@dataclass
class AutoAxConfig:
    """Configuration of the AutoAx-FPGA case study."""

    parameters: Sequence[str] = ("latency", "power", "area")
    """FPGA cost parameters to optimise, one scenario each: distinct names
    from :data:`repro.fpga.FPGA_PARAMETERS`, stored as a tuple."""
    num_training_samples: int = 80
    num_random_baseline: int = 80
    hill_climb_iterations: int = 300
    image_size: int = 48
    seed: int = 17
    search_strategy: str = "hill_climb"
    """Key into :data:`repro.autoax.SEARCH_STRATEGIES` selecting how the
    candidate configurations are searched per scenario (built-ins:
    ``"hill_climb"``, ``"random_archive"`` and the population-based
    ``"nsga2"``, which scores whole generations through the estimators in
    one batched call, and the multi-fidelity ``"sh_ehvi"``)."""
    workload: str = "gaussian"
    """Key into :data:`repro.workloads.WORKLOADS` selecting which
    accelerator case study the flow optimises (built-ins: the image trio
    ``"gaussian"`` / ``"sobel"`` / ``"sharpen"`` and the 1-D signal
    family ``"mvm"`` / ``"dct"`` / ``"fir"`` / ``"fir_mixed"``).  The
    workload defines the datapath, the slot shape, the quality metric and
    the default seeded input set (2-D images or 1-D signals)."""
    fidelity_ladder: Optional[Sequence[int]] = None
    """Ascending reduced-rung pixel budgets for multi-fidelity strategies
    (``"sh_ehvi"``); each rung evaluates on a centre-cropped input set of
    at most that many total pixels, and the full-fidelity rung is always
    appended by the strategy.  ``None`` lets the strategy derive its
    default geometric ladder; single-fidelity strategies ignore the
    knob."""

    def __post_init__(self) -> None:
        if isinstance(self.parameters, str):
            raise ValueError(
                f"parameters must be a sequence of FPGA parameter names, "
                f"not the string {self.parameters!r}"
            )
        parameters = tuple(self.parameters)
        unknown = [name for name in parameters if name not in FPGA_PARAMETERS]
        if unknown:
            raise ValueError(
                f"unknown FPGA parameters {unknown} in {parameters!r}; "
                f"available: {list(FPGA_PARAMETERS)}"
            )
        if len(set(parameters)) != len(parameters):
            raise ValueError(f"duplicate FPGA parameters in {parameters!r}")
        self.parameters = parameters
        if self.num_training_samples < 2:
            raise ValueError("num_training_samples must be at least 2")
        if self.num_random_baseline < 1:
            raise ValueError("num_random_baseline must be at least 1")
        if self.fidelity_ladder is not None:
            ladder = tuple(int(f) for f in self.fidelity_ladder)
            if not ladder:
                raise ValueError("fidelity_ladder must be None or a non-empty sequence")
            if any(f < 1 for f in ladder):
                raise ValueError("fidelity_ladder budgets must be positive pixel counts")
            if any(b <= a for a, b in zip(ladder, ladder[1:])):
                raise ValueError("fidelity_ladder budgets must be strictly ascending")
            self.fidelity_ladder = ladder
        if self.search_strategy not in SEARCH_STRATEGIES:
            raise ValueError(
                f"unknown search strategy {self.search_strategy!r}; "
                f"available: {SEARCH_STRATEGIES.keys()}"
            )
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; available: {WORKLOADS.keys()}"
            )


@dataclass
class ScenarioResult:
    """Outcome of one (FPGA parameter, SSIM) optimisation scenario."""

    parameter: str
    candidates: List[EvaluatedConfiguration]
    front: List[EvaluatedConfiguration]
    num_candidates: int

    def front_points(self) -> np.ndarray:
        """(cost, ssim) points of the final front."""
        return np.array([[entry.cost[self.parameter], entry.quality] for entry in self.front])


@dataclass
class AutoAxResult:
    """Full outcome of the AutoAx-FPGA flow."""

    scenarios: Dict[str, ScenarioResult]
    baseline: List[EvaluatedConfiguration]
    design_space_size: int
    runtime_s: float
    training_size: int

    def baseline_front(self, parameter: str) -> List[EvaluatedConfiguration]:
        """Pareto front of the random-search baseline for one parameter."""
        return _non_dominated(self.baseline, parameter)

    def hypervolume_comparison(self, parameter: str) -> Dict[str, float]:
        """Dominated hypervolume of AutoAx-FPGA vs the random baseline.

        Both fronts are measured in the (cost, 1 - SSIM) plane against a
        shared reference point; larger is better.
        """
        scenario = self.scenarios[parameter]
        autoax_points = np.array(
            [[entry.cost[parameter], 1.0 - entry.quality] for entry in scenario.candidates]
        )
        baseline_points = np.array(
            [[entry.cost[parameter], 1.0 - entry.quality] for entry in self.baseline]
        )
        combined = np.vstack([autoax_points, baseline_points])
        reference = combined.max(axis=0) * 1.05 + 1e-9
        return {
            "autoax": hypervolume_2d(autoax_points, reference),
            "random": hypervolume_2d(baseline_points, reference),
        }
