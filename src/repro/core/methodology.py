"""The end-to-end ApproxFPGAs flow (Fig. 2 of the paper).

The flow takes a library of approximate circuits and produces the set of
Pareto-optimal FPGA approximate circuits (FPGA-ACs) while synthesizing only a
small fraction of the library:

1. evaluate the error (MED) of every circuit with its behavioural model;
2. obtain ASIC reports (cheap) and build feature vectors for every circuit;
3. synthesize a random training subset for the target FPGA;
4. train the Table I S/ML models per FPGA parameter and rank them by
   fidelity on a held-out validation split;
5. estimate the FPGA parameters of the whole library with the top-k models;
6. build several successive pseudo-Pareto fronts per (model, parameter) in
   the (error, estimated cost) plane and take their union;
7. re-synthesize the selected candidates to obtain measured FPGA costs;
8. report the measured Pareto front, the synthesis-time accounting, and
   (optionally, for evaluation) the coverage of the true Pareto front.

The stages live in :mod:`repro.core.stages` on top of the :mod:`repro.api`
pipeline; run the flow with :meth:`repro.api.ExplorationSession.run_approxfpgas`,
which adds shared caching, artifact checkpointing and resumable runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..error import ERROR_METRICS
from ..fpga import FPGA_PARAMETERS
from ..ml import MODELS


@dataclass
class ApproxFpgasConfig:
    """Configuration of the ApproxFPGAs flow.

    The defaults follow the paper's recipe: a small synthesized subset (15%
    of the library by default, floored at ``min_training_circuits``) split
    80/20 into training and validation, the three FPGA parameters, three
    pseudo-Pareto fronts and the union of the top-3 models per parameter.
    """

    training_fraction: float = 0.15
    validation_fraction: float = 0.2
    min_training_circuits: int = 20
    num_pseudo_fronts: int = 3
    top_k_models: int = 3
    model_ids: Sequence[str] = field(default_factory=lambda: list(MODELS))
    fpga_parameters: Sequence[str] = FPGA_PARAMETERS
    error_metric: str = "med"
    seed: int = 42
    evaluate_coverage: bool = True
    """Synthesize the remaining circuits (outside the time accounting) to
    measure how much of the true Pareto front the flow recovered."""

    def __post_init__(self) -> None:
        if not (0.0 < self.training_fraction <= 1.0):
            raise ValueError("training_fraction must be in (0, 1]")
        if not (0.0 < self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must be in (0, 1)")
        if self.min_training_circuits < 2:
            raise ValueError(
                "min_training_circuits must be at least 2 (one training and "
                "one validation circuit)"
            )
        if self.num_pseudo_fronts < 1:
            raise ValueError("num_pseudo_fronts must be at least 1")
        if self.top_k_models < 1:
            raise ValueError("top_k_models must be at least 1")
        unknown = set(self.fpga_parameters) - set(FPGA_PARAMETERS)
        if unknown:
            raise ValueError(f"unknown FPGA parameters: {sorted(unknown)}")
        if self.error_metric not in ERROR_METRICS:
            raise ValueError(
                f"unknown error metric {self.error_metric!r}; "
                f"available: {ERROR_METRICS.keys()}"
            )
