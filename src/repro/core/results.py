"""Result containers of the ApproxFPGAs flow."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..asic import AsicReport
from ..error import ErrorReport
from ..fpga import FpgaReport
from .exploration import ExplorationCost


@dataclass
class CircuitRecord:
    """Everything the flow knows about one circuit of the library."""

    name: str
    error: ErrorReport
    asic: AsicReport
    features: np.ndarray
    fpga: Optional[FpgaReport] = None
    """Measured FPGA report; ``None`` until the circuit has been synthesized."""

    estimated: Dict[str, float] = field(default_factory=dict)
    """Model estimates of the FPGA parameters (parameter name -> value)."""

    @property
    def synthesized(self) -> bool:
        return self.fpga is not None


@dataclass
class ModelEvaluation:
    """Validation outcome of one (model, FPGA parameter) pair."""

    model_id: str
    parameter: str
    fidelity: float
    pearson: float
    r2: float
    train_time_s: float
    """Host time of the fit plus the validation predict, as measured by the
    run that computed the engine's ``zoo`` entry.  A study served from the
    cache reports that stored time, so its ``model_time_s`` (Fig. 3) equals
    the cold study's."""


@dataclass
class ParameterOutcome:
    """Per-FPGA-parameter outcome of the flow."""

    parameter: str
    top_models: List[str]
    candidate_names: List[str]
    """Circuits selected by the pseudo-Pareto fronts (union over models/fronts)."""

    final_front_names: List[str]
    """Measured Pareto-optimal circuits among all synthesized circuits."""

    true_front_names: List[str] = field(default_factory=list)
    """Oracle Pareto front over the full library (only when coverage is evaluated)."""

    coverage: Optional[float] = None


@dataclass
class ApproxFpgasResult:
    """Full outcome of one ApproxFPGAs run (:mod:`repro.core.stages`)."""

    library_name: str
    kind: str
    bitwidth: int
    records: Dict[str, CircuitRecord]
    model_evaluations: List[ModelEvaluation]
    parameter_outcomes: Dict[str, ParameterOutcome]
    exploration_cost: ExplorationCost
    training_names: List[str]
    validation_names: List[str]

    # ------------------------------------------------------------------ #
    def fidelity_table(self) -> Dict[str, Dict[str, float]]:
        """parameter -> model id -> fidelity (the data behind Fig. 5)."""
        table: Dict[str, Dict[str, float]] = {}
        for evaluation in self.model_evaluations:
            table.setdefault(evaluation.parameter, {})[evaluation.model_id] = evaluation.fidelity
        return table

    def top_models(self, parameter: str, k: int = 3) -> List[Tuple[str, float]]:
        """The ``k`` best models for ``parameter`` by validation fidelity (Table II)."""
        rows = [
            (evaluation.model_id, evaluation.fidelity)
            for evaluation in self.model_evaluations
            if evaluation.parameter == parameter
        ]
        rows.sort(key=lambda item: item[1], reverse=True)
        return rows[:k]

    def synthesized_names(self) -> List[str]:
        return [name for name, record in self.records.items() if record.synthesized]

    def num_synthesized(self) -> int:
        return len(self.synthesized_names())

    def measured(self, parameter: str) -> Dict[str, float]:
        """Measured FPGA parameter values of all synthesized circuits."""
        values: Dict[str, float] = {}
        for name, record in self.records.items():
            if record.fpga is not None:
                values[name] = record.fpga.parameter(parameter)
        return values

    def summary(self) -> Dict[str, object]:
        """Compact dictionary used by the benchmarks and EXPERIMENTS.md."""
        return {
            "library": self.library_name,
            "num_circuits": len(self.records),
            "num_synthesized": self.num_synthesized(),
            "speedup": self.exploration_cost.speedup,
            "coverage": {
                parameter: outcome.coverage
                for parameter, outcome in self.parameter_outcomes.items()
            },
            "top_models": {
                parameter: outcome.top_models
                for parameter, outcome in self.parameter_outcomes.items()
            },
        }
