"""The ApproxFPGAs methodology: fidelity, Pareto machinery and the full flow."""

from .fidelity import fidelity, fidelity_strict, pairwise_relation_matrix
from .pareto import (
    dominates,
    hypervolume_2d,
    pareto_coverage,
    pareto_front_indices,
    pareto_union,
    successive_pareto_fronts,
)
from .exploration import (
    ExplorationCost,
    ExplorationSummary,
    seconds_to_days,
    total_synthesis_time,
)
from .results import (
    ApproxFpgasResult,
    CircuitRecord,
    ModelEvaluation,
    ParameterOutcome,
)
from .methodology import ApproxFpgasConfig
from .stages import (
    ApproxFpgasState,
    approxfpgas_stages,
    build_approxfpgas_result,
    run_approxfpgas_pipeline,
)

__all__ = [
    "fidelity",
    "fidelity_strict",
    "pairwise_relation_matrix",
    "dominates",
    "hypervolume_2d",
    "pareto_coverage",
    "pareto_front_indices",
    "pareto_union",
    "successive_pareto_fronts",
    "ExplorationCost",
    "ExplorationSummary",
    "seconds_to_days",
    "total_synthesis_time",
    "ApproxFpgasResult",
    "CircuitRecord",
    "ModelEvaluation",
    "ParameterOutcome",
    "ApproxFpgasConfig",
    "ApproxFpgasState",
    "approxfpgas_stages",
    "build_approxfpgas_result",
    "run_approxfpgas_pipeline",
]
