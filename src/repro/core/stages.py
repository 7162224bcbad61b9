"""Stage decomposition of the ApproxFPGAs flow on the :mod:`repro.api` pipeline.

The eight-step methodology of Fig. 2 is expressed as five/six named
:class:`~repro.api.pipeline.Stage` objects over a shared
:class:`ApproxFpgasState`.  Every stage reaches its errors, syntheses and
model scores through the state's evaluation engine, so a repeated or
interrupted run over the same library is served from the engine cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..api.pipeline import Pipeline, PipelineRun, Stage
from ..engine import BatchEvaluator
from ..error import ERROR_METRICS
from ..features import feature_matrix
from ..fpga import FpgaSynthesizer, estimate_synthesis_time
from ..generators import CircuitLibrary
from ..ml import build_model
from .exploration import ExplorationCost
from ..search import ParetoArchive
from .pareto import pareto_coverage, pareto_front_indices, pareto_union, successive_pareto_fronts
from .results import ApproxFpgasResult, CircuitRecord, ModelEvaluation, ParameterOutcome

__all__ = [
    "ApproxFpgasState",
    "approxfpgas_stages",
    "build_approxfpgas_result",
    "run_approxfpgas_pipeline",
    "select_training_subset",
    "EvaluateLibraryStage",
    "SynthesizeTrainingSubsetStage",
    "FitAndSelectStage",
    "ResynthesizeCandidatesStage",
    "MeasureFrontsStage",
    "EvaluateCoverageStage",
]


# --------------------------------------------------------------------- #
# Shared state
# --------------------------------------------------------------------- #
@dataclass
class ApproxFpgasState:
    """Mutable working state threaded through the ApproxFPGAs stages."""

    library: CircuitLibrary
    config: "ApproxFpgasConfig"  # noqa: F821 - imported lazily to avoid a cycle
    engine: BatchEvaluator

    records: Dict[str, CircuitRecord] = field(default_factory=dict)
    features: Optional[np.ndarray] = None
    feature_names: List[str] = field(default_factory=list)

    subset_names: List[str] = field(default_factory=list)
    training_names: List[str] = field(default_factory=list)
    validation_names: List[str] = field(default_factory=list)
    evaluations: List[ModelEvaluation] = field(default_factory=list)
    parameter_outcomes: Dict[str, ParameterOutcome] = field(default_factory=dict)
    candidate_union: Dict[str, List[str]] = field(default_factory=dict)

    training_time_s: float = 0.0
    resynthesis_time_s: float = 0.0
    model_time_s: float = 0.0

    @classmethod
    def create(
        cls,
        library: CircuitLibrary,
        config: Optional["ApproxFpgasConfig"] = None,  # noqa: F821
        *,
        engine: BatchEvaluator,
    ) -> "ApproxFpgasState":
        """Build a state for one run of ``library`` through ``engine``."""
        from .methodology import ApproxFpgasConfig

        if len(library) == 0:
            raise ValueError("the circuit library is empty")
        return cls(library=library, config=config or ApproxFpgasConfig(), engine=engine)

    # ------------------------------------------------------------------ #
    @property
    def names(self) -> List[str]:
        return [circuit.name for circuit in self.library]

    @property
    def fpga_synthesizer(self) -> FpgaSynthesizer:
        if self.engine.fpga_synthesizer is None:
            self.engine.fpga_synthesizer = FpgaSynthesizer()
        return self.engine.fpga_synthesizer

    def error_value(self, name: str) -> float:
        """The configured error metric of one circuit, via the metric registry."""
        extract = ERROR_METRICS.get(self.config.error_metric)
        return float(extract(self.records[name].error.metrics))


def select_training_subset(library: CircuitLibrary, config) -> List[str]:
    """Stage 3 selection: the random subset that will be synthesized first."""
    count = max(
        config.min_training_circuits,
        int(round(config.training_fraction * len(library))),
    )
    count = min(count, len(library))
    rng = np.random.default_rng(config.seed)
    indices = rng.choice(len(library), size=count, replace=False)
    return [library[int(i)].name for i in sorted(indices)]


# --------------------------------------------------------------------- #
# Stages
# --------------------------------------------------------------------- #
class EvaluateLibraryStage(Stage):
    """Stages 1-2: error metrics, ASIC reports and feature vectors."""

    name = "evaluate-library"

    def compute(self, state: ApproxFpgasState) -> None:
        circuits = list(state.library)
        error_reports = state.engine.evaluate_errors(circuits)
        asic_reports = state.engine.evaluate_asic(circuits)
        features, feature_names = feature_matrix(circuits, asic_reports=asic_reports)
        state.features = features
        state.feature_names = list(feature_names)
        state.records = {
            circuit.name: CircuitRecord(
                name=circuit.name, error=error, asic=asic, features=features[index]
            )
            for index, (circuit, error, asic) in enumerate(
                zip(circuits, error_reports, asic_reports)
            )
        }


class SynthesizeTrainingSubsetStage(Stage):
    """Stage 3: synthesize a random training subset on the target FPGA."""

    name = "synthesize-training-subset"

    def compute(self, state: ApproxFpgasState) -> None:
        state.subset_names = select_training_subset(state.library, state.config)
        circuits = [state.library.get(name) for name in state.subset_names]
        for circuit, report in zip(circuits, state.engine.evaluate_fpga(circuits)):
            state.records[circuit.name].fpga = report
        device = state.fpga_synthesizer.device
        state.training_time_s = float(
            sum(estimate_synthesis_time(circuit, device) for circuit in circuits)
        )


class FitAndSelectStage(Stage):
    """Stages 4-6: train/validate the model zoo, estimate the whole library
    with the top-k models and take the union of their pseudo-Pareto fronts.

    Each (FPGA parameter, model) pair is one ``zoo`` engine result
    (:meth:`repro.engine.BatchEvaluator.evaluate_models`): its validation
    scores, its measured fit time and its estimate of every library
    circuit.  The stage fits nothing itself, so a study repeated over the
    same library, split and model set is served from the engine cache.
    """

    name = "fit-and-select"

    def compute(self, state: ApproxFpgasState) -> None:
        config = state.config
        records = state.records
        names = state.names

        # --- Stage 4: train and validate the model zoo ------------------ #
        rng = np.random.default_rng(config.seed + 1)
        shuffled = list(state.subset_names)
        rng.shuffle(shuffled)
        num_validation = max(1, int(round(config.validation_fraction * len(shuffled))))
        if num_validation >= len(shuffled):
            num_validation = len(shuffled) - 1
        state.validation_names = shuffled[:num_validation]
        state.training_names = shuffled[num_validation:]

        X_train = np.vstack([records[name].features for name in state.training_names])
        X_val = np.vstack([records[name].features for name in state.validation_names])

        models = [
            build_model(model_id, state.feature_names, random_state=config.seed)
            for model_id in config.model_ids
        ]
        state.evaluations = []
        library_estimates: Dict[Tuple[str, str], List[float]] = {}
        for parameter in config.fpga_parameters:
            y_train = np.array(
                [records[name].fpga.parameter(parameter) for name in state.training_names]
            )
            y_val = np.array(
                [records[name].fpga.parameter(parameter) for name in state.validation_names]
            )
            entries = state.engine.evaluate_models(
                models, X_train, y_train, X_val, y_val, state.features
            )
            for model_id, entry in zip(config.model_ids, entries):
                library_estimates[(parameter, model_id)] = entry["estimates"]
                state.evaluations.append(
                    ModelEvaluation(
                        model_id=model_id,
                        parameter=parameter,
                        fidelity=float(entry["fidelity"]),
                        pearson=float(entry["pearson"]),
                        r2=float(entry["r2"]),
                        train_time_s=float(entry["train_time_s"]),
                    )
                )
        state.model_time_s = float(
            sum(evaluation.train_time_s for evaluation in state.evaluations)
        )

        # --- Stage 5-6: estimate all circuits, build pseudo-Pareto fronts #
        errors = np.array([state.error_value(name) for name in names])
        state.parameter_outcomes = {}
        state.candidate_union = {}
        for parameter in config.fpga_parameters:
            # Rank by validation fidelity; break ties with the Pearson
            # correlation so continuous estimators win over piecewise-constant
            # ones that happen to tie on a small validation set.
            ranked = sorted(
                (e for e in state.evaluations if e.parameter == parameter),
                key=lambda e: (e.fidelity, e.pearson),
                reverse=True,
            )
            top_models = [evaluation.model_id for evaluation in ranked[: config.top_k_models]]

            fronts_per_model: List[List[int]] = []
            for model_id in top_models:
                model_estimates = library_estimates[(parameter, model_id)]
                points = np.column_stack([errors, model_estimates])
                fronts = successive_pareto_fronts(points, config.num_pseudo_fronts)
                fronts_per_model.extend(fronts)
                # Remember the estimate of the best-ranked model per circuit.
                if model_id == top_models[0]:
                    for index, name in enumerate(names):
                        records[name].estimated[parameter] = float(model_estimates[index])

            candidate_names = [names[index] for index in pareto_union(fronts_per_model)]
            state.candidate_union[parameter] = candidate_names
            state.parameter_outcomes[parameter] = ParameterOutcome(
                parameter=parameter,
                top_models=top_models,
                candidate_names=candidate_names,
                final_front_names=[],
            )


class ResynthesizeCandidatesStage(Stage):
    """Stage 7: synthesize the selected candidates that are still unmeasured."""

    name = "resynthesize-candidates"

    def compute(self, state: ApproxFpgasState) -> None:
        device = state.fpga_synthesizer.device
        resynthesis_time_s = 0.0
        for parameter in state.config.fpga_parameters:
            pending = [
                state.library.get(name)
                for name in state.candidate_union[parameter]
                if state.records[name].fpga is None
            ]
            for circuit, report in zip(pending, state.engine.evaluate_fpga(pending)):
                state.records[circuit.name].fpga = report
                resynthesis_time_s += estimate_synthesis_time(circuit, device)
        state.resynthesis_time_s = float(resynthesis_time_s)


class MeasureFrontsStage(Stage):
    """Stage 8: measured Pareto fronts over every synthesized circuit.

    Front bookkeeping goes through the shared
    :class:`repro.search.ParetoArchive` (incremental non-dominated
    insertion); circuit names are the archive keys, so the front reads
    straight out of the archive in measured-name order.
    """

    name = "measure-fronts"

    def compute(self, state: ApproxFpgasState) -> None:
        measured_names = sorted(
            name for name, record in state.records.items() if record.synthesized
        )
        for parameter in state.config.fpga_parameters:
            front = ParetoArchive(num_objectives=2)
            for name in measured_names:
                front.insert(
                    name,
                    (state.error_value(name), state.records[name].fpga.parameter(parameter)),
                )
            state.parameter_outcomes[parameter].final_front_names = front.keys()


class EvaluateCoverageStage(Stage):
    """Stage 9 (evaluation only): synthesize the remaining circuits outside
    the time accounting and measure the coverage of the true Pareto front."""

    name = "evaluate-coverage"

    def compute(self, state: ApproxFpgasState) -> None:
        names = state.names
        records = state.records
        flow_synthesized = {name for name, record in records.items() if record.synthesized}
        missing = [state.library.get(name) for name in names if records[name].fpga is None]
        for circuit, report in zip(missing, state.engine.evaluate_fpga(missing)):
            records[circuit.name].fpga = report

        errors = np.array([state.error_value(name) for name in names])
        name_to_index = {name: index for index, name in enumerate(names)}
        for parameter in state.config.fpga_parameters:
            points = np.column_stack(
                [errors, [records[name].fpga.parameter(parameter) for name in names]]
            )
            true_front = pareto_front_indices(points)
            flow_indices = [name_to_index[name] for name in flow_synthesized]
            outcome = state.parameter_outcomes[parameter]
            outcome.true_front_names = [names[i] for i in true_front]
            outcome.coverage = float(pareto_coverage(true_front, flow_indices))


# --------------------------------------------------------------------- #
# Pipeline assembly
# --------------------------------------------------------------------- #
def approxfpgas_stages(config) -> List[Stage]:
    """The stage sequence of the ApproxFPGAs flow for one configuration."""
    stages: List[Stage] = [
        EvaluateLibraryStage(),
        SynthesizeTrainingSubsetStage(),
        FitAndSelectStage(),
        ResynthesizeCandidatesStage(),
        MeasureFrontsStage(),
    ]
    if config.evaluate_coverage:
        stages.append(EvaluateCoverageStage())
    return stages


def build_approxfpgas_result(state: ApproxFpgasState) -> ApproxFpgasResult:
    """Assemble the public result object from a fully-run state."""
    exploration_cost = ExplorationCost(
        library_name=state.library.name,
        num_circuits=len(state.library),
        exhaustive_time_s=float(
            sum(
                estimate_synthesis_time(circuit, state.fpga_synthesizer.device)
                for circuit in state.library
            )
        ),
        training_time_s=state.training_time_s,
        resynthesis_time_s=state.resynthesis_time_s,
        model_time_s=state.model_time_s,
    )
    return ApproxFpgasResult(
        library_name=state.library.name,
        kind=state.library.kind,
        bitwidth=state.library.bitwidth,
        records=state.records,
        model_evaluations=state.evaluations,
        parameter_outcomes=state.parameter_outcomes,
        exploration_cost=exploration_cost,
        training_names=state.training_names,
        validation_names=state.validation_names,
    )


def run_approxfpgas_pipeline(
    library: CircuitLibrary,
    config=None,
    *,
    engine: BatchEvaluator,
    progress=None,
) -> Tuple[ApproxFpgasResult, PipelineRun]:
    """Run the staged ApproxFPGAs flow through ``engine``.

    :meth:`repro.api.ExplorationSession.run_approxfpgas` passes the
    session's engine for the library's golden reference.  Returns the
    result together with the :class:`~repro.api.pipeline.PipelineRun`
    carrying per-stage timings.
    """
    state = ApproxFpgasState.create(library, config, engine=engine)
    run = Pipeline(approxfpgas_stages(state.config), progress=progress).run(state)
    return build_approxfpgas_result(state), run
