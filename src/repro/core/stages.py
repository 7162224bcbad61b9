"""Stage decomposition of the ApproxFPGAs flow on the :mod:`repro.api` pipeline.

The eight-step methodology of Fig. 2 is expressed as five/six named
:class:`~repro.api.pipeline.Stage` objects over a shared
:class:`ApproxFpgasState`.  Every stage payload is JSON-serialisable (it
reuses the evaluation engine's cache encodings), so a pipeline with an
artifact store checkpoints after each stage and an interrupted run resumes
from the last completed stage with bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..api.pipeline import Pipeline, PipelineRun, Stage
from ..engine import (
    BatchEvaluator,
    asic_report_from_payload,
    asic_report_to_payload,
    blake_token,
    error_report_from_payload,
    error_report_to_payload,
    fpga_report_from_payload,
    fpga_report_to_payload,
)
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
    "approxfpgas_run_token",
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

    def compute(self, state: ApproxFpgasState) -> dict:
        circuits = list(state.library)
        error_reports = state.engine.evaluate_errors(circuits)
        asic_reports = state.engine.evaluate_asic(circuits)
        features, feature_names = feature_matrix(circuits, asic_reports=asic_reports)
        return {
            "errors": [error_report_to_payload(report) for report in error_reports],
            "asic": [asic_report_to_payload(report) for report in asic_reports],
            "features": features.tolist(),
            "feature_names": list(feature_names),
        }

    def absorb(self, state: ApproxFpgasState, payload: dict) -> None:
        features = np.asarray(payload["features"], dtype=np.float64)
        state.features = features
        state.feature_names = list(payload["feature_names"])
        state.records = {}
        for index, circuit in enumerate(state.library):
            state.records[circuit.name] = CircuitRecord(
                name=circuit.name,
                error=error_report_from_payload(payload["errors"][index], circuit.name),
                asic=asic_report_from_payload(payload["asic"][index], circuit.name),
                features=features[index],
            )


class SynthesizeTrainingSubsetStage(Stage):
    """Stage 3: synthesize a random training subset on the target FPGA."""

    name = "synthesize-training-subset"

    def compute(self, state: ApproxFpgasState) -> dict:
        subset_names = select_training_subset(state.library, state.config)
        circuits = [state.library.get(name) for name in subset_names]
        reports = state.engine.evaluate_fpga(circuits)
        device = state.fpga_synthesizer.device
        training_time_s = float(
            sum(estimate_synthesis_time(circuit, device) for circuit in circuits)
        )
        return {
            "subset": subset_names,
            "fpga": [fpga_report_to_payload(report) for report in reports],
            "training_time_s": training_time_s,
        }

    def absorb(self, state: ApproxFpgasState, payload: dict) -> None:
        state.subset_names = list(payload["subset"])
        for name, report_payload in zip(state.subset_names, payload["fpga"]):
            state.records[name].fpga = fpga_report_from_payload(report_payload, name)
        state.training_time_s = float(payload["training_time_s"])


class FitAndSelectStage(Stage):
    """Stages 4-6: train/validate the model zoo, estimate the whole library
    with the top-k models and take the union of their pseudo-Pareto fronts.

    Each (FPGA parameter, model) pair is one ``zoo`` engine result
    (:meth:`repro.engine.BatchEvaluator.evaluate_models`): its validation
    scores, its measured fit time and its estimate of every library
    circuit.  The stage fits nothing itself, so a study repeated over the
    same library, split and model set is served from the engine cache.
    The payload carries only the scores, the top model's estimates and
    the selected candidate names, all JSON-serialisable.
    """

    name = "fit-and-select"

    def compute(self, state: ApproxFpgasState) -> dict:
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
        validation_names = shuffled[:num_validation]
        training_names = shuffled[num_validation:]

        X_train = np.vstack([records[name].features for name in training_names])
        X_val = np.vstack([records[name].features for name in validation_names])

        models = [
            build_model(model_id, state.feature_names, random_state=config.seed)
            for model_id in config.model_ids
        ]
        evaluations: List[dict] = []
        library_estimates: Dict[Tuple[str, str], List[float]] = {}
        for parameter in config.fpga_parameters:
            y_train = np.array(
                [records[name].fpga.parameter(parameter) for name in training_names]
            )
            y_val = np.array(
                [records[name].fpga.parameter(parameter) for name in validation_names]
            )
            entries = state.engine.evaluate_models(
                models, X_train, y_train, X_val, y_val, state.features
            )
            for model_id, entry in zip(config.model_ids, entries):
                scores = dict(entry)  # fidelity, pearson, r2, train_time_s
                library_estimates[(parameter, model_id)] = scores.pop("estimates")
                evaluations.append({"model_id": model_id, "parameter": parameter, **scores})
        model_time_s = sum(evaluation["train_time_s"] for evaluation in evaluations)

        # --- Stage 5-6: estimate all circuits, build pseudo-Pareto fronts #
        errors = np.array([state.error_value(name) for name in names])
        estimated: Dict[str, Dict[str, float]] = {}
        parameters: Dict[str, dict] = {}
        for parameter in config.fpga_parameters:
            # Rank by validation fidelity; break ties with the Pearson
            # correlation so continuous estimators win over piecewise-constant
            # ones that happen to tie on a small validation set.
            ranked = sorted(
                (e for e in evaluations if e["parameter"] == parameter),
                key=lambda e: (e["fidelity"], e["pearson"]),
                reverse=True,
            )
            top_models = [evaluation["model_id"] for evaluation in ranked[: config.top_k_models]]

            fronts_per_model: List[List[int]] = []
            for model_id in top_models:
                model_estimates = library_estimates[(parameter, model_id)]
                points = np.column_stack([errors, model_estimates])
                fronts = successive_pareto_fronts(points, config.num_pseudo_fronts)
                fronts_per_model.extend(fronts)
                # Remember the estimate of the best-ranked model per circuit.
                if model_id == top_models[0]:
                    estimated[parameter] = {
                        name: float(model_estimates[index])
                        for index, name in enumerate(names)
                    }

            candidate_indices = pareto_union(fronts_per_model)
            parameters[parameter] = {
                "top_models": top_models,
                "candidates": [names[index] for index in candidate_indices],
            }

        return {
            "training_names": training_names,
            "validation_names": validation_names,
            "model_evaluations": evaluations,
            "estimated": estimated,
            "parameters": parameters,
            "model_time_s": model_time_s,
        }

    def absorb(self, state: ApproxFpgasState, payload: dict) -> None:
        state.training_names = list(payload["training_names"])
        state.validation_names = list(payload["validation_names"])
        state.model_time_s = float(payload["model_time_s"])
        state.evaluations = [
            ModelEvaluation(
                model_id=entry["model_id"],
                parameter=entry["parameter"],
                fidelity=float(entry["fidelity"]),
                pearson=float(entry["pearson"]),
                r2=float(entry["r2"]),
                train_time_s=float(entry["train_time_s"]),
            )
            for entry in payload["model_evaluations"]
        ]
        state.parameter_outcomes = {}
        state.candidate_union = {}
        names = state.names
        for parameter in state.config.fpga_parameters:
            estimates = payload["estimated"].get(parameter, {})
            for name in names:
                if name in estimates:
                    state.records[name].estimated[parameter] = float(estimates[name])
            entry = payload["parameters"][parameter]
            candidate_names = list(entry["candidates"])
            state.candidate_union[parameter] = candidate_names
            state.parameter_outcomes[parameter] = ParameterOutcome(
                parameter=parameter,
                top_models=list(entry["top_models"]),
                candidate_names=candidate_names,
                final_front_names=[],
            )


class ResynthesizeCandidatesStage(Stage):
    """Stage 7: synthesize the selected candidates that are still unmeasured."""

    name = "resynthesize-candidates"

    def compute(self, state: ApproxFpgasState) -> dict:
        device = state.fpga_synthesizer.device
        new_reports: Dict[str, dict] = {}
        resynthesis_time_s = 0.0
        for parameter in state.config.fpga_parameters:
            pending = [
                state.library.get(name)
                for name in state.candidate_union[parameter]
                if state.records[name].fpga is None and name not in new_reports
            ]
            for circuit, report in zip(pending, state.engine.evaluate_fpga(pending)):
                new_reports[circuit.name] = fpga_report_to_payload(report)
                resynthesis_time_s += estimate_synthesis_time(circuit, device)
        return {"fpga": new_reports, "resynthesis_time_s": float(resynthesis_time_s)}

    def absorb(self, state: ApproxFpgasState, payload: dict) -> None:
        for name, report_payload in payload["fpga"].items():
            state.records[name].fpga = fpga_report_from_payload(report_payload, name)
        state.resynthesis_time_s = float(payload["resynthesis_time_s"])


class MeasureFrontsStage(Stage):
    """Stage 8: measured Pareto fronts over every synthesized circuit.

    Front bookkeeping goes through the shared
    :class:`repro.search.ParetoArchive` (incremental non-dominated
    insertion); circuit names are the archive keys, so the front reads
    straight out of the archive in measured-name order.
    """

    name = "measure-fronts"

    def compute(self, state: ApproxFpgasState) -> dict:
        measured_names = sorted(
            name for name, record in state.records.items() if record.synthesized
        )
        fronts: Dict[str, List[str]] = {}
        for parameter in state.config.fpga_parameters:
            front = ParetoArchive(num_objectives=2)
            for name in measured_names:
                front.insert(
                    name,
                    (state.error_value(name), state.records[name].fpga.parameter(parameter)),
                )
            fronts[parameter] = front.keys()
        return {"fronts": fronts}

    def absorb(self, state: ApproxFpgasState, payload: dict) -> None:
        for parameter, front_names in payload["fronts"].items():
            state.parameter_outcomes[parameter].final_front_names = list(front_names)


class EvaluateCoverageStage(Stage):
    """Stage 9 (evaluation only): synthesize the remaining circuits outside
    the time accounting and measure the coverage of the true Pareto front."""

    name = "evaluate-coverage"

    def compute(self, state: ApproxFpgasState) -> dict:
        names = state.names
        records = state.records
        flow_synthesized = {name for name, record in records.items() if record.synthesized}
        missing = [state.library.get(name) for name in names if records[name].fpga is None]
        new_reports = {
            circuit.name: fpga_report_to_payload(report)
            for circuit, report in zip(missing, state.engine.evaluate_fpga(missing))
        }

        measured = {
            name: fpga_report_from_payload(report_payload, name)
            for name, report_payload in new_reports.items()
        }

        def parameter_value(name: str, parameter: str) -> float:
            report = measured.get(name) or records[name].fpga
            return report.parameter(parameter)

        errors = np.array([state.error_value(name) for name in names])
        name_to_index = {name: index for index, name in enumerate(names)}
        true_fronts: Dict[str, List[str]] = {}
        coverage: Dict[str, float] = {}
        for parameter in state.config.fpga_parameters:
            points = np.column_stack(
                [errors, [parameter_value(name, parameter) for name in names]]
            )
            true_front = pareto_front_indices(points)
            true_fronts[parameter] = [names[i] for i in true_front]
            flow_indices = [name_to_index[name] for name in flow_synthesized]
            coverage[parameter] = float(pareto_coverage(true_front, flow_indices))
        return {"fpga": new_reports, "true_fronts": true_fronts, "coverage": coverage}

    def absorb(self, state: ApproxFpgasState, payload: dict) -> None:
        for name, report_payload in payload["fpga"].items():
            state.records[name].fpga = fpga_report_from_payload(report_payload, name)
        for parameter, front_names in payload["true_fronts"].items():
            outcome = state.parameter_outcomes[parameter]
            outcome.true_front_names = list(front_names)
            outcome.coverage = float(payload["coverage"][parameter])


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


def approxfpgas_run_token(library: CircuitLibrary, config) -> str:
    """Digest of everything a checkpointed run depends on.

    A changed library or configuration yields a different token, which
    invalidates old checkpoints instead of resuming into a stale run.
    """
    return blake_token(
        "approxfpgas",
        [circuit.fingerprint() for circuit in library],
        repr(config),
    )


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
    store: Optional[object] = None,
    run_id: Optional[str] = None,
    progress=None,
    resume: bool = True,
) -> Tuple[ApproxFpgasResult, PipelineRun]:
    """Run the staged ApproxFPGAs flow through ``engine``, optionally
    checkpointing to ``store``.

    :meth:`repro.api.ExplorationSession.run_approxfpgas` passes the
    session's engine for the library's golden reference.  Returns the
    result together with the :class:`~repro.api.pipeline.PipelineRun`
    carrying per-stage timings and which stages were restored from
    checkpoints.
    """
    state = ApproxFpgasState.create(library, config, engine=engine)
    pipeline = Pipeline(
        approxfpgas_stages(state.config),
        store=store,
        run_id=run_id or f"approxfpgas-{library.name}",
        token=approxfpgas_run_token(library, state.config),
        progress=progress,
    )
    run = pipeline.run(state, resume=resume)
    return build_approxfpgas_result(state), run
