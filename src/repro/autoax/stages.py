"""Stage decomposition of the AutoAx-FPGA case study on :mod:`repro.api`.

The case study becomes three kinds of stages over a shared
:class:`AutoAxState`: exact training-sample collection, one
fit-search-and-reevaluate scenario per FPGA parameter, and the random
baseline.  Sample and candidate payloads are JSON-serialisable (component
indices plus measured quality/cost), so a pipeline with an artifact store
resumes an interrupted study per scenario.

Each scenario fits its estimators through the engine, which caches fits by
model and training data: the QoR forest is grown once per training set
and restored by every later scenario, warm study, tenant or resumed job
that shares the cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api.pipeline import Pipeline, PipelineRun, Stage
from ..engine import BatchEvaluator, blake_token, images_token
from ..workloads import ApproxAccelerator, ApproxComponent, build_workload
from .estimators import HwCostEstimator, QorEstimator
from .search import (
    SEARCH_STRATEGIES,
    EvaluatedConfiguration,
    SearchContext,
    _non_dominated,
    accelerator_token,
    random_search,
)

__all__ = [
    "AutoAxState",
    "autoax_stages",
    "autoax_run_token",
    "build_autoax_result",
    "default_autoax_run_id",
    "run_autoax_pipeline",
    "CollectSamplesStage",
    "ScenarioStage",
    "RandomBaselineStage",
]


# --------------------------------------------------------------------- #
# Payload decoding of evaluated configurations (the encoder is
# EvaluatedConfiguration.to_payload)
# --------------------------------------------------------------------- #
def _evaluated_from_payload(payload: dict, accelerator: ApproxAccelerator) -> EvaluatedConfiguration:
    config = accelerator.make_configuration(
        [int(i) for i in payload["multipliers"]], [int(i) for i in payload["adders"]]
    )
    return EvaluatedConfiguration.from_payload(config, payload)


# --------------------------------------------------------------------- #
# Shared state
# --------------------------------------------------------------------- #
@dataclass
class AutoAxState:
    """Mutable working state threaded through the AutoAx-FPGA stages."""

    accelerator: ApproxAccelerator
    images: List[np.ndarray]
    config: "AutoAxConfig"  # noqa: F821 - imported lazily to avoid a cycle
    engine: BatchEvaluator
    """The evaluation engine: every exact configuration evaluation
    (training samples, candidate re-evaluation, the random baseline) runs
    generation-batched through
    :meth:`~repro.engine.BatchEvaluator.evaluate_configurations`, and every
    estimator fit through :meth:`~repro.engine.BatchEvaluator.fit`."""

    samples: List[EvaluatedConfiguration] = field(default_factory=list)
    """The exactly evaluated training sample the estimators are fitted on."""
    scenarios: Dict[str, "ScenarioResult"] = field(default_factory=dict)  # noqa: F821
    baseline: List[EvaluatedConfiguration] = field(default_factory=list)

    store: Optional[object] = None
    """Optional artifact store (``get``/``put``).  Strategies that support
    mid-stage checkpointing (``"nsga2"``, ``"sh_ehvi"``) persist their
    per-generation state here under ``<run_id>:scenario-<parameter>``, so a
    run killed *inside* a scenario stage resumes from the last completed
    generation instead of the last completed stage."""

    run_id: str = ""
    """Checkpoint namespace of this run inside :attr:`store` (mirrors the
    pipeline run id)."""

    on_generation: Optional[object] = None
    """Optional callable fired with each freshly computed generation's stats
    dict by generation-aware strategies -- the pipeline's per-stage progress
    callback is too coarse for liveness signals during a long search, so
    service workers renew their job leases here."""

    @cached_property
    def run_token(self) -> str:
        """:func:`autoax_run_token` of this study: the pipeline's manifest
        token and the study identity the search mixes into its checkpoint
        tokens."""
        return autoax_run_token(self)

    @classmethod
    def create(
        cls,
        multipliers: Sequence[ApproxComponent],
        adders: Sequence[ApproxComponent],
        config: Optional["AutoAxConfig"] = None,  # noqa: F821
        *,
        engine: BatchEvaluator,
        images: Optional[Sequence[np.ndarray]] = None,
    ) -> "AutoAxState":
        """Build a state for one study.

        The accelerator is resolved from :data:`repro.workloads.WORKLOADS`
        via ``config.workload`` (``"gaussian"`` by default), and the default
        image set is the workload's own seeded input set.
        """
        from .flow import AutoAxConfig

        config = config or AutoAxConfig()
        accelerator = build_workload(config.workload, multipliers, adders)
        return cls(
            accelerator=accelerator,
            images=(
                list(images)
                if images is not None
                else accelerator.default_inputs(config.image_size)
            ),
            config=config,
            engine=engine,
        )


# --------------------------------------------------------------------- #
# Stages
# --------------------------------------------------------------------- #
class CollectSamplesStage(Stage):
    """Exactly evaluate a random sample of configurations (training set)."""

    name = "collect-samples"

    def compute(self, state: AutoAxState) -> list:
        samples = random_search(
            state.accelerator,
            state.images,
            state.config.num_training_samples,
            seed=state.config.seed,
            engine=state.engine,
        )
        return [entry.to_payload() for entry in samples]

    def absorb(self, state: AutoAxState, payload: list) -> None:
        state.samples = [_evaluated_from_payload(raw, state.accelerator) for raw in payload]


class ScenarioStage(Stage):
    """One (FPGA parameter, SSIM) scenario: fit the QoR and cost estimators,
    run the configured search strategy and re-evaluate the candidates
    exactly.  The QoR forest is the same for every scenario of a study, so
    all scenarios after the first restore it from the engine's ``fit``
    cache."""

    def __init__(self, parameter: str, offset: int):
        self.parameter = parameter
        self.offset = offset
        self.name = f"scenario-{parameter}"

    def compute(self, state: AutoAxState) -> dict:
        config = state.config
        accelerator, samples, engine = state.accelerator, state.samples, state.engine
        ctx = SearchContext(
            accelerator=accelerator,
            qor=QorEstimator().fit(accelerator, samples, engine=engine),
            hw=HwCostEstimator(self.parameter).fit(accelerator, samples, engine=engine),
            images=state.images,
            engine=engine,
            iterations=config.hill_climb_iterations,
            seed=config.seed + 100 + self.offset,
            fidelity_ladder=config.fidelity_ladder,
            store=state.store,
            run_id=f"{state.run_id}:{self.name}" if state.run_id else self.name,
            on_generation=state.on_generation,
            _study=state.run_token,
        )
        candidates = SEARCH_STRATEGIES.get(config.search_strategy)(ctx)
        # The one exact pass: every strategy's survivors are re-evaluated as
        # a single engine batch (pure cache hits for strategies that already
        # measured them exactly, such as sh_ehvi's full-fidelity rung).
        evaluated = ctx.evaluate([candidate.config for candidate in candidates])
        return {"candidates": [entry.to_payload() for entry in evaluated]}

    def absorb(self, state: AutoAxState, payload: dict) -> None:
        from .flow import ScenarioResult

        evaluated = [
            _evaluated_from_payload(entry, state.accelerator) for entry in payload["candidates"]
        ]
        state.scenarios[self.parameter] = ScenarioResult(
            parameter=self.parameter,
            candidates=evaluated,
            front=_non_dominated(evaluated, self.parameter),
            num_candidates=len(evaluated),
        )


class RandomBaselineStage(Stage):
    """The exactly-evaluated random-search baseline of Fig. 9."""

    name = "random-baseline"

    def compute(self, state: AutoAxState) -> list:
        baseline = random_search(
            state.accelerator,
            state.images,
            state.config.num_random_baseline,
            seed=state.config.seed + 999,
            engine=state.engine,
        )
        return [entry.to_payload() for entry in baseline]

    def absorb(self, state: AutoAxState, payload: list) -> None:
        state.baseline = [
            _evaluated_from_payload(entry, state.accelerator) for entry in payload
        ]


# --------------------------------------------------------------------- #
# Pipeline assembly
# --------------------------------------------------------------------- #
def autoax_stages(config) -> List[Stage]:
    """The stage sequence of the AutoAx-FPGA case study for one configuration."""
    stages: List[Stage] = [CollectSamplesStage()]
    for offset, parameter in enumerate(config.parameters):
        stages.append(ScenarioStage(parameter, offset))
    stages.append(RandomBaselineStage())
    return stages


def autoax_run_token(state: AutoAxState) -> str:
    """Digest of everything a checkpointed case-study run depends on.

    ``accelerator_token`` covers the component sets *and* the workload's
    structural identity, so checkpoints of one workload can never be
    restored into a study of another.
    """
    return blake_token(
        "autoax",
        accelerator_token(state.accelerator),
        images_token(state.images),
        repr(state.config),
    )


def default_autoax_run_id(workload: str) -> str:
    """Default artifact-store run id of one workload's case study.

    The Gaussian case study keeps its historical id (``session.runs`` keys
    and artifact directories keep their pre-workload names); every other
    workload gets its own namespaced id.  Note that checkpoints written
    before the workload subsystem existed recompute regardless of the id:
    the run manifest token now covers the workload identity (via
    :func:`repro.engine.keys.accelerator_token`), which invalidates
    pre-1.5 checkpoints by design.
    """
    return "autoax-gaussian-filter" if workload == "gaussian" else f"autoax-{workload}"


def build_autoax_result(state: AutoAxState, runtime_s: float) -> "AutoAxResult":  # noqa: F821
    """Assemble the public result object from a fully-run state."""
    from .flow import AutoAxResult

    return AutoAxResult(
        scenarios=state.scenarios,
        baseline=state.baseline,
        design_space_size=state.accelerator.design_space_size,
        runtime_s=runtime_s,
        training_size=len(state.samples),
    )


def run_autoax_pipeline(
    multipliers: Sequence[ApproxComponent],
    adders: Sequence[ApproxComponent],
    config=None,
    *,
    engine: BatchEvaluator,
    images: Optional[Sequence[np.ndarray]] = None,
    store: Optional[object] = None,
    run_id: Optional[str] = None,
    progress=None,
    on_generation=None,
    resume: bool = True,
) -> Tuple["AutoAxResult", PipelineRun]:  # noqa: F821
    """Run the staged AutoAx-FPGA case study, optionally checkpointing.

    ``engine`` evaluates training samples, baselines and candidate
    re-evaluations as generation batches (amortised per-image work,
    optional process-pool fan-out);
    :meth:`repro.api.ExplorationSession.run_autoax` passes the session's
    accelerator engine.

    With a ``store``, checkpoints are written at two granularities: the
    pipeline checkpoints every completed stage, and generation-aware
    strategies (``"nsga2"``, ``"sh_ehvi"``) additionally checkpoint every
    completed generation (rung) inside their scenario stage, so a run
    killed mid-search loses at most one generation.  ``on_generation``
    (stats dict per freshly computed generation) is forwarded to such
    strategies through the :class:`~repro.autoax.search.SearchContext`.
    """
    state = AutoAxState.create(multipliers, adders, config, engine=engine, images=images)
    run_id = run_id or default_autoax_run_id(state.config.workload)
    state.store = store
    state.run_id = run_id
    state.on_generation = on_generation
    pipeline = Pipeline(
        autoax_stages(state.config),
        store=store,
        run_id=run_id,
        token=state.run_token,
        progress=progress,
    )
    started = time.perf_counter()
    run = pipeline.run(state, resume=resume)
    return build_autoax_result(state, time.perf_counter() - started), run
