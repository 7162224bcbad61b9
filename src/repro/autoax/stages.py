"""Stage decomposition of the AutoAx-FPGA case study on :mod:`repro.api`.

The case study becomes three kinds of stages over a shared
:class:`AutoAxState`: exact training-sample collection, one
fit-search-and-reevaluate scenario per FPGA parameter, and the random
baseline.

Every exact configuration evaluation and every estimator fit goes through
the engine, which caches them by content: the QoR forest is grown once per
training set and restored by every later scenario, warm study, tenant or
rerun of an interrupted job that shares the cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api.pipeline import Pipeline, PipelineRun, Stage
from ..engine import BatchEvaluator
from ..workloads import ApproxAccelerator, ApproxComponent, build_workload
from .estimators import HwCostEstimator, QorEstimator
from .search import (
    SEARCH_STRATEGIES,
    EvaluatedConfiguration,
    SearchContext,
    _non_dominated,
    random_search,
)

__all__ = [
    "AutoAxState",
    "autoax_stages",
    "build_autoax_result",
    "default_autoax_run_id",
    "run_autoax_pipeline",
    "CollectSamplesStage",
    "ScenarioStage",
    "RandomBaselineStage",
]


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

    on_generation: Optional[object] = None
    """Optional callable fired with each freshly computed generation's stats
    dict by generation-aware strategies -- the pipeline's per-stage progress
    callback is too coarse for liveness signals during a long search, so
    service workers renew their job leases here."""

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

    def compute(self, state: AutoAxState) -> None:
        state.samples = random_search(
            state.accelerator,
            state.images,
            state.config.num_training_samples,
            seed=state.config.seed,
            engine=state.engine,
        )


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

    def compute(self, state: AutoAxState) -> None:
        from .flow import ScenarioResult

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
            on_generation=state.on_generation,
        )
        candidates = SEARCH_STRATEGIES.get(config.search_strategy)(ctx)
        # The one exact pass: every strategy's survivors are re-evaluated as
        # a single engine batch (pure cache hits for strategies that already
        # measured them exactly, such as sh_ehvi's full-fidelity rung).
        evaluated = ctx.evaluate([candidate.config for candidate in candidates])
        state.scenarios[self.parameter] = ScenarioResult(
            parameter=self.parameter,
            candidates=evaluated,
            front=_non_dominated(evaluated, self.parameter),
            num_candidates=len(evaluated),
        )


class RandomBaselineStage(Stage):
    """The exactly-evaluated random-search baseline of Fig. 9."""

    name = "random-baseline"

    def compute(self, state: AutoAxState) -> None:
        state.baseline = random_search(
            state.accelerator,
            state.images,
            state.config.num_random_baseline,
            seed=state.config.seed + 999,
            engine=state.engine,
        )


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


def default_autoax_run_id(workload: str) -> str:
    """Default ``session.runs`` key of one workload's case study.

    The Gaussian case study keeps its historical id; every other workload
    gets its own namespaced id.
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
    progress=None,
    on_generation=None,
) -> Tuple["AutoAxResult", PipelineRun]:  # noqa: F821
    """Run the staged AutoAx-FPGA case study.

    ``engine`` evaluates training samples, baselines and candidate
    re-evaluations as generation batches (amortised per-image work,
    optional process-pool fan-out);
    :meth:`repro.api.ExplorationSession.run_autoax` passes the session's
    accelerator engine.  ``on_generation`` (stats dict per computed
    generation or rung) is forwarded to generation-aware strategies
    (``"nsga2"``, ``"sh_ehvi"``) through the
    :class:`~repro.autoax.search.SearchContext`.
    """
    state = AutoAxState.create(multipliers, adders, config, engine=engine, images=images)
    state.on_generation = on_generation
    pipeline = Pipeline(autoax_stages(state.config), progress=progress)
    started = time.perf_counter()
    run = pipeline.run(state)
    return build_autoax_result(state, time.perf_counter() - started), run
