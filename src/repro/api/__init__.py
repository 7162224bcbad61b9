"""Public composable API: sessions, stage pipelines and plugin registries.

This package is the entry point of every flow:

* :class:`ExplorationSession` -- a facade owning the evaluation cache,
  engines, synthesizers and RNG seeding shared across ApproxFPGAs and
  AutoAx runs; with a workspace, the cache persists on disk, so a rerun
  (an interrupted one included) is served from it;
* :class:`Pipeline` / :class:`Stage` -- the staged-flow machinery with
  per-stage timing and progress callbacks;
* the plugin registries (:data:`MODELS`, :data:`ERROR_METRICS`,
  :data:`SYNTHESIZERS`, :data:`WORKLOADS`, :data:`QUALITY_METRICS`,
  :data:`SEARCH_STRATEGIES`) through which new models, metrics,
  substrates, accelerator workloads and searches plug in without editing
  flow internals;
* the multi-fidelity search primitives
  (:func:`expected_hypervolume_improvement`, exact for two objectives,
  :func:`run_successive_halving`, :class:`SuccessiveHalvingConfig`,
  :func:`default_fidelity_ladder`) for building custom
  screen-cheap/promote-survivors searches outside the built-in
  ``"sh_ehvi"`` strategy.
"""

from .pipeline import (
    Pipeline,
    PipelineError,
    PipelineRun,
    Stage,
    StageEvent,
    StageRecord,
)
from .registries import (
    ERROR_METRICS,
    MODELS,
    QUALITY_METRICS,
    SYNTHESIZERS,
    WORKLOADS,
    Registry,
    RegistryError,
    resolve_synthesizer,
)
from ..search import (
    SuccessiveHalvingConfig,
    SuccessiveHalvingResult,
    default_fidelity_ladder,
    expected_hypervolume_improvement,
    run_successive_halving,
)
from .session import ExplorationSession

__all__ = [
    "ExplorationSession",
    "Pipeline",
    "PipelineError",
    "PipelineRun",
    "Stage",
    "StageEvent",
    "StageRecord",
    "Registry",
    "RegistryError",
    "MODELS",
    "ERROR_METRICS",
    "SYNTHESIZERS",
    "WORKLOADS",
    "QUALITY_METRICS",
    "SEARCH_STRATEGIES",
    "resolve_synthesizer",
    "SuccessiveHalvingConfig",
    "SuccessiveHalvingResult",
    "default_fidelity_ladder",
    "expected_hypervolume_improvement",
    "run_successive_halving",
]


def __getattr__(name):
    # SEARCH_STRATEGIES lives in repro.autoax.search, which transitively
    # imports repro.core; importing it lazily keeps repro.api importable
    # from inside the core package without a cycle.
    if name == "SEARCH_STRATEGIES":
        from ..autoax.search import SEARCH_STRATEGIES

        return SEARCH_STRATEGIES
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
