"""AutoAx-FPGA case study: accelerator component selection over pluggable workloads.

The accelerator behavioural models, components, quality metrics and input
sets live in :mod:`repro.workloads` (the Gaussian filter is the registered
``"gaussian"`` workload; ``"sobel"`` and ``"sharpen"`` ship alongside it);
this package holds the case-study machinery -- estimators, search
strategies and the staged flow.  Pick a workload with
``AutoAxConfig(workload=...)`` and run a study with
:meth:`repro.api.ExplorationSession.run_autoax`.

Every :data:`SEARCH_STRATEGIES` entry is called as ``strategy(ctx,
**tuning)`` with one :class:`SearchContext`; the flow re-evaluates the
returned candidates exactly through ``ctx.evaluate``.  The estimators are
fitted on exactly evaluated configurations (a :func:`random_search`) and
score configurations through :func:`configuration_feature_matrix`, the one
feature encoding.
"""

from .estimators import HwCostEstimator, QorEstimator, configuration_feature_matrix
from .search import (
    SEARCH_STRATEGIES,
    EvaluatedConfiguration,
    SearchContext,
    SearchEvalStats,
    hill_climb_pareto,
    nsga2_pareto,
    random_archive,
    random_search,
)
from .flow import AutoAxConfig, AutoAxResult, ScenarioResult
from .stages import (
    AutoAxState,
    autoax_stages,
    build_autoax_result,
    default_autoax_run_id,
    run_autoax_pipeline,
)

__all__ = [
    "HwCostEstimator",
    "QorEstimator",
    "configuration_feature_matrix",
    "SEARCH_STRATEGIES",
    "EvaluatedConfiguration",
    "SearchContext",
    "SearchEvalStats",
    "hill_climb_pareto",
    "nsga2_pareto",
    "random_archive",
    "random_search",
    "AutoAxConfig",
    "AutoAxResult",
    "ScenarioResult",
    "AutoAxState",
    "autoax_stages",
    "build_autoax_result",
    "default_autoax_run_id",
    "run_autoax_pipeline",
]
