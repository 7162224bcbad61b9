"""Population-based multi-objective search subsystem.

The package holds the problem-agnostic half of the repo's searches:

* :class:`ParetoArchive` -- the shared incremental non-dominated archive
  (crowding distance, 2-D hypervolume) used by every strategy in
  :data:`repro.autoax.SEARCH_STRATEGIES` and by the methodology's front
  bookkeeping (:mod:`repro.core.stages`);
* :func:`run_nsga2` -- a generic NSGA-II loop over tuple genomes with
  generation-batched evaluation;
* :mod:`repro.search.multifidelity` -- the exact two-objective
  expected-hypervolume-improvement acquisition and a successive-halving
  runner over explicit fidelity ladders.

The AutoAx configuration-space strategies themselves (including the
``"nsga2"`` and ``"sh_ehvi"`` adapters) live in :mod:`repro.autoax.search`,
which builds on this package.
"""

from .archive import ArchiveEntry, ParetoArchive, crowding_distances, non_dominated_ranks
from .multifidelity import (
    SuccessiveHalvingConfig,
    SuccessiveHalvingResult,
    default_fidelity_ladder,
    expected_hypervolume_improvement,
    run_successive_halving,
)
from .nsga2 import (
    Nsga2Config,
    Nsga2Result,
    genome_token,
    run_nsga2,
    select_next_population,
)

__all__ = [
    "ArchiveEntry",
    "ParetoArchive",
    "crowding_distances",
    "non_dominated_ranks",
    "Nsga2Config",
    "Nsga2Result",
    "genome_token",
    "run_nsga2",
    "select_next_population",
    "SuccessiveHalvingConfig",
    "SuccessiveHalvingResult",
    "default_fidelity_ladder",
    "expected_hypervolume_improvement",
    "run_successive_halving",
]
