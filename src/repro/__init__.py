"""ApproxFPGAs reproduction: ML-driven design-space exploration of ASIC-based
approximate arithmetic components for FPGA-based systems (DAC 2020).

The package is organised as the paper's system diagram (Fig. 2):

* :mod:`repro.circuits` -- gate-level netlist IR and simulation,
* :mod:`repro.generators` -- the approximate-circuit library (EvoApproxLib substitute),
* :mod:`repro.error` -- error metrics (MED, WCE, ...),
* :mod:`repro.asic` / :mod:`repro.fpga` -- the two synthesis substrates,
* :mod:`repro.features` / :mod:`repro.ml` -- feature extraction and the Table I model zoo,
* :mod:`repro.core` -- fidelity, Pareto machinery and the staged ApproxFPGAs flow,
* :mod:`repro.engine` -- the parallel cached evaluation engine (see below),
* :mod:`repro.search` -- the shared Pareto archive, the generic
  NSGA-II population search, and
  :mod:`repro.search.multifidelity`: exact two-objective EHVI acquisition
  over predictive uncertainty plus a successive-halving loop over
  an explicit fidelity ladder (registered as
  ``SEARCH_STRATEGIES["sh_ehvi"]``; engine cache keys are namespaced per
  fidelity rung, so cheap screens never alias exhaustive results),
* :mod:`repro.workloads` -- pluggable accelerator workloads (the
  ``WORKLOADS`` registry, the ``ApproxAccelerator`` protocol, quality
  metrics and seeded input sets),
* :mod:`repro.api` -- the public session / pipeline / registry API (see below),
* :mod:`repro.autoax` -- the AutoAx-FPGA case study machinery
  (estimators, search strategies, staged flow) over those workloads,
* :mod:`repro.service` -- exploration as a service: an async job layer
  (``JobClient`` / ``JobRegistry`` / ``Worker``,
  ``python -m repro.service.worker``) where every worker shares one
  sharded content-addressed cache (:class:`repro.io.ShardedJsonStore`),
  jobs are claimed through heartbeated lease files, and a job reclaimed
  from a dead worker runs again from that cache, recomputing only what the
  dead worker had not stored, to a bit-identical payload.

Public API
----------
The flows are driven through :mod:`repro.api`:

* :class:`repro.api.ExplorationSession` owns the evaluation cache and
  engines, the synthesis substrates and RNG seeding shared across
  ApproxFPGAs and AutoAx runs.  ``session.run_approxfpgas`` and
  ``session.run_autoax`` execute the flows as named stage pipelines with
  per-stage timing and progress callbacks; with a ``workspace`` directory
  attached, the cache persists on disk and is all a session persists, so
  a rerun of a finished or interrupted run recomputes only what it lacks.
* :class:`repro.api.Pipeline` / :class:`repro.api.Stage` are the underlying
  staged-flow machinery (stage decompositions live in
  :mod:`repro.core.stages` and :mod:`repro.autoax.stages`).
* The plugin registries -- :data:`repro.ml.MODELS`,
  :data:`repro.error.ERROR_METRICS`, :data:`repro.api.SYNTHESIZERS`,
  :data:`repro.workloads.WORKLOADS`,
  :data:`repro.workloads.QUALITY_METRICS` and
  :data:`repro.autoax.SEARCH_STRATEGIES` -- are string-keyed extension
  points; new models, error metrics, substrates, accelerator workloads,
  quality metrics and search strategies plug in by registering a key
  instead of editing flow internals.  Unknown keys raise
  :class:`repro.registry.RegistryError` listing the available keys.
  Search strategies share one calling convention, ``strategy(ctx,
  **tuning)`` with a :class:`repro.autoax.SearchContext`.

Evaluation engine
-----------------
The exploration hot path -- evaluating the error metrics and the ASIC/FPGA
cost models of whole circuit libraries -- is served by :mod:`repro.engine`:

* :meth:`repro.circuits.Netlist.fingerprint` gives every circuit a stable
  structural content hash (names and metadata excluded), so structurally
  identical circuits share one identity;
* :class:`repro.engine.EvalCache` is a two-layer cache over those
  fingerprints: an in-memory LRU plus an optional on-disk JSON backend
  (:class:`repro.io.JsonDirectoryStore`) that persists results across
  sessions;
* :class:`repro.engine.BatchEvaluator` evaluates whole libraries (and
  batches of accelerator configurations) through one cached loop: it
  probes the cache, computes structurally identical items once, and fans
  large miss sets out over a
  :class:`~concurrent.futures.ProcessPoolExecutor` -- results stay
  bit-identical to the serial path;
* :meth:`repro.error.ErrorEvaluator.evaluate` is the one way an error
  report is computed (the engine calls it per miss): the evaluator expands
  its shared operands into each input-bit layout once and simulates the
  reference once, so each circuit costs a single vectorised simulation
  pass.

All flows route their evaluations through one engine, so cache hits are
shared across every stage of a flow -- and across flows, when runs share an
:class:`repro.api.ExplorationSession`.

Simulation paths
----------------
Every production simulation runs one path,
:func:`repro.circuits.simulate_planes`: 64 patterns packed into each
``uint64`` lane (:mod:`repro.circuits.bitplane`) through the netlist's
levelized op tape (:mod:`repro.circuits.compiled`), compiled once per
structural fingerprint and executed by a cache-tiled native interpreter
where a C compiler is available (NumPy fallback otherwise).
:func:`~repro.circuits.simulate.expand_operands` packs operand words
straight into input planes and
:func:`~repro.circuits.simulate.simulate_expanded` turns output planes
straight back into words; ``simulate_words`` and the error evaluator both
go through that pair.  :func:`repro.circuits.simulate_bits`, one byte per
pattern, is the reference oracle, bit-identical by contract -- enforced by
the differential suite (``pytest -m sim_backends``) -- so cached results
never depend on how they were simulated.
"""

from .api import (
    ERROR_METRICS,
    MODELS,
    SYNTHESIZERS,
    ExplorationSession,
    Pipeline,
    PipelineRun,
    Registry,
    RegistryError,
    Stage,
    StageEvent,
)
from .autoax.search import SEARCH_STRATEGIES
from .core import ApproxFpgasConfig
from .engine import BatchEvaluator, EvalCache
from .generators import CircuitLibrary, build_adder_library, build_multiplier_library

__version__ = "1.9.0"

__all__ = [
    "ApproxFpgasConfig",
    "ExplorationSession",
    "Pipeline",
    "PipelineRun",
    "Stage",
    "StageEvent",
    "Registry",
    "RegistryError",
    "MODELS",
    "ERROR_METRICS",
    "SYNTHESIZERS",
    "SEARCH_STRATEGIES",
    "BatchEvaluator",
    "EvalCache",
    "CircuitLibrary",
    "build_adder_library",
    "build_multiplier_library",
    "__version__",
]
