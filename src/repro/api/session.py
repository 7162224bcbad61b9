"""`ExplorationSession`: the shared facade over every exploration flow.

A session owns the pieces that should be shared between runs instead of
re-created inside each flow:

* one :class:`~repro.engine.cache.EvalCache` (optionally disk-backed) and
  one :class:`~repro.engine.evaluator.BatchEvaluator` per golden reference,
  so ApproxFPGAs and AutoAx runs reuse each other's evaluations;
* the synthesis substrates, resolved once from the
  :data:`~repro.api.registries.SYNTHESIZERS` registry;
* deterministic RNG seeding (the session seed becomes the default seed of
  every configuration built by the session).

With a workspace, the cache persists under ``<workspace>/cache``, and that
cache is all a session persists: a later session on the workspace serves
every evaluation, synthesis and fit a finished or interrupted run stored,
so a rerun recomputes only what is missing.

Typical use::

    from repro.api import ExplorationSession

    session = ExplorationSession(seed=42, workspace="runs/session-1")
    result = session.run_approxfpgas(library)          # cached on disk
    study = session.run_autoax(multipliers, adders)    # shares the cache
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Sequence, Union

import numpy as np

from ..engine import BatchEvaluator, EvalCache
from ..io.persistence import ShardedJsonStore
from .pipeline import PipelineRun
from .registries import resolve_synthesizer

__all__ = ["ExplorationSession"]

PathLike = Union[str, Path]


class ExplorationSession:
    """Shared caches, substrates and seeding for flows.

    Parameters
    ----------
    seed:
        Session seed; used as the default ``seed`` of configurations the
        session builds (an explicitly passed config keeps its own seed, so
        seeded results stay reproducible).
    workspace:
        Optional directory.  When given, the evaluation cache gains a disk
        backend under ``<workspace>/cache``, so a later session with the
        same workspace starts warm.
    cache:
        An explicit :class:`EvalCache` to share with other components;
        overrides the workspace-derived cache.  This is how
        :mod:`repro.service` workers point many sessions at one shared
        store.
    shards:
        Shard count of the workspace-derived cache store (see
        :class:`repro.io.ShardedJsonStore`).  The default of 1 keeps the
        historical flat layout, so existing workspaces stay warm.
    fpga_synthesizer / asic_synthesizer:
        A :data:`~repro.api.registries.SYNTHESIZERS` key (``"fpga"``,
        ``"asic"``) or a ready-made synthesizer instance.
    engine_mode / max_workers:
        Forwarded to every :class:`BatchEvaluator` the session builds
        (``"auto"`` fans large miss sets out over a process pool).
    """

    def __init__(
        self,
        *,
        seed: int = 42,
        workspace: Optional[PathLike] = None,
        cache: Optional[EvalCache] = None,
        fpga_synthesizer: Union[str, object] = "fpga",
        asic_synthesizer: Union[str, object] = "asic",
        engine_mode: str = "auto",
        max_workers: Optional[int] = None,
        shards: int = 1,
    ):
        self.seed = seed
        self.workspace = Path(workspace) if workspace is not None else None
        if cache is None:
            disk_store = (
                ShardedJsonStore(self.workspace / "cache", shards=shards)
                if self.workspace
                else None
            )
            cache = EvalCache(store=disk_store)
        self.cache = cache
        self.fpga_synthesizer = resolve_synthesizer(fpga_synthesizer)
        self.asic_synthesizer = resolve_synthesizer(asic_synthesizer)
        self.engine_mode = engine_mode
        self.max_workers = max_workers
        self._engines: Dict[str, BatchEvaluator] = {}
        self._accelerator_engine: Optional[BatchEvaluator] = None
        self.runs: Dict[str, PipelineRun] = {}
        """Run id -> the most recent :class:`PipelineRun` (stage timings)."""

    # ------------------------------------------------------------------ #
    def rng(self, offset: int = 0) -> np.random.Generator:
        """A fresh generator derived from the session seed."""
        return np.random.default_rng(self.seed + offset)

    def engine_for(self, reference) -> BatchEvaluator:
        """The session's shared :class:`BatchEvaluator` for one golden reference.

        Engines are memoised per reference fingerprint and all share the
        session cache and synthesizers, so repeated runs over the same
        library (or structurally identical circuits across libraries) hit
        the cache.
        """
        key = reference.fingerprint()
        engine = self._engines.get(key)
        if engine is None:
            engine = BatchEvaluator(
                reference,
                asic_synthesizer=self.asic_synthesizer,
                fpga_synthesizer=self.fpga_synthesizer,
                cache=self.cache,
                mode=self.engine_mode,
                max_workers=self.max_workers,
            )
            self._engines[key] = engine
        return engine

    def accelerator_engine(self) -> BatchEvaluator:
        """The session's engine for exact accelerator-configuration batches.

        Accelerator evaluations need no golden reference circuit, so one
        reference-less :class:`BatchEvaluator` (sharing the session cache,
        mode and worker budget) serves every AutoAx run of the session;
        :meth:`run_autoax` threads it through the staged flow so training
        samples, baselines and candidate re-evaluations run
        generation-batched (see
        :meth:`repro.engine.BatchEvaluator.evaluate_configurations`).
        """
        if self._accelerator_engine is None:
            self._accelerator_engine = BatchEvaluator(
                cache=self.cache,
                mode=self.engine_mode,
                max_workers=self.max_workers,
            )
        return self._accelerator_engine

    def stats(self):
        """Cumulative statistics of the shared evaluation cache."""
        return self.cache.stats()

    # ------------------------------------------------------------------ #
    # Flows
    # ------------------------------------------------------------------ #
    def run_approxfpgas(
        self,
        library,
        config=None,
        *,
        run_id: Optional[str] = None,
        progress=None,
    ):
        """Run the staged ApproxFPGAs flow on ``library``.

        Returns the :class:`~repro.core.results.ApproxFpgasResult`;
        per-stage timings land in :attr:`runs` under ``run_id``.
        """
        from ..core.methodology import ApproxFpgasConfig
        from ..core.stages import run_approxfpgas_pipeline

        config = config or ApproxFpgasConfig(seed=self.seed)
        run_id = run_id or f"approxfpgas-{library.name}"
        result, run = run_approxfpgas_pipeline(
            library,
            config,
            engine=self.engine_for(library.reference()),
            progress=progress,
        )
        self.runs[run_id] = run
        return result

    def run_autoax(
        self,
        multipliers: Sequence,
        adders: Sequence,
        config=None,
        *,
        images=None,
        run_id: Optional[str] = None,
        progress=None,
        on_generation=None,
    ):
        """Run the staged AutoAx-FPGA case study on the given components.

        The accelerator workload is picked with ``AutoAxConfig(workload=...)``
        from the :data:`repro.workloads.WORKLOADS` registry (``"gaussian"``
        by default; the image workloads ``"sobel"`` and ``"sharpen"`` and
        the 1-D signal family ``"mvm"`` / ``"dct"`` / ``"fir"`` /
        ``"fir_mixed"`` ship built in, and custom workloads plug in by
        registering a key).  The session cache is
        shared with every other run, so exact accelerator evaluations are
        reused across scenarios, baselines and repeated studies -- engine
        cache keys are namespaced per workload, so two workloads over the
        same component libraries never alias -- and the session's
        accelerator engine batches them per generation (pick the population
        search with ``AutoAxConfig(search_strategy="nsga2")``).  Returns the
        :class:`~repro.autoax.flow.AutoAxResult`; per-stage timings land in
        :attr:`runs` under a per-workload run id.

        Generation-aware strategies (``"nsga2"``, ``"sh_ehvi"``) report
        each generation's (rung's) stats to ``on_generation`` -- a
        finer-grained liveness signal than the per-stage ``progress``
        events.
        """
        from ..autoax.flow import AutoAxConfig
        from ..autoax.stages import default_autoax_run_id, run_autoax_pipeline

        config = config or AutoAxConfig(seed=self.seed)
        run_id = run_id or default_autoax_run_id(config.workload)
        result, run = run_autoax_pipeline(
            multipliers,
            adders,
            config,
            images=images,
            engine=self.accelerator_engine(),
            progress=progress,
            on_generation=on_generation,
        )
        self.runs[run_id] = run
        return result
