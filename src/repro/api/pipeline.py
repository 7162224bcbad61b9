"""Composable stage pipelines with checkpoint/resume.

The paper's methodology (Fig. 2) is a staged flow; this module gives the
stages a first-class API:

* a :class:`Stage` computes a **typed, JSON-serialisable payload** from a
  mutable state object (``compute``) and folds a payload back into the state
  (``absorb``).  Because ``absorb`` only ever sees the payload, a stage
  restored from a checkpoint and a stage computed fresh leave the state in
  exactly the same shape.
* a :class:`Pipeline` runs named stages in order with per-stage timing and
  progress callbacks.  When an artifact store is attached (any object with
  ``get``/``put``, in practice :class:`repro.io.JsonDirectoryStore`), every
  completed stage is checkpointed, so an interrupted run resumes from the
  last completed stage instead of starting over.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

__all__ = [
    "Stage",
    "FunctionStage",
    "StageEvent",
    "StageRecord",
    "Pipeline",
    "PipelineRun",
    "PipelineError",
]


class PipelineError(RuntimeError):
    """Raised for malformed pipelines (duplicate or unknown stage names)."""


class Stage(ABC):
    """One named step of a :class:`Pipeline`.

    Subclasses implement :meth:`compute` (state -> payload) and
    :meth:`absorb` (payload -> state mutation).  ``compute`` must not mutate
    the state -- all state updates belong in ``absorb`` so that restoring a
    checkpointed payload is indistinguishable from computing it.
    """

    #: Stage name; unique within a pipeline and used as the checkpoint key.
    name: str = ""

    @abstractmethod
    def compute(self, state) -> object:
        """Produce this stage's JSON-serialisable payload from ``state``."""

    @abstractmethod
    def absorb(self, state, payload) -> None:
        """Fold a (computed or restored) payload into ``state``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class FunctionStage(Stage):
    """Adapter turning a pair of callables into a :class:`Stage`."""

    def __init__(
        self,
        name: str,
        compute: Callable[[object], object],
        absorb: Callable[[object, object], None],
    ):
        self.name = name
        self._compute = compute
        self._absorb = absorb

    def compute(self, state) -> object:
        return self._compute(state)

    def absorb(self, state, payload) -> None:
        self._absorb(state, payload)


@dataclass(frozen=True)
class StageEvent:
    """Progress-callback payload emitted around every stage."""

    stage: str
    index: int
    total: int
    status: str
    """``"started"``, ``"completed"`` or ``"restored"``."""

    elapsed_s: float = 0.0


@dataclass(frozen=True)
class StageRecord:
    """Outcome of one stage of a finished :class:`PipelineRun`."""

    name: str
    elapsed_s: float
    from_checkpoint: bool


@dataclass
class PipelineRun:
    """A finished pipeline execution: the final state plus per-stage records."""

    state: object
    run_id: str
    records: List[StageRecord] = field(default_factory=list)

    @property
    def resumed_stages(self) -> List[str]:
        return [record.name for record in self.records if record.from_checkpoint]

    def timings(self) -> Dict[str, float]:
        """Stage name -> elapsed seconds (0.0 for restored stages)."""
        return {record.name: record.elapsed_s for record in self.records}


class Pipeline:
    """Runs named stages in order, checkpointing artifacts between them.

    Parameters
    ----------
    stages:
        The stages, executed in sequence; names must be unique.
    store:
        Optional artifact store (``get``/``put``).  When present, every
        stage's payload is persisted under
        ``"pipeline:<run_id>:<stage>"`` and a manifest guards against
        resuming with a different configuration or stage list.
    run_id:
        Namespace of this pipeline's checkpoints inside the store.
    token:
        Digest of everything the run depends on (configuration, inputs).
        A manifest with a different token invalidates old checkpoints, so a
        changed configuration restarts cleanly instead of resuming wrongly.
    progress:
        Optional callback receiving a :class:`StageEvent` when each stage
        starts and when it completes or is restored.
    """

    _MANIFEST = "#manifest"

    def __init__(
        self,
        stages: Sequence[Stage],
        *,
        store: Optional[object] = None,
        run_id: str = "pipeline",
        token: str = "",
        progress: Optional[Callable[[StageEvent], None]] = None,
    ):
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            duplicates = sorted({name for name in names if names.count(name) > 1})
            raise PipelineError(f"duplicate stage names: {duplicates}")
        if any(not name or name.startswith("#") for name in names):
            raise PipelineError("stage names must be non-empty and not start with '#'")
        self.stages = list(stages)
        self.store = store
        self.run_id = run_id
        self.token = token
        self.progress = progress

    # ------------------------------------------------------------------ #
    def _key(self, name: str) -> str:
        return f"pipeline:{self.run_id}:{name}"

    def _emit(self, event: StageEvent) -> None:
        if self.progress is not None:
            self.progress(event)

    def _manifest_allows_resume(self, resume: bool) -> bool:
        """Reconcile the stored manifest with this pipeline's shape.

        The manifest is always (re)stamped so the store reflects the run
        that is about to write checkpoints; resuming is allowed only when
        the previous manifest matches exactly.
        """
        expected = {"token": self.token, "stages": [stage.name for stage in self.stages]}
        matches = self.store.get(self._key(self._MANIFEST)) == expected
        if not matches:
            self.store.put(self._key(self._MANIFEST), expected)
        return resume and matches

    # ------------------------------------------------------------------ #
    def run(self, state, *, resume: bool = True) -> PipelineRun:
        """Execute every stage against ``state`` and return the finished run.

        With a store attached and ``resume=True``, the longest prefix of
        already-checkpointed stages is restored instead of recomputed; the
        first missing checkpoint switches the run to fresh computation for
        all remaining stages (stale later checkpoints are overwritten).
        """
        resuming = self.store is not None and self._manifest_allows_resume(resume)
        records: List[StageRecord] = []
        total = len(self.stages)

        for index, stage in enumerate(self.stages):
            self._emit(StageEvent(stage.name, index, total, "started"))
            entry = self.store.get(self._key(stage.name)) if resuming else None
            if entry is not None and entry.get("stage") == stage.name:
                stage.absorb(state, entry.get("payload"))
                records.append(StageRecord(stage.name, 0.0, from_checkpoint=True))
                self._emit(StageEvent(stage.name, index, total, "restored"))
                continue
            # First missing checkpoint: everything downstream runs fresh.
            resuming = False
            started = time.perf_counter()
            payload = stage.compute(state)
            elapsed = time.perf_counter() - started
            if self.store is not None:
                self.store.put(
                    self._key(stage.name), {"stage": stage.name, "payload": payload}
                )
            stage.absorb(state, payload)
            records.append(StageRecord(stage.name, elapsed, from_checkpoint=False))
            self._emit(StageEvent(stage.name, index, total, "completed", elapsed))

        return PipelineRun(state=state, run_id=self.run_id, records=records)
