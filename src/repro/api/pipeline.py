"""Composable stage pipelines.

The paper's methodology (Fig. 2) is a staged flow; this module gives the
stages a first-class API:

* a :class:`Stage` advances a mutable state object (``compute``);
* a :class:`Pipeline` runs named stages in order with per-stage timing and
  progress callbacks.

Nothing here persists anything: every result a stage computes through the
evaluation engine (errors, syntheses, fits, model scores, accelerator
configurations) is a content-addressed cache entry, so a run repeated over
the same inputs -- in the same session, or in a later one on the same
workspace or service root -- is served from the cache instead.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

__all__ = [
    "Stage",
    "StageEvent",
    "StageRecord",
    "Pipeline",
    "PipelineRun",
    "PipelineError",
]


class PipelineError(RuntimeError):
    """Raised for malformed pipelines (duplicate or empty stage names)."""


class Stage(ABC):
    """One named step of a :class:`Pipeline`."""

    #: Stage name; unique within a pipeline.
    name: str = ""

    @abstractmethod
    def compute(self, state) -> None:
        """Advance ``state`` by this stage's work."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


@dataclass(frozen=True)
class StageEvent:
    """Progress-callback payload emitted around every stage."""

    stage: str
    index: int
    total: int
    status: str
    """``"started"`` or ``"completed"``."""

    elapsed_s: float = 0.0


@dataclass(frozen=True)
class StageRecord:
    """Outcome of one stage of a finished :class:`PipelineRun`."""

    name: str
    elapsed_s: float


@dataclass
class PipelineRun:
    """A finished pipeline execution: the final state plus per-stage records."""

    state: object
    records: List[StageRecord] = field(default_factory=list)

    def timings(self) -> Dict[str, float]:
        """Stage name -> elapsed seconds."""
        return {record.name: record.elapsed_s for record in self.records}


class Pipeline:
    """Runs named stages in order.

    Parameters
    ----------
    stages:
        The stages, executed in sequence; names must be unique.
    progress:
        Optional callback receiving a :class:`StageEvent` when each stage
        starts and when it completes.
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        *,
        progress: Optional[Callable[[StageEvent], None]] = None,
    ):
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            duplicates = sorted({name for name in names if names.count(name) > 1})
            raise PipelineError(f"duplicate stage names: {duplicates}")
        if not all(names):
            raise PipelineError("stage names must be non-empty")
        self.stages = list(stages)
        self.progress = progress

    def _emit(self, event: StageEvent) -> None:
        if self.progress is not None:
            self.progress(event)

    def run(self, state) -> PipelineRun:
        """Execute every stage against ``state`` and return the finished run."""
        records: List[StageRecord] = []
        total = len(self.stages)
        for index, stage in enumerate(self.stages):
            self._emit(StageEvent(stage.name, index, total, "started"))
            started = time.perf_counter()
            stage.compute(state)
            elapsed = time.perf_counter() - started
            records.append(StageRecord(stage.name, elapsed))
            self._emit(StageEvent(stage.name, index, total, "completed", elapsed))
        return PipelineRun(state=state, records=records)
