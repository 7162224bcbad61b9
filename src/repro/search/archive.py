"""A generic incremental Pareto archive shared by every search strategy.

The repo's searches (`random_search`, `hill_climb_pareto`, `random_archive`,
`nsga2`) and the methodology's front bookkeeping all need the same three
operations: keep a set of candidates non-dominated under minimisation,
bound its size, and report quality indicators of the surviving front.
:class:`ParetoArchive` centralises them:

* **incremental non-dominated insertion** -- inserting one candidate is
  ``O(len(archive))`` instead of re-filtering the whole set; dominance uses
  the same weak-dominance semantics as
  :func:`repro.core.pareto.pareto_front_indices` (duplicate objective
  vectors are all kept, so batch-filtering and incremental insertion agree
  exactly);
* **crowding distance** and the **2-D hypervolume indicator** for
  diversity-aware truncation and strategy comparison.

Entries iterate in insertion order (dominated entries drop out, survivors
keep their relative order), which keeps seeded archive-driven searches
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

# NOTE: repro.core.pareto is imported lazily inside the functions that need
# it -- repro.core.stages uses this archive for its front bookkeeping, so a
# module-level import would be circular.

__all__ = ["ArchiveEntry", "ParetoArchive", "crowding_distances", "non_dominated_ranks"]


@dataclass(frozen=True)
class ArchiveEntry:
    """One archived candidate: an identity, its objectives and a payload.

    ``objectives`` are minimised.  ``item`` is an arbitrary payload
    travelling with the entry (a genome, an evaluated configuration); it
    takes no part in dominance or identity checks.
    """

    key: Optional[str]
    objectives: Tuple[float, ...]
    item: object = None


def _weakly_dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """``a`` dominates ``b``: no worse everywhere, strictly better somewhere."""
    better = False
    for x, y in zip(a, b):
        if not x <= y:
            return False
        if x < y:
            better = True
    return better


class ParetoArchive:
    """An incrementally maintained non-dominated set (all objectives minimised).

    Parameters
    ----------
    num_objectives:
        Optional arity check; inferred from the first insertion when omitted.
    dedupe_keys:
        When ``True`` (default) a key identifies a design: re-inserting an
        existing key replaces its old entry, so re-insertion is idempotent.
        Strategies that intentionally archive revisited candidates as
        distinct members (the legacy hill climber's seeded trajectories
        depend on it) pass ``False`` or insert with ``key=None``.
    """

    def __init__(self, num_objectives: Optional[int] = None, *, dedupe_keys: bool = True):
        self.num_objectives = num_objectives
        self.dedupe_keys = dedupe_keys
        self._entries: List[ArchiveEntry] = []

    # ------------------------------------------------------------------ #
    # Insertion
    # ------------------------------------------------------------------ #
    def _check_objectives(self, objectives: Sequence[float]) -> Tuple[float, ...]:
        values = tuple(float(value) for value in objectives)
        if not values:
            raise ValueError("objectives must not be empty")
        if not all(map(math.isfinite, values)):
            raise ValueError(f"objectives contain NaN or infinite values: {values}")
        if self.num_objectives is None:
            self.num_objectives = len(values)
        elif len(values) != self.num_objectives:
            raise ValueError(
                f"expected {self.num_objectives} objectives, got {len(values)}"
            )
        return values

    def insert(
        self, key: Optional[str], objectives: Sequence[float], item: object = None
    ) -> bool:
        """Insert one candidate; returns whether it survived.

        The candidate is rejected when any archived entry dominates it
        (equal objective vectors do not dominate each other, so exact
        duplicates under different keys are all kept); archived entries it
        dominates are removed.  With ``dedupe_keys``, an entry under the
        same key is replaced first, making re-insertion idempotent.
        """
        values = self._check_objectives(objectives)
        if self.dedupe_keys and key is not None:
            for entry in self._entries:
                if entry.key == key:
                    if entry.objectives == values:
                        return False  # idempotent: identical entry already archived
                    # The design's objectives changed: the stale entry goes
                    # away regardless of whether its replacement survives.
                    self._entries = [e for e in self._entries if e.key != key]
                    break
        for entry in self._entries:
            if _weakly_dominates(entry.objectives, values):
                return False
        survivors = [
            entry for entry in self._entries if not _weakly_dominates(values, entry.objectives)
        ]
        survivors.append(ArchiveEntry(key=key, objectives=values, item=item))
        self._entries = survivors
        return True

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ArchiveEntry]:
        return iter(self._entries)

    def entries(self) -> List[ArchiveEntry]:
        """The surviving entries, in insertion order."""
        return list(self._entries)

    def keys(self) -> List[Optional[str]]:
        return [entry.key for entry in self._entries]

    def items(self) -> List[object]:
        return [entry.item for entry in self._entries]

    def objective_array(self) -> np.ndarray:
        """(n, num_objectives) float array of the archived objective vectors."""
        if not self._entries:
            return np.empty((0, self.num_objectives or 0), dtype=np.float64)
        return np.array([entry.objectives for entry in self._entries], dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Indicators and truncation
    # ------------------------------------------------------------------ #
    def crowding_distances(self) -> np.ndarray:
        """Crowding distance per entry, aligned with insertion order."""
        return crowding_distances(self.objective_array())

    def hypervolume(self, reference: Optional[Sequence[float]] = None) -> float:
        """Dominated 2-D hypervolume of the archive w.r.t. ``reference``.

        With no reference, a point 5% beyond the archive's own maxima is
        used (matching the AutoAx benchmark convention, and padded by the
        maxima's magnitude so negative objectives stay dominated too); note
        that self-referenced volumes of *different* archives are not
        comparable -- pass a shared reference to compare strategies.
        """
        from ..core.pareto import hypervolume_2d

        points = self.objective_array()
        if points.shape[0] == 0:
            return 0.0
        if points.shape[1] != 2:
            raise ValueError("hypervolume is only defined for 2-objective archives")
        if reference is None:
            maxima = points.max(axis=0)
            reference = maxima + 0.05 * np.abs(maxima) + 1e-9
        return hypervolume_2d(points, reference)

    def truncate_crowding(self, limit: int) -> None:
        """Keep the ``limit`` most-crowding-distant entries (NSGA-II style).

        Boundary entries (infinite distance) are always preferred; ties
        break towards earlier insertion so truncation is deterministic.
        """
        if limit < 1:
            raise ValueError("limit must be at least 1")
        if len(self._entries) <= limit:
            return
        distances = self.crowding_distances()
        # Sort by descending distance, ascending insertion index on ties.
        order = sorted(range(len(self._entries)), key=lambda i: (-distances[i], i))
        keep = sorted(order[:limit])
        self._entries = [self._entries[i] for i in keep]

    def truncate_spread(self, limit: int) -> None:
        """Keep ``limit`` entries spread along the first objective axis.

        This reproduces the legacy strategies' pruning exactly: entries are
        (stably) sorted by the first objective (the cost, in every strategy
        that prunes this way) and an evenly spaced subset is kept **in that
        sorted order** -- archive order changes, which the seeded legacy
        trajectories rely on.
        """
        if limit < 1:
            raise ValueError("limit must be at least 1")
        if len(self._entries) <= limit:
            return
        self._entries.sort(key=lambda entry: entry.objectives[0])
        indices = np.linspace(0, len(self._entries) - 1, limit).round().astype(int)
        self._entries = [self._entries[i] for i in dict.fromkeys(int(i) for i in indices)]


# --------------------------------------------------------------------- #
# Free functions shared with the NSGA-II machinery
# --------------------------------------------------------------------- #
def crowding_distances(points: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance of each point of one front.

    Boundary points of every objective get infinite distance; interior
    points accumulate the normalised gap between their neighbours along
    each objective.  Objectives with zero range contribute nothing.  Sorting
    is stable, so ties resolve deterministically by input order.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D (n, objectives), got shape {points.shape}")
    n = points.shape[0]
    distances = np.zeros(n, dtype=np.float64)
    if n <= 2:
        distances[:] = np.inf
        return distances
    for objective in range(points.shape[1]):
        values = points[:, objective]
        order = np.argsort(values, kind="stable")
        distances[order[0]] = np.inf
        distances[order[-1]] = np.inf
        span = values[order[-1]] - values[order[0]]
        if span <= 0.0:
            continue
        gaps = (values[order[2:]] - values[order[:-2]]) / span
        interior = order[1:-1]
        finite = np.isfinite(distances[interior])
        distances[interior[finite]] += gaps[finite]
    return distances


def non_dominated_ranks(points: np.ndarray) -> np.ndarray:
    """Front rank per point (0 = first Pareto front), by successive peeling.

    Dominance is that of :func:`repro.core.pareto.pareto_front_indices`
    (duplicates do not dominate each other), decided once per pair: each
    peel takes the points no remaining point dominates and drops their
    votes from the dominance counts of the rest.  The pairwise matrix is
    ``n x n``, sized for populations rather than whole libraries.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D (n, objectives), got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValueError("points contain NaN or infinite values")
    n = points.shape[0]
    # dominated_by[i, j]: point j dominates point i.
    no_worse = np.ones((n, n), dtype=bool)
    better = np.zeros((n, n), dtype=bool)
    for values in points.T:
        no_worse &= values[None, :] <= values[:, None]
        better |= values[None, :] < values[:, None]
    dominated_by = no_worse & better
    counts = dominated_by.sum(axis=1)
    ranks = np.full(n, -1, dtype=np.int64)
    front = np.flatnonzero(counts == 0)
    rank = 0
    while front.size:
        ranks[front] = rank
        counts -= dominated_by[:, front].sum(axis=1)
        counts[front] = -1
        front = np.flatnonzero(counts == 0)
        rank += 1
    return ranks
