"""Content-addressed evaluation cache with an LRU memory layer.

The cache is a plain string-key -> JSON-able-value mapping with two layers:

* an in-memory LRU (:class:`collections.OrderedDict`) bounded by
  ``capacity`` entries, which serves the hot path of a running flow;
* an optional on-disk backend (any object with ``get``/``put``, in practice
  :class:`repro.io.JsonDirectoryStore`) that survives the process, so a
  later session re-running the same libraries starts warm.

Values must be JSON-serialisable when a disk backend is attached; the
evaluation engine stores dataclass field dictionaries (see
:mod:`repro.engine.evaluator`) rather than report objects for exactly this
reason.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union


@dataclass(frozen=True)
class CacheStats:
    """Cumulative counters of one :class:`EvalCache` instance."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int
    disk_hits: int
    corrupt: int = 0
    """Corrupt on-disk entries encountered (counted as misses); non-zero
    only with a disk backend that tracks decode failures, e.g.
    :class:`repro.io.ShardedJsonStore`."""
    unreadable: int = 0
    """On-disk entries that exist but could not be read (an ``OSError``
    other than a missing file; counted as misses), tracked like
    :attr:`corrupt`."""

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "disk_hits": self.disk_hits,
            "corrupt": self.corrupt,
            "unreadable": self.unreadable,
            "hit_rate": self.hit_rate,
        }

    def since(self, before: "CacheStats") -> "CacheStats":
        """The delta of the cumulative counters relative to ``before``.

        ``size`` and ``capacity`` are instantaneous, not cumulative, so the
        current values are kept.  This is how callers attribute cache
        traffic to one unit of work on a shared cache -- e.g. the
        :mod:`repro.service` worker records per-job (and thereby per-tenant)
        hit rates of the one shared store.

        Deltas are floored at zero: swapping or reopening the disk backend
        mid-session resets its counters (e.g. a fresh
        :class:`repro.io.ShardedJsonStore` starts ``corrupt_count`` and
        ``unreadable_count`` at 0), which would otherwise report
        nonsensical negative traffic against a snapshot taken before the
        swap.
        """
        return CacheStats(
            hits=max(self.hits - before.hits, 0),
            misses=max(self.misses - before.misses, 0),
            evictions=max(self.evictions - before.evictions, 0),
            size=self.size,
            capacity=self.capacity,
            disk_hits=max(self.disk_hits - before.disk_hits, 0),
            corrupt=max(self.corrupt - before.corrupt, 0),
            unreadable=max(self.unreadable - before.unreadable, 0),
        )


class EvalCache:
    """Two-layer (memory LRU + optional disk) evaluation-result cache.

    Parameters
    ----------
    capacity:
        Maximum number of entries held in memory; least-recently-used
        entries are evicted first.  Evicted entries remain retrievable from
        the disk backend when one is attached.
    disk_path:
        Convenience: directory for a :class:`repro.io.JsonDirectoryStore`
        backend.
    store:
        An explicit backend object with ``get(key)`` / ``put(key, value)``;
        takes precedence over ``disk_path``.
    """

    def __init__(
        self,
        capacity: int = 65536,
        disk_path: Optional[Union[str, Path]] = None,
        store: Optional[object] = None,
    ):
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        if store is None and disk_path is not None:
            # Imported lazily: repro.io pulls in repro.core, which in turn
            # imports this module through the methodology's engine wiring.
            from ..io.persistence import JsonDirectoryStore

            store = JsonDirectoryStore(disk_path)
        self.store = store
        self._memory: "OrderedDict[str, object]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._disk_hits = 0

    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[object]:
        """Value for ``key``, or ``None``; counts one hit or one miss."""
        if key in self._memory:
            self._memory.move_to_end(key)
            self._hits += 1
            return self._memory[key]
        if self.store is not None:
            value = self.store.get(key)
            if value is not None:
                self._hits += 1
                self._disk_hits += 1
                self._insert(key, value, write_through=False)
                return value
        self._misses += 1
        return None

    def put(self, key: str, value: object) -> None:
        """Store ``value`` in memory and, when configured, on disk."""
        self._insert(key, value, write_through=True)

    def _insert(self, key: str, value: object, write_through: bool) -> None:
        if key in self._memory:
            self._memory.move_to_end(key)
        self._memory[key] = value
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self._evictions += 1
        if write_through and self.store is not None:
            self.store.put(key, value)

    def __contains__(self, key: str) -> bool:
        """Presence check that does *not* touch the hit/miss counters."""
        if key in self._memory:
            return True
        return self.store is not None and self.store.get(key) is not None

    def __len__(self) -> int:
        return len(self._memory)

    def clear(self, disk: bool = False) -> None:
        """Drop the memory layer (and optionally a clearable disk backend)."""
        self._memory.clear()
        if disk and self.store is not None and hasattr(self.store, "clear"):
            self.store.clear()

    def reset_stats(self) -> None:
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._disk_hits = 0

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._memory),
            capacity=self.capacity,
            disk_hits=self._disk_hits,
            corrupt=int(getattr(self.store, "corrupt_count", 0)),
            unreadable=int(getattr(self.store, "unreadable_count", 0)),
        )
