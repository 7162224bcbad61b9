"""Job specs, records and the on-disk job registry of :mod:`repro.service`.

Everything is plain JSON files under one *service root* directory, published
with the same atomic temp-file + :func:`os.replace` discipline as the
sharded store, so any number of client and worker processes can share a
root without a broker:

``jobs/<job_id>.json``
    The :class:`JobRecord` (spec + lifecycle state + progress + telemetry),
    the source of truth.  Records are never removed.
``queue/<submitted_at>-<job_id>``
    An empty marker per queued job: the index :meth:`JobRegistry.claim`
    walks instead of parsing every record, so a claim costs the same with
    a thousand finished jobs as with none.  The submission time is written
    zero-padded to the nanosecond, so the sorted names are
    :meth:`JobRegistry.list_jobs` order (oldest first, ties by job id).
    ``submit`` writes the record, then the marker; a marker is deleted once
    its job has started or proved not runnable, and by ``cancel``.
``leases/<job_id>.lease``
    Exists while a worker owns the job, so the lease files are exactly the
    running jobs (and the queued jobs a claimer died holding).  Published
    complete with a hard link, which fails when the file exists (claiming
    is therefore atomic), and rewritten on every heartbeat with a fresh
    timestamp; a lease whose heartbeat is older than
    ``lease_ttl`` seconds marks a dead worker, and the takeover protocol
    (rename the stale lease away, then re-create fresh) guarantees exactly
    one of several contending workers reclaims the job.
``results/<job_id>.json``
    The finished job's payload plus its content digest.
``cache/``
    The :class:`~repro.io.ShardedJsonStore` every worker shares: the
    content-addressed evaluation cache, so hit rates compound across
    tenants, and the one thing a reclaimed job reads back.  A root written
    before the cache became the only store may also hold an ``artifacts/``
    directory of old checkpoints; nothing reads it.

Job lifecycle: ``queued -> running -> done | failed``, plus ``cancelled``
for jobs withdrawn before a worker claimed them.  A job whose worker died
stays ``running`` with an expiring lease; :meth:`JobRegistry.claim` hands it
to the next worker, which runs the flow again: every evaluation and fit the
dead worker stored is a cache hit, and flows are deterministic, so the
payload is bit-identical to an uninterrupted run's.

A claim takes, in order: the oldest indexed job it can lease; else a job
whose lease expired; else, after one full scan of ``jobs/`` that re-creates
the markers of queued records that have none (a crash between ``submit``'s
two writes, or a root written before the index existed), the oldest of
those.  Each registry object runs that scan at most once per ``lease_ttl``,
so an idle worker's poll is two directory listings and a read of each live
lease, however many records ``jobs/`` holds.  A marker is only a hint: the
claimer re-reads the record under the lease, so a stale marker (its job
started, finished, cancelled or unreadable) costs one record read and is
then deleted.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..engine.keys import blake_token
from ..io.persistence import ShardedJsonStore

__all__ = [
    "JOB_STATES",
    "JobSpec",
    "JobRecord",
    "JobRegistry",
    "LeaseLostError",
    "payload_digest",
]

PathLike = Union[str, Path]

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


class LeaseLostError(RuntimeError):
    """A heartbeat found the job's lease released or held by another worker."""


def payload_digest(payload: object) -> str:
    """Canonical content digest of a JSON-serialisable result payload.

    Key order is normalised, so two payloads are equal iff their digests
    are -- this is what the crash-resume tests and benchmarks compare
    between interrupted and uninterrupted runs.
    """
    return blake_token(json.dumps(payload, sort_keys=True))


@dataclass(frozen=True)
class JobSpec:
    """What to run: a registered flow plus its JSON parameters.

    ``tenant`` identifies who submitted the job for accounting; it is
    deliberately *not* part of :meth:`token`, because evaluations are
    content-addressed -- two tenants submitting the same work must share
    cache entries, which is the whole amortisation argument of the service.
    """

    flow: str
    params: Dict[str, object] = field(default_factory=dict)
    tenant: str = "default"

    def token(self) -> str:
        """Content digest of the work itself (flow + parameters)."""
        return blake_token("job", self.flow, json.dumps(self.params, sort_keys=True))

    def as_dict(self) -> dict:
        return {"flow": self.flow, "params": dict(self.params), "tenant": self.tenant}

    @classmethod
    def from_dict(cls, raw: dict) -> "JobSpec":
        return cls(
            flow=str(raw["flow"]),
            params=dict(raw.get("params") or {}),
            tenant=str(raw.get("tenant", "default")),
        )


@dataclass
class JobRecord:
    """One job's full lifecycle state as stored in ``jobs/<job_id>.json``."""

    job_id: str
    spec: JobSpec
    state: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: int = 0
    worker: Optional[str] = None
    progress: Optional[dict] = None
    """Latest pipeline stage event (stage/index/total/status) the worker saw."""
    error: Optional[str] = None
    digest: Optional[str] = None
    """Content digest of the result payload (see :func:`payload_digest`)."""
    cache: Optional[dict] = None
    """Per-job delta of the shared cache counters (``CacheStats.since``):
    the tenant-attributable hit-rate telemetry of this job."""
    elapsed_s: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "spec": self.spec.as_dict(),
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "worker": self.worker,
            "progress": self.progress,
            "error": self.error,
            "digest": self.digest,
            "cache": self.cache,
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "JobRecord":
        return cls(
            job_id=str(raw["job_id"]),
            spec=JobSpec.from_dict(raw["spec"]),
            state=str(raw.get("state", "queued")),
            submitted_at=float(raw.get("submitted_at", 0.0)),
            started_at=raw.get("started_at"),
            finished_at=raw.get("finished_at"),
            attempts=int(raw.get("attempts", 0)),
            worker=raw.get("worker"),
            progress=raw.get("progress"),
            error=raw.get("error"),
            digest=raw.get("digest"),
            cache=raw.get("cache"),
            elapsed_s=raw.get("elapsed_s"),
        )


class JobRegistry:
    """The shared on-disk job queue rooted at one service directory.

    Parameters
    ----------
    root:
        Service root directory; created on first use.  Everything --
        records, leases, results, the shared cache -- lives under it.
    lease_ttl:
        Seconds without a heartbeat after which a running job's worker is
        presumed dead and the job becomes reclaimable.
    shards:
        Shard count of the shared cache store handed out by
        :meth:`cache_store`.
    """

    def __init__(self, root: PathLike, *, lease_ttl: float = 60.0, shards: int = 16):
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        self.root = Path(root)
        self.lease_ttl = float(lease_ttl)
        self.shards = int(shards)
        self.jobs_dir = self.root / "jobs"
        self.queue_dir = self.root / "queue"
        self.leases_dir = self.root / "leases"
        self.results_dir = self.root / "results"
        for directory in (self.jobs_dir, self.queue_dir, self.leases_dir, self.results_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self._scanned_at: Optional[float] = None
        """``time.monotonic()`` of this object's last recovery scan."""

    # ------------------------------------------------------------------ #
    # Shared store
    # ------------------------------------------------------------------ #
    def cache_store(self) -> ShardedJsonStore:
        """The shared content-addressed evaluation-cache backend."""
        return ShardedJsonStore(self.root / "cache", shards=self.shards)

    # ------------------------------------------------------------------ #
    # Records
    # ------------------------------------------------------------------ #
    def _record_path(self, job_id: str) -> Path:
        if not job_id or "/" in job_id or job_id.startswith("."):
            raise ValueError(f"invalid job id {job_id!r}")
        return self.jobs_dir / f"{job_id}.json"

    def submit(self, spec: JobSpec, *, job_id: Optional[str] = None) -> JobRecord:
        """Enqueue a job and return its record.

        The default id embeds the spec's content token (legible dedupe aid)
        plus a unique suffix, so identical work submitted twice still gets
        two independent jobs -- whose evaluations nevertheless collapse in
        the shared content-addressed cache.
        """
        if job_id is None:
            job_id = f"{spec.flow}-{spec.token()[:10]}-{uuid.uuid4().hex[:6]}"
        path = self._record_path(job_id)
        if path.exists():
            raise ValueError(f"job id {job_id!r} already exists")
        record = JobRecord(job_id=job_id, spec=spec, state="queued", submitted_at=time.time())
        self._write_record(record)
        self._marker_path(record).touch()
        return record

    def _marker_path(self, record: JobRecord) -> Path:
        return self.queue_dir / f"{max(record.submitted_at, 0.0):020.9f}-{record.job_id}"

    def get(self, job_id: str) -> JobRecord:
        """The job's record.

        Raises ``KeyError`` for an unknown job, and ``RuntimeError`` naming
        the job and its record file when the record exists but cannot be
        read back (non-UTF-8 bytes, torn JSON, missing or mistyped fields).
        """
        path = self._record_path(job_id)
        try:
            return JobRecord.from_dict(json.loads(path.read_text(encoding="utf-8")))
        except FileNotFoundError:
            raise KeyError(f"unknown job {job_id!r}") from None
        # ValueError covers undecodable bytes and bad JSON; KeyError and
        # TypeError a document that is not a complete record.
        except (ValueError, KeyError, TypeError) as error:
            raise RuntimeError(
                f"job {job_id!r} has an unreadable record at {path}: {error!r}"
            ) from error

    def update(self, record: JobRecord) -> None:
        """Atomically publish a record (last writer wins)."""
        self._write_record(record)

    def _write_record(self, record: JobRecord) -> None:
        ShardedJsonStore._atomic_write(
            self._record_path(record.job_id), json.dumps(record.as_dict(), indent=2)
        )

    def list_jobs(
        self, state: Optional[str] = None, tenant: Optional[str] = None
    ) -> List[JobRecord]:
        """All job records, oldest submission first, optionally filtered.

        Unreadable or corrupt records (bad JSON, non-UTF-8 bytes, missing
        or mistyped fields) are skipped, so one bad file cannot stop the
        recovery scan of ``claim``.
        """
        records = []
        for path in self.jobs_dir.glob("*.json"):
            try:
                records.append(JobRecord.from_dict(json.loads(path.read_text(encoding="utf-8"))))
            # As in ``get``: ValueError covers undecodable bytes and bad JSON.
            except (OSError, ValueError, KeyError, TypeError):
                continue
        records.sort(key=lambda record: (record.submitted_at, record.job_id))
        if state is not None:
            records = [record for record in records if record.state == state]
        if tenant is not None:
            records = [record for record in records if record.spec.tenant == tenant]
        return records

    def cancel(self, job_id: str) -> bool:
        """Withdraw a queued job; returns whether it was cancelled.

        Only queued jobs can be cancelled -- a running worker holds the
        lease and owns the record.  (The race window between the state read
        and a concurrent claim is closed by the worker: it re-reads the
        record after acquiring the lease and releases cancelled jobs.)
        """
        record = self.get(job_id)
        if record.state != "queued":
            return False
        record.state = "cancelled"
        record.finished_at = time.time()
        self.update(record)
        self._marker_path(record).unlink(missing_ok=True)
        return True

    # ------------------------------------------------------------------ #
    # Leases
    # ------------------------------------------------------------------ #
    def _lease_path(self, job_id: str) -> Path:
        return self.leases_dir / f"{job_id}.lease"

    def lease_info(self, job_id: str) -> Optional[dict]:
        """The current lease (worker + heartbeat), or ``None`` if unleased."""
        try:
            return json.loads(self._lease_path(job_id).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None

    def lease_expired(self, job_id: str) -> bool:
        """Whether the job's lease heartbeat is older than ``lease_ttl``."""
        info = self.lease_info(job_id)
        if info is None:
            return True
        return (time.time() - float(info.get("heartbeat", 0.0))) > self.lease_ttl

    def _try_acquire_lease(self, job_id: str, worker_id: str) -> bool:
        """Publish the lease file atomically; False when someone holds it.

        The lease is written to a private temp file and hard-linked into
        place, so it never exists empty: a contender listing ``leases/``
        cannot read a lease being created as an unreadable, hence expired,
        one and take it over.
        """
        path = self._lease_path(job_id)
        temporary = path.parent / f"{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
        temporary.write_text(
            json.dumps({"worker": worker_id, "heartbeat": time.time()}), encoding="utf-8"
        )
        try:
            os.link(temporary, path)
        except FileExistsError:
            return False
        finally:
            temporary.unlink()
        return True

    def _try_takeover_lease(self, job_id: str, worker_id: str) -> bool:
        """Steal an *expired* lease; exactly one contender wins.

        The stale lease file is renamed away first -- :func:`os.rename` of
        one source succeeds for exactly one of several racing processes --
        and the winner re-creates a fresh lease via the exclusive-create
        path.
        """
        path = self._lease_path(job_id)
        stale = path.with_name(f"{path.name}.stale.{uuid.uuid4().hex[:8]}")
        try:
            os.rename(path, stale)
        except FileNotFoundError:
            # Someone else renamed it away (or it was released); fall through
            # to a plain acquire attempt on the now-missing file.
            pass
        else:
            stale.unlink(missing_ok=True)
        return self._try_acquire_lease(job_id, worker_id)

    def heartbeat(self, job_id: str, worker_id: str) -> None:
        """Refresh the lease timestamp.

        Raises :class:`LeaseLostError` if the lease changed hands.
        """
        info = self.lease_info(job_id)
        if info is None or info.get("worker") != worker_id:
            raise LeaseLostError(
                f"lease for job {job_id!r} is no longer held by {worker_id!r} "
                f"(current: {info})"
            )
        ShardedJsonStore._atomic_write(
            self._lease_path(job_id),
            json.dumps({"worker": worker_id, "heartbeat": time.time()}),
        )

    def release(self, job_id: str) -> None:
        self._lease_path(job_id).unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # Claiming
    # ------------------------------------------------------------------ #
    def claim(self, worker_id: str) -> Optional[JobRecord]:
        """Claim the next runnable job for ``worker_id``, or ``None``.

        Indexed (``queue/``) jobs are claimed oldest-first via exclusive
        lease creation; when none can be leased, jobs whose lease has
        expired (a dead worker, whether it died running the job or right
        after leasing it) are reclaimed via the takeover protocol.  When
        neither yields a job, queued records missing from the index are
        re-indexed by one full scan of ``jobs/`` -- at most once per
        ``lease_ttl`` per registry object -- and claimed in turn.  The
        returned record is already marked ``running`` with this worker and
        a fresh heartbeat; ``attempts > 1`` tells the caller this is a
        rerun of a job whose worker died.  A job that is not runnable once leased (cancelled,
        finished, its record missing or unreadable) is released, its marker
        deleted, and skipped.
        """
        started = self._claim_indexed(worker_id)
        if started is None:
            started = self._take_over_expired(worker_id)
        if started is None and self._reindex_queued():
            started = self._claim_indexed(worker_id)
        return started

    def _claim_indexed(self, worker_id: str) -> Optional[JobRecord]:
        for name in sorted(os.listdir(self.queue_dir)):
            job_id = name.partition("-")[2]
            if not self._try_acquire_lease(job_id, worker_id):
                continue
            started = self._start(job_id, worker_id)
            if started is not None:
                return started
            # Not runnable.  ``_start`` deleted a readable record's marker;
            # this deletes one whose record is missing or unreadable.
            (self.queue_dir / name).unlink(missing_ok=True)
        return None

    def _take_over_expired(self, worker_id: str) -> Optional[JobRecord]:
        for name in sorted(os.listdir(self.leases_dir)):
            if not name.endswith(".lease"):
                continue  # a lease being published or renamed away
            job_id = name[: -len(".lease")]
            if not self.lease_expired(job_id):
                continue
            if not self._try_takeover_lease(job_id, worker_id):
                continue
            started = self._start(job_id, worker_id)
            if started is not None:
                return started
        return None

    def _reindex_queued(self) -> bool:
        """Recovery scan: give every queued record a marker; whether any
        was missing.  Runs at most once per ``lease_ttl`` per object."""
        now = time.monotonic()
        if self._scanned_at is not None and now - self._scanned_at < self.lease_ttl:
            return False
        self._scanned_at = now
        indexed = set(os.listdir(self.queue_dir))
        missing = [
            marker
            for marker in map(self._marker_path, self.list_jobs(state="queued"))
            if marker.name not in indexed
        ]
        for marker in missing:
            marker.touch()
        return bool(missing)

    def _start(self, job_id: str, worker_id: str) -> Optional[JobRecord]:
        """Post-lease bookkeeping: re-read, verify runnable, mark running.

        Either way the job's marker has done its job and is deleted, also
        when a takeover, not the marker, led here.
        """
        try:
            record = self.get(job_id)
        except (KeyError, ValueError, RuntimeError):
            # Missing, unreadable, or a junk name in queue/ or leases/.
            self.release(job_id)
            return None
        if record.state not in ("queued", "running"):
            # Cancelled or finished: a stale marker, or a lease left behind.
            self.release(job_id)
            self._marker_path(record).unlink(missing_ok=True)
            return None
        record.state = "running"
        record.worker = worker_id
        record.started_at = time.time()
        record.attempts += 1
        record.error = None
        self.update(record)
        self._marker_path(record).unlink(missing_ok=True)
        return record

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def _result_path(self, job_id: str) -> Path:
        return self.results_dir / f"{job_id}.json"

    def store_result(self, job_id: str, payload: object, digest: str) -> None:
        ShardedJsonStore._atomic_write(
            self._result_path(job_id),
            json.dumps({"job_id": job_id, "digest": digest, "payload": payload}),
        )

    def result(self, job_id: str) -> Optional[dict]:
        """The stored ``{"digest", "payload"}`` envelope, or ``None``."""
        try:
            return json.loads(self._result_path(job_id).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
