"""The job worker: claims, runs and heartbeats jobs.

A worker owns one :class:`~repro.api.ExplorationSession` whose evaluation
cache is the registry's **shared sharded store**, so every evaluation, fit
and model score any worker computes lands in one content-addressed cache:

* a second tenant submitting the same work finds it warm;
* a job reclaimed from a dead worker runs its flow again, and everything the
  dead worker stored is a cache hit -- the two workers' misses add up to an
  uninterrupted run's, and the payload is bit-identical to it.

Liveness is lease-based: the worker renews the job's lease on every stage
event, every search generation and before it stores the result.  A worker
that dies simply stops heartbeating; it marks nothing, and after
``lease_ttl`` seconds any other worker's
:meth:`~repro.service.jobs.JobRegistry.claim` takes the job over.
A worker that stalled past its lease and finds the job taken over (its
heartbeat raises :class:`~repro.service.jobs.LeaseLostError`) drops the
job without writing to it.  Flow *errors* (other exceptions) are different
from worker *death*: they mark the job ``failed`` and release the lease,
because re-running a deterministic flow that raised would raise again.

Run a worker process against a service root with::

    python -m repro.service.worker --root runs/service [--poll 0.5] [--once]
"""

from __future__ import annotations

import os
import socket
import time
import uuid
from typing import Optional, Union

from .flows import JOB_FLOWS
from .jobs import JobRecord, JobRegistry, LeaseLostError, payload_digest

__all__ = ["Worker", "main"]


class Worker:
    """Claims jobs from a :class:`JobRegistry` and executes their flows.

    Parameters
    ----------
    registry:
        The shared job registry (or a service-root path to open one at).
    worker_id:
        Stable identity used on leases; defaults to host + pid + a nonce.
    session_kwargs:
        Extra keyword arguments for the worker's
        :class:`~repro.api.ExplorationSession` (e.g. ``engine_mode``,
        ``max_workers``).  ``cache`` is always the registry's shared
        sharded store and cannot be overridden.
    """

    def __init__(
        self,
        registry: Union[JobRegistry, str, "os.PathLike[str]"],
        *,
        worker_id: Optional[str] = None,
        **session_kwargs,
    ):
        from ..api import ExplorationSession
        from ..engine import EvalCache

        if not isinstance(registry, JobRegistry):
            registry = JobRegistry(registry)
        self.registry = registry
        self.worker_id = worker_id or (
            f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        )
        if "cache" in session_kwargs:
            raise ValueError("session 'cache' is owned by the registry")
        self.session = ExplorationSession(
            cache=EvalCache(store=registry.cache_store()), **session_kwargs
        )

    # ------------------------------------------------------------------ #
    def run_once(self) -> Optional[JobRecord]:
        """Claim and fully execute one job; ``None`` when the queue is idle.

        A job taken over by another worker mid-run comes back as this
        worker last saw it (``running``).
        """
        record = self.registry.claim(self.worker_id)
        if record is None:
            return None
        return self._execute(record)

    def run_forever(
        self,
        *,
        poll_interval: float = 0.5,
        max_jobs: Optional[int] = None,
        idle_timeout: Optional[float] = None,
    ) -> int:
        """Process jobs until ``max_jobs`` are done or the queue stays idle.

        Returns the number of jobs executed.  ``idle_timeout`` bounds how
        long the worker keeps polling an empty queue (``None``: forever).
        """
        executed = 0
        idle_since: Optional[float] = None
        while max_jobs is None or executed < max_jobs:
            record = self.run_once()
            if record is not None:
                executed += 1
                idle_since = None
                continue
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            if idle_timeout is not None and now - idle_since >= idle_timeout:
                break
            time.sleep(poll_interval)
        return executed

    # ------------------------------------------------------------------ #
    def _heartbeat(self, record: JobRecord) -> None:
        """Renew the lease; overridden by tests to simulate worker death."""
        self.registry.heartbeat(record.job_id, self.worker_id)

    def _execute(self, record: JobRecord) -> JobRecord:
        flow = JOB_FLOWS.get(record.spec.flow)

        def on_progress(event) -> None:
            record.progress = {
                "stage": event.stage,
                "index": event.index,
                "total": event.total,
                "status": event.status,
            }
            # Heartbeat first: a worker whose lease was taken over must not
            # write its stale record over the new owner's.
            self._heartbeat(record)
            self.registry.update(record)

        def on_generation(stats: dict) -> None:
            self._heartbeat(record)

        before = self.session.stats()
        started = time.perf_counter()
        try:
            payload = flow(
                self.session,
                dict(record.spec.params),
                run_id=record.job_id,
                progress=on_progress,
                on_generation=on_generation,
            )
            # The flow may have run past the lease since its last heartbeat:
            # only the lease holder stores the result.
            self._heartbeat(record)
        except LeaseLostError:
            # The lease expired and another worker took the job over: the
            # record and the lease are the new owner's, so touch neither.
            return record
        except Exception as exc:  # noqa: BLE001 - deterministic flow failure
            # A raising flow would raise again on retry; fail the job.  A
            # *dying* worker never reaches this branch -- its lease simply
            # expires and another worker reruns the still-``running`` job.
            record.state = "failed"
            record.error = f"{type(exc).__name__}: {exc}"
            record.finished_at = time.time()
            record.elapsed_s = time.perf_counter() - started
            self.registry.update(record)
            self.registry.release(record.job_id)
            return record
        finally:
            # The run id is the job id, so the session would keep every job's
            # final state -- and through its ``on_generation`` closure, a
            # reference cycle back to this worker.
            self.session.runs.pop(record.job_id, None)

        digest = payload_digest(payload)
        self.registry.store_result(record.job_id, payload, digest)
        record.state = "done"
        record.digest = digest
        record.finished_at = time.time()
        record.elapsed_s = time.perf_counter() - started
        record.cache = self.session.stats().since(before).as_dict()
        self.registry.update(record)
        self.registry.release(record.job_id)
        return record


def main(argv: Optional[list] = None) -> int:
    """``python -m repro.service.worker``: run a worker against a root."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.service.worker",
        description="Run an exploration-service worker against a service root.",
    )
    parser.add_argument("--root", required=True, help="service root directory")
    parser.add_argument("--lease-ttl", type=float, default=60.0, help="lease TTL seconds")
    parser.add_argument("--shards", type=int, default=16, help="shared-store shard count")
    parser.add_argument("--poll", type=float, default=0.5, help="idle poll interval seconds")
    parser.add_argument("--max-jobs", type=int, default=None, help="exit after N jobs")
    parser.add_argument(
        "--idle-timeout", type=float, default=None, help="exit after this long idle"
    )
    parser.add_argument("--once", action="store_true", help="process at most one job and exit")
    args = parser.parse_args(argv)

    registry = JobRegistry(args.root, lease_ttl=args.lease_ttl, shards=args.shards)
    worker = Worker(registry)
    if args.once:
        record = worker.run_once()
        print(f"{worker.worker_id}: {record.job_id + ' -> ' + record.state if record else 'idle'}")
        return 0
    executed = worker.run_forever(
        poll_interval=args.poll, max_jobs=args.max_jobs, idle_timeout=args.idle_timeout
    )
    print(f"{worker.worker_id}: executed {executed} job(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
