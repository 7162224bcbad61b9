"""Exploration-as-a-service: an async job layer over the shared caches.

This package turns the session/pipeline machinery into a multi-tenant
service: clients submit flow runs as JSON job specs, worker processes claim
them through atomic lease files, and **every worker shares one
content-addressed evaluation cache** (a sharded
:class:`~repro.io.ShardedJsonStore`), so cache hit rates compound across
tenants -- the same design-space evaluation submitted by different jobs is
computed once, which is the amortisation argument the paper's ML-estimator
flow makes against repeated synthesis, lifted to service scale.

The moving parts:

* :class:`JobRegistry` -- the on-disk queue: job records, lease files with
  heartbeats, results, and the shared sharded cache/artifact stores.
* :class:`JobClient` -- ``submit`` / ``status`` / ``result`` / ``cancel``
  (plus ``wait`` for scripts) against one service root.
* :class:`Worker` -- claims jobs, runs their registered flow through an
  :class:`~repro.api.ExplorationSession`, writes per-stage progress back to
  the record, and heartbeats its lease on every stage and every search
  generation.  When a worker dies, its lease expires and the next worker
  reclaims the job, resuming from the last pipeline/NSGA-II checkpoint --
  bit-identical to an uninterrupted run.
* :data:`JOB_FLOWS` -- the registry of runnable flows (built-ins:
  ``"autoax"`` over any workload x search strategy, ``"approxfpgas"``);
  custom flows register a key.

Quickstart::

    from repro.service import JobClient, Worker

    client = JobClient("runs/service", tenant="alice")
    job_id = client.submit("autoax", {"workload": "sobel"})

    Worker("runs/service").run_once()     # or: python -m repro.service.worker

    print(client.status(job_id).state)    # "done"
    payload = client.result(job_id)

See ``benchmarks/test_service_throughput.py`` for the measured effect: a
second tenant's identical job rides the first tenant's warm cache.
"""

from .client import JobClient
from .flows import JOB_FLOWS
from .jobs import JOB_STATES, JobRecord, JobRegistry, JobSpec, LeaseLostError, payload_digest


def __getattr__(name: str):
    # Lazy so ``python -m repro.service.worker`` does not import the worker
    # module twice (runpy would warn about the package-level import).
    if name == "Worker":
        from .worker import Worker

        return Worker
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "JOB_FLOWS",
    "JOB_STATES",
    "JobClient",
    "JobRecord",
    "JobRegistry",
    "JobSpec",
    "LeaseLostError",
    "Worker",
    "payload_digest",
]
