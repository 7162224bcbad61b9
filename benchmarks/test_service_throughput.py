"""Service-level throughput: cross-tenant cache amortisation + crash-resume.

The service argument in numbers, recorded to ``BENCH_service.json``:

* **Two tenants, one cache** -- tenant *alice* pays the cold cost of an
  AutoAx study; tenants *bob* and *carol* submit the *identical* job and a
  **fresh** worker (cold in-memory cache, warm shared disk store) completes
  it at least :data:`WARM_SPEEDUP_FLOOR`x faster, because every exact
  evaluation is served from the shared content-addressed sharded store.
  This is the paper's amortisation argument -- estimate once, reuse
  everywhere -- lifted from one flow run to a multi-tenant service.
* **Crash-resume identity** -- a worker killed mid-job loses no work: the
  reclaimed job resumes from its checkpoints and its payload digest equals
  an uninterrupted run's, bit for bit.
* **Warm job throughput** -- jobs/second through one worker when the cache
  is fully warm (the queue-overhead regime).

Set ``REPRO_BENCH_QUICK=1`` (the CI jobs do) to shrink the study sizes.
The speedup floor is asserted on the best of two attempts: individual runs
are ~100ms-scale in quick mode, so one attempt can be distorted by machine
load; a genuine regression fails both.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.service import JobClient, JobRegistry, Worker

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Enforced floor on cold/warm wall-clock (measured margin: quick ~3.3-4.4x,
#: full ~3.8-4.2x on an idle machine).
WARM_SPEEDUP_FLOOR = 3.0

BENCH_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_service.json"
#: BENCH files are tracked, so they are rewritten only on request
#: (``REPRO_BENCH_WRITE=1``, set by the CI jobs that upload them); a plain
#: test run leaves the tree clean.
WRITE = os.environ.get("REPRO_BENCH_WRITE") == "1"

#: One AutoAx study, sized so exact (cacheable) evaluation dominates the
#: cold run: evaluation cost scales with image size, while the per-run
#: overhead every tenant pays (library netlist construction, estimator
#: fitting, estimated-evaluation search) stays modest.
JOB_PARAMS = dict(
    parameters=["area"],
    num_training_samples=12 if QUICK else 16,
    num_random_baseline=12 if QUICK else 16,
    hill_climb_iterations=20 if QUICK else 40,
    image_size=48,
    multiplier_bits=4 if QUICK else 8,
    multiplier_library_size=16 if QUICK else 24,
    num_multipliers=4 if QUICK else 6,
    adder_bits=8 if QUICK else 16,
    adder_library_size=12 if QUICK else 20,
    num_adders=3 if QUICK else 5,
)


def _record_section(section: str, payload: dict) -> None:
    """Merge one benchmark section into ``BENCH_service.json`` (only when ``WRITE``)."""
    if not WRITE:
        return
    try:
        document = json.loads(BENCH_JSON_PATH.read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        document = {"benchmark": "service_throughput"}
    document["quick"] = QUICK
    document["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    document[section] = payload
    BENCH_JSON_PATH.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {BENCH_JSON_PATH} [{section}]")


# --------------------------------------------------------------------- #
# Two tenants, one shared cache
# --------------------------------------------------------------------- #
def _two_tenant_attempt(root) -> dict:
    """Cold tenant + two warm tenants, each through a *fresh* worker."""
    registry = JobRegistry(root)
    for tenant in ("alice", "bob", "carol"):
        JobClient(registry, tenant=tenant).submit("autoax", JOB_PARAMS)
    records = [Worker(registry, engine_mode="serial").run_once() for _ in range(3)]
    assert all(record.state == "done" for record in records)
    # Identical work => identical payloads, cold or warm.
    assert len({record.digest for record in records}) == 1
    cold, warm = records[0], records[1:]
    # The cold tenant built the cache; the warm tenants ride it.
    assert cold.cache["hit_rate"] < 0.5
    assert all(record.cache["hit_rate"] > 0.5 for record in warm)
    best_warm = min(record.elapsed_s for record in warm)
    return {
        "cold_s": cold.elapsed_s,
        "warm_s": [record.elapsed_s for record in warm],
        "speedup": cold.elapsed_s / best_warm,
        "cold_hit_rate": cold.cache["hit_rate"],
        "cross_tenant_hit_rate": warm[0].cache["hit_rate"],
        "corrupt_entries": sum(record.cache["corrupt"] for record in records),
    }


def test_second_tenant_rides_the_first_tenants_cache(tmp_path):
    attempts = [_two_tenant_attempt(tmp_path / "attempt-0")]
    if attempts[0]["speedup"] < WARM_SPEEDUP_FLOOR:  # absorb machine-load noise
        attempts.append(_two_tenant_attempt(tmp_path / "attempt-1"))
    best = max(attempts, key=lambda outcome: outcome["speedup"])

    print(
        f"two tenants: cold {best['cold_s'] * 1000:.0f}ms, "
        f"warm {min(best['warm_s']) * 1000:.0f}ms "
        f"({best['speedup']:.1f}x, hit rate {best['cross_tenant_hit_rate']:.0%})"
    )
    _record_section(
        "two_tenant",
        {**best, "attempts": len(attempts), "speedup_floor": WARM_SPEEDUP_FLOOR},
    )
    assert best["corrupt_entries"] == 0
    assert best["cross_tenant_hit_rate"] >= 0.5
    assert best["speedup"] >= WARM_SPEEDUP_FLOOR, (
        f"warm tenant speedup {best['speedup']:.2f}x below the "
        f"{WARM_SPEEDUP_FLOOR}x floor (cold {best['cold_s']:.3f}s, "
        f"warm {min(best['warm_s']):.3f}s)"
    )


# --------------------------------------------------------------------- #
# Kill a worker, reclaim the job, finish bit-identically
# --------------------------------------------------------------------- #
class _DiesAfterFirstStage(Worker):
    def _heartbeat(self, record):
        super()._heartbeat(record)
        progress = record.progress or {}
        if progress.get("stage") == "collect-samples" and progress.get("status") == "completed":
            raise KeyboardInterrupt("simulated worker death")


def test_killed_then_resumed_job_reproduces_the_digest(tmp_path):
    # Reference: the same job, uninterrupted, in a pristine root.
    reference_registry = JobRegistry(tmp_path / "reference")
    JobClient(reference_registry).submit("autoax", JOB_PARAMS, job_id="reference")
    reference = Worker(reference_registry, engine_mode="serial").run_once()
    assert reference.state == "done"

    registry = JobRegistry(tmp_path / "service", lease_ttl=0.05)
    JobClient(registry).submit("autoax", JOB_PARAMS, job_id="victim")
    try:
        _DiesAfterFirstStage(registry, engine_mode="serial").run_once()
        raise AssertionError("the killer worker should have died")
    except KeyboardInterrupt:
        pass
    assert registry.get("victim").state == "running"  # dead, not failed
    time.sleep(0.1)  # let the orphaned lease expire

    resumed = Worker(registry, engine_mode="serial").run_once()
    assert resumed.job_id == "victim" and resumed.state == "done"

    print(
        f"crash-resume: attempt {resumed.attempts}, "
        f"restored {resumed.resumed_stages}, digest match "
        f"{resumed.digest == reference.digest}"
    )
    _record_section(
        "crash_resume",
        {
            "reference_digest": reference.digest,
            "resumed_digest": resumed.digest,
            "digest_match": resumed.digest == reference.digest,
            "attempts": resumed.attempts,
            "resumed_stages": resumed.resumed_stages,
        },
    )
    assert resumed.attempts == 2
    assert "collect-samples" in resumed.resumed_stages
    assert resumed.digest == reference.digest, "resumed job diverged from the reference run"


# --------------------------------------------------------------------- #
# Warm-queue throughput
# --------------------------------------------------------------------- #
def test_warm_job_throughput(tmp_path):
    registry = JobRegistry(tmp_path)
    client = JobClient(registry)
    client.submit("autoax", JOB_PARAMS)  # cold primer
    worker = Worker(registry, engine_mode="serial")
    assert worker.run_once().state == "done"

    num_jobs = 4 if QUICK else 8
    for _ in range(num_jobs):
        client.submit("autoax", JOB_PARAMS)
    start = time.perf_counter()
    executed = worker.run_forever(max_jobs=num_jobs, poll_interval=0.01)
    elapsed = time.perf_counter() - start

    assert executed == num_jobs
    done = client.jobs(state="done")
    assert len(done) == num_jobs + 1
    assert len({record.digest for record in done}) == 1

    jobs_per_s = num_jobs / elapsed
    print(f"warm throughput: {num_jobs} jobs in {elapsed:.2f}s ({jobs_per_s:.1f} jobs/s)")
    _record_section(
        "throughput",
        {"jobs": num_jobs, "elapsed_s": elapsed, "jobs_per_s": jobs_per_s},
    )
    assert jobs_per_s > 0.5  # sanity floor only; this is telemetry, not a race
