#!/usr/bin/env python3
"""Exploration as a service: two tenants, one shared sharded cache.

Two tenants submit the *identical* AutoAx study to one service root.  A
worker runs tenant alice's job cold, paying for every exact evaluation;
a **fresh** worker (empty in-memory cache) then runs tenant bob's job and
finishes several times faster, because every evaluation is served from
the shared content-addressed :class:`repro.io.ShardedJsonStore` -- the
paper's "estimate once, reuse everywhere" amortisation argument lifted to
a multi-tenant job service.  Both payloads are bit-identical (equal
content digests).

The same root also demonstrates fault tolerance: job state lives in
atomic JSON records, workers own jobs through heartbeated lease files,
and a job whose worker dies is reclaimed and run again from the shared
cache, recomputing nothing the dead worker had stored (see
``pytest -m service`` and ``benchmarks/test_service_throughput.py``).

Run with:  python examples/autoax_service_jobs.py

Long-running deployments run workers as processes instead:

    python -m repro.service.worker --root runs/service
"""

from __future__ import annotations

import tempfile

from repro.service import JobClient, JobRegistry, Worker

STUDY = {
    "workload": "gaussian",
    "search_strategy": "hill_climb",
    "parameters": ["area"],
    "num_training_samples": 14,
    "num_random_baseline": 10,
    "hill_climb_iterations": 60,
    "image_size": 32,
    "multiplier_bits": 8,
    "multiplier_library_size": 30,
    "num_multipliers": 6,
    "adder_bits": 16,
    "adder_library_size": 22,
    "num_adders": 5,
}


def main() -> None:
    root = tempfile.mkdtemp(prefix="repro-service-")
    print(f"Service root: {root}")
    registry = JobRegistry(root)

    print("\nSubmitting the identical study for tenants alice and bob ...")
    alice = JobClient(registry, tenant="alice")
    bob = JobClient(registry, tenant="bob")
    alice.submit("autoax", STUDY)
    job_bob = bob.submit("autoax", STUDY)
    for record in alice.jobs():
        print(f"  {record.job_id}  [{record.spec.tenant}]  {record.state}")

    print("\nWorker 1 runs alice's job cold ...")
    cold = Worker(registry).run_once()
    print(
        f"  {cold.job_id}: {cold.state} in {cold.elapsed_s:.2f}s, "
        f"cache hit rate {cold.cache['hit_rate']:.0%} "
        f"({cold.cache['misses']} evaluations paid)"
    )

    print("\nA fresh Worker 2 runs bob's job on the shared warm store ...")
    warm = Worker(registry).run_once()
    print(
        f"  {warm.job_id}: {warm.state} in {warm.elapsed_s:.2f}s, "
        f"cache hit rate {warm.cache['hit_rate']:.0%}"
    )

    speedup = cold.elapsed_s / warm.elapsed_s
    print(f"\nCross-tenant amortisation: bob's identical job ran {speedup:.1f}x faster.")
    print(f"  alice's digest: {cold.digest}")
    print(f"  bob's digest  : {warm.digest}")
    assert cold.digest == warm.digest, "identical jobs must produce identical payloads"
    print("  identical payloads, computed once.")

    front = bob.result(job_bob)["scenarios"]["area"]["front"]
    print(f"\nbob's Pareto front ({len(front)} configurations):")
    for entry in front[:5]:
        print(
            f"  quality {entry['quality']:.4f}  area {entry['cost']['area']:8.1f}  "
            f"muls {entry['multipliers']}  adds {entry['adders']}"
        )


if __name__ == "__main__":
    main()
