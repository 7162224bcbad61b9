#!/usr/bin/env python3
"""Quickstart: run the ApproxFPGAs methodology on a small multiplier library.

The script builds a library of 8x8 approximate multipliers and drives the
full ML-driven exploration flow (synthesize a subset, train the Table I
models, build pseudo-Pareto fronts, re-synthesize the candidates) through an
:class:`repro.api.ExplorationSession` -- the public stage-pipeline API that
owns the shared evaluation cache and reports per-stage progress.  With a
``workspace`` directory the cache lives on disk, so running the script
again -- after it finished or after it was interrupted -- is served from
it and recomputes only what it had not stored.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.api import ExplorationSession
from repro.core import ApproxFpgasConfig
from repro.generators import build_multiplier_library


def main() -> None:
    print("Building a library of 8x8 approximate multipliers ...")
    library = build_multiplier_library(8, size=120, seed=7)
    print(f"  {len(library)} circuits, families: {library.families()}")

    config = ApproxFpgasConfig(
        training_fraction=0.15,     # fraction of the library synthesized for training
        num_pseudo_fronts=3,        # successive pseudo-Pareto fronts per model
        top_k_models=3,             # models whose fronts are unioned
        model_ids=["ML2", "ML4", "ML5", "ML10", "ML11", "ML14", "ML18"],
        seed=42,
        evaluate_coverage=True,     # also synthesize everything to measure coverage
    )

    # One session owns the evaluation cache, the synthesizers and the RNG
    # seeding; pass workspace="runs/quickstart" to keep the cache on disk,
    # so a rerun recomputes only what an earlier run had not stored.
    session = ExplorationSession(seed=config.seed)

    print("Running the ApproxFPGAs flow (staged pipeline) ...")

    def report(event) -> None:
        if event.status != "started":
            print(f"  [{event.index + 1}/{event.total}] {event.stage:<28} "
                  f"{event.status} ({event.elapsed_s:.2f} s)")

    result = session.run_approxfpgas(library, config, progress=report)

    print("\nTop models per FPGA parameter (validation fidelity):")
    for parameter in ("latency", "power", "area"):
        top = ", ".join(f"{m} ({f:.2f})" for m, f in result.top_models(parameter))
        print(f"  {parameter:<8}: {top}")

    cost = result.exploration_cost
    print("\nExploration-time accounting (modeled synthesis time):")
    print(f"  exhaustive exploration : {cost.exhaustive_time_s / 3600:.1f} h")
    print(f"  ApproxFPGAs flow       : {cost.approxfpgas_time_s / 3600:.1f} h")
    print(f"  speedup                : {cost.speedup:.2f}x")

    print("\nPareto-optimal FPGA-ACs (error vs #LUTs):")
    outcome = result.parameter_outcomes["area"]
    for name in outcome.final_front_names[:12]:
        record = result.records[name]
        print(
            f"  {name:<32} MED={record.error.med:.4f}  LUTs={record.fpga.luts:>4}"
            f"  latency={record.fpga.latency_ns:.2f} ns  power={record.fpga.total_power_mw:.2f} mW"
        )
    print(f"\nCoverage of the true Pareto front: "
          + ", ".join(f"{p}={o.coverage:.0%}" for p, o in result.parameter_outcomes.items()))

    stats = session.stats()
    print(f"\nShared evaluation cache: {stats.lookups} lookups, "
          f"{stats.hit_rate:.0%} served from cache")


if __name__ == "__main__":
    main()
