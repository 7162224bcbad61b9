#!/usr/bin/env python3
"""NSGA-II component selection for a Sobel edge-detection accelerator.

The same AutoAx-FPGA machinery as ``autoax_gaussian_filter.py``, but on a
*different workload* from the :data:`repro.workloads.WORKLOADS` registry:
the ``"sobel"`` accelerator computes the 3x3 Sobel gradient magnitude
through twelve approximate multipliers and eight approximate adders, and
judges quality with the gradient-magnitude-similarity metric (``"gms"``)
instead of the Gaussian case study's SSIM.  The per-scenario search is the
population-based ``"nsga2"`` strategy; the surviving candidates are
re-evaluated exactly as generation batches through the session's engine,
under cache keys namespaced by workload (a Gaussian study in the same
session would share the components' circuit-level evaluations but never
the accelerator entries).

Run with:  python examples/autoax_sobel_search.py
"""

from __future__ import annotations

from repro.api import ExplorationSession
from repro.autoax import AutoAxConfig
from repro.generators import build_adder_library, build_multiplier_library
from repro.workloads import WORKLOADS, build_workload, components_from_library


def main() -> None:
    print("Building component libraries ...")
    multipliers = components_from_library(
        build_multiplier_library(8, size=60, seed=31), 9, max_error=0.05
    )
    adders = components_from_library(
        build_adder_library(16, size=40, seed=37), 8, max_error=0.02
    )

    workload = build_workload("sobel", multipliers, adders)
    print(f"registered workloads: {WORKLOADS.keys()}")
    print(f"sobel slots: {workload.slots()}")
    print(f"sobel design space: {workload.design_space_size:.2e} configurations")

    config = AutoAxConfig(
        parameters=("area", "power"),
        num_training_samples=60,
        num_random_baseline=60,
        hill_climb_iterations=600,     # the surrogate budget per scenario
        image_size=48,
        seed=17,
        search_strategy="nsga2",       # a repro.autoax.SEARCH_STRATEGIES key
        workload="sobel",              # a repro.workloads.WORKLOADS key
    )
    session = ExplorationSession(seed=config.seed)

    print("\nRunning AutoAx-FPGA on the Sobel workload (NSGA-II per scenario) ...")

    def report(event) -> None:
        if event.status != "started":
            print(f"  [{event.index + 1}/{event.total}] {event.stage:<20} "
                  f"{event.status} ({event.elapsed_s:.2f} s)")

    result = session.run_autoax(multipliers, adders, config, progress=report)

    for parameter, scenario in result.scenarios.items():
        comparison = result.hypervolume_comparison(parameter)
        winner = "AutoAx-FPGA" if comparison["autoax"] >= comparison["random"] else "random search"
        print(f"\n--- scenario: gradient similarity vs {parameter} ---")
        print(f"  hypervolume AutoAx-FPGA = {comparison['autoax']:.4f}, "
              f"random = {comparison['random']:.4f}  ->  {winner} wins")
        print("  exact Pareto-front configurations (cost, GMS):")
        for entry in sorted(scenario.front, key=lambda e: e.cost[parameter])[:6]:
            print(f"    {parameter}={entry.cost[parameter]:8.2f}   GMS={entry.quality:.4f}")

    stats = session.stats()
    print(f"\nShared evaluation cache: {stats.lookups} lookups, "
          f"{stats.hit_rate:.0%} served from cache")


if __name__ == "__main__":
    main()
