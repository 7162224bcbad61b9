#!/usr/bin/env python3
"""AutoAx-FPGA case study: approximate Gaussian-filter accelerator.

Nine Pareto-optimal approximate 8x8 multipliers and eight approximate 16-bit
adders (as in the paper) are fed to the AutoAx-FPGA flow, which searches the
~1e14-configuration design space with estimator-driven hill climbing and
compares the result against random search.  The flow runs as a staged
pipeline inside an :class:`repro.api.ExplorationSession`: the accelerator is
resolved from the :data:`repro.workloads.WORKLOADS` registry (``"gaussian"``
here -- ``"sobel"`` and ``"sharpen"`` ship alongside it, see
``autoax_sobel_search.py``), exact evaluations are shared between scenarios
through the session cache, and the search strategy is picked from the
:data:`repro.autoax.SEARCH_STRATEGIES` registry (``"hill_climb"`` here; try
``"random_archive"`` for the mutation-free ablation).

Run with:  python examples/autoax_gaussian_filter.py
"""

from __future__ import annotations

from repro.api import ExplorationSession
from repro.autoax import AutoAxConfig
from repro.generators import build_adder_library, build_multiplier_library
from repro.workloads import components_from_library


def main() -> None:
    print("Building component libraries ...")
    multiplier_library = build_multiplier_library(8, size=60, seed=31)
    adder_library = build_adder_library(16, size=40, seed=37)
    multipliers = components_from_library(multiplier_library, 9, max_error=0.05)
    adders = components_from_library(adder_library, 8, max_error=0.02)
    print(f"  multipliers: {[c.name for c in multipliers]}")
    print(f"  adders     : {[c.name for c in adders]}")

    config = AutoAxConfig(
        parameters=("latency", "power", "area"),
        num_training_samples=60,
        num_random_baseline=60,
        hill_climb_iterations=250,
        image_size=48,
        seed=17,
        search_strategy="hill_climb",   # a repro.autoax.SEARCH_STRATEGIES key
        workload="gaussian",            # a repro.workloads.WORKLOADS key
    )
    session = ExplorationSession(seed=config.seed)

    print("\nRunning AutoAx-FPGA (QoR estimator + hill climbing per FPGA parameter) ...")

    def report(event) -> None:
        if event.status != "started":
            print(f"  [{event.index + 1}/{event.total}] {event.stage:<20} "
                  f"{event.status} ({event.elapsed_s:.2f} s)")

    result = session.run_autoax(multipliers, adders, config, progress=report)

    print(f"\ndesign space: {result.design_space_size:.2e} configurations")
    print(f"exactly evaluated: {result.training_size} training + "
          f"{sum(s.num_candidates for s in result.scenarios.values())} candidates")

    for parameter, scenario in result.scenarios.items():
        comparison = result.hypervolume_comparison(parameter)
        winner = "AutoAx-FPGA" if comparison["autoax"] >= comparison["random"] else "random search"
        print(f"\n--- scenario: SSIM vs {parameter} ---")
        print(f"  hypervolume AutoAx-FPGA = {comparison['autoax']:.4f}, "
              f"random = {comparison['random']:.4f}  ->  {winner} wins")
        print("  Pareto-front configurations (cost, SSIM):")
        for entry in sorted(scenario.front, key=lambda e: e.cost[parameter])[:6]:
            print(f"    {parameter}={entry.cost[parameter]:8.2f}   SSIM={entry.quality:.4f}")

    stats = session.stats()
    print(f"\nShared evaluation cache: {stats.lookups} lookups, "
          f"{stats.hit_rate:.0%} served from cache")


if __name__ == "__main__":
    main()
