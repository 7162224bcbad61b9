#!/usr/bin/env python3
"""Population-based NSGA-II search over the Gaussian-filter design space.

The same AutoAx-FPGA case study as ``autoax_gaussian_filter.py``, but the
per-scenario search is the population-based ``"nsga2"`` strategy from the
:mod:`repro.search` subsystem: whole generations are scored through the
estimators in one batched call (vectorised feature gather + one regressor
``predict``), the global front accumulates in a shared
:class:`repro.search.ParetoArchive`, and the surviving candidates are
re-evaluated exactly as one generation batch through the session's
:meth:`repro.engine.BatchEvaluator.evaluate_configurations`.

The script runs hill climbing and NSGA-II on the identical seeded scenario
and prints a wall-clock + hypervolume comparison (the benchmark version
with asserted floors lives in ``benchmarks/test_search_throughput.py``).

Run with:  python examples/autoax_nsga2_search.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.api import ExplorationSession
from repro.autoax import AutoAxConfig
from repro.core import hypervolume_2d
from repro.generators import build_adder_library, build_multiplier_library
from repro.workloads import components_from_library


def front_points(result, parameter: str) -> np.ndarray:
    scenario = result.scenarios[parameter]
    return np.array(
        [[entry.cost[parameter], 1.0 - entry.quality] for entry in scenario.candidates]
    )


def main() -> None:
    print("Building component libraries ...")
    multipliers = components_from_library(
        build_multiplier_library(8, size=60, seed=31), 9, max_error=0.05
    )
    adders = components_from_library(
        build_adder_library(16, size=40, seed=37), 8, max_error=0.02
    )

    results = {}
    for strategy in ("hill_climb", "nsga2"):
        config = AutoAxConfig(
            parameters=("area",),
            num_training_samples=60,
            num_random_baseline=60,
            hill_climb_iterations=800,     # the shared surrogate budget
            image_size=48,
            seed=17,
            search_strategy=strategy,      # a repro.autoax.SEARCH_STRATEGIES key
        )
        session = ExplorationSession(seed=config.seed)
        print(f"\nRunning AutoAx-FPGA with search_strategy={strategy!r} ...")
        started = time.perf_counter()
        result = session.run_autoax(multipliers, adders, config)
        elapsed = time.perf_counter() - started
        results[strategy] = (result, elapsed)
        scenario = result.scenarios["area"]
        print(f"  {elapsed:.2f} s, {scenario.num_candidates} candidates, "
              f"{len(scenario.front)} on the exact Pareto front")

    combined = np.vstack([front_points(results[s][0], "area") for s in results])
    reference = combined.max(axis=0) * 1.05 + 1e-9
    print("\n=== hill climb vs NSGA-II (area scenario, equal budget) ===")
    for strategy, (result, elapsed) in results.items():
        volume = hypervolume_2d(front_points(result, "area"), reference)
        comparison = result.hypervolume_comparison("area")
        print(f"{strategy:<12} {elapsed:>7.2f} s   hypervolume {volume:>12.2f}   "
              f"(vs random baseline: {comparison['autoax']:.2f} / {comparison['random']:.2f})")

    best = results["nsga2"][0].scenarios["area"].front
    print("\nNSGA-II exact front (area vs SSIM):")
    for entry in sorted(best, key=lambda e: e.cost["area"]):
        print(f"  area {entry.cost['area']:>7.1f} LUTs   SSIM {entry.quality:.4f}   "
              f"multipliers {entry.config.multiplier_indices} adders {entry.config.adder_indices}")


if __name__ == "__main__":
    main()
