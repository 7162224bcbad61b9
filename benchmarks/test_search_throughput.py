"""Search throughput: generation-batched NSGA-II vs the sequential hill climber.

The workload is the seeded AutoAx Gaussian-filter scenario (8x8 multiplier /
16-bit adder components, ``area`` vs SSIM): both strategies get the same
surrogate-evaluation budget (``iterations``), the same archive bound and the
same exact re-evaluation of their final front (the flow's one exact pass,
:meth:`repro.autoax.SearchContext.evaluate`, timed with each strategy), so
the comparison isolates *how* the budget is spent:

* ``hill_climb`` scores one configuration at a time -- a one-row feature
  matrix and one regressor ``predict`` call per estimator and evaluation;
* ``nsga2`` scores whole generations through the same scoring helper: one
  vectorised feature gather and one batched ``predict`` per estimator.

The exact pass costs each side in proportion to the distinct
configurations on its front: the hill climber's archive keeps revisits as
repeated entries, which one engine batch computes once.

Asserted (full mode): NSGA-II finishes the same budget >= 1.5x faster
wall-clock and its final exact front's 2-D hypervolume matches or dominates
the hill climber's against a shared reference point.

Set ``REPRO_BENCH_QUICK=1`` (the CI jobs do) to shrink the budget and skip
the wall-clock floor, which is meaningless on loaded shared runners.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.autoax import HwCostEstimator, QorEstimator, SearchContext, random_search
from repro.autoax.search import SEARCH_STRATEGIES
from repro.core.pareto import hypervolume_2d
from repro.engine import BatchEvaluator, EvalCache
from repro.generators import build_adder_library, build_multiplier_library
from repro.workloads import GaussianFilterAccelerator, components_from_library, default_image_set

pytestmark = pytest.mark.search

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
ITERATIONS = 300 if QUICK else 1500
POPULATION = 32 if QUICK else 48
ARCHIVE_LIMIT = 16
SEED = 23


@pytest.fixture(scope="module")
def workload():
    """Accelerator + fitted estimators of the seeded benchmark scenario."""
    from types import SimpleNamespace

    multipliers = components_from_library(
        build_multiplier_library(8, size=30, seed=2), 6, max_error=0.1
    )
    adders = components_from_library(
        build_adder_library(16, size=24, seed=4), 5, max_error=0.02
    )
    accelerator = GaussianFilterAccelerator(multipliers, adders)
    images = default_image_set(32)[:3]
    engine = BatchEvaluator(cache=EvalCache(), mode="serial")
    samples = random_search(accelerator, images, 40, seed=17, engine=engine)
    qor = QorEstimator().fit(accelerator, samples, engine=engine)
    hw = HwCostEstimator("area").fit(accelerator, samples, engine=engine)

    def ctx():
        engine = BatchEvaluator(cache=EvalCache(), mode="serial")
        return SearchContext(accelerator, qor, hw, images, engine, iterations=ITERATIONS, seed=SEED)

    return SimpleNamespace(accelerator=accelerator, images=images, ctx=ctx)


def _points(entries) -> np.ndarray:
    return np.array([[entry.cost["area"], 1.0 - entry.quality] for entry in entries])


def test_nsga2_beats_sequential_hill_climb_at_equal_budget(benchmark, workload):
    def run_both():
        timings = {}

        # -- sequential baseline: hill climb + the exact pass ------------- #
        ctx = workload.ctx()
        start = time.perf_counter()
        hill = SEARCH_STRATEGIES.get("hill_climb")(ctx, archive_limit=ARCHIVE_LIMIT)
        hill_exact = ctx.evaluate([entry.config for entry in hill])
        timings["hill_s"] = time.perf_counter() - start

        # -- generation-batched NSGA-II + the exact pass ------------------- #
        ctx = workload.ctx()
        start = time.perf_counter()
        nsga = SEARCH_STRATEGIES.get("nsga2")(
            ctx, archive_limit=ARCHIVE_LIMIT, population_size=POPULATION
        )
        nsga = ctx.evaluate([entry.config for entry in nsga])
        timings["nsga2_s"] = time.perf_counter() - start
        return timings, hill_exact, nsga

    timings, hill_exact, nsga = benchmark.pedantic(run_both, rounds=1, iterations=1)

    # --- equal budgets ---------------------------------------------------- #
    # Surrogate budget: both strategies were handed the same `iterations`;
    # NSGA-II's population sizing guarantees it never exceeds it.
    # Exact budget: both fronts are bounded by the same archive limit and
    # fully re-evaluated.
    assert len(hill_exact) <= ARCHIVE_LIMIT
    assert len(nsga) <= ARCHIVE_LIMIT

    # --- both fronts are exactly evaluated (quality is a real SSIM) ------- #
    for entry in list(hill_exact) + list(nsga):
        assert 0.0 <= entry.quality <= 1.0
        assert set(entry.cost) == {"area", "power", "latency"}

    # --- quality: hypervolume against a shared reference point ------------ #
    combined = np.vstack([_points(hill_exact), _points(nsga)])
    reference = combined.max(axis=0) * 1.05 + 1e-9
    hv_hill = hypervolume_2d(_points(hill_exact), reference)
    hv_nsga = hypervolume_2d(_points(nsga), reference)

    speedup = timings["hill_s"] / max(timings["nsga2_s"], 1e-9)
    print("\n=== Search throughput: sequential hill climb vs batched NSGA-II ===")
    print(f"budget: {ITERATIONS} surrogate evaluations, archive limit {ARCHIVE_LIMIT}")
    print(f"{'hill climb (sequential)':<28}{timings['hill_s'] * 1000:>10.1f} ms  "
          f"front {len(hill_exact):>3}  hypervolume {hv_hill:>10.2f}")
    print(f"{'nsga2 (generation-batched)':<28}{timings['nsga2_s'] * 1000:>10.1f} ms  "
          f"front {len(nsga):>3}  hypervolume {hv_nsga:>10.2f}")
    print(f"{'wall-clock speedup':<28}{speedup:>10.2f} x")
    print(f"{'hypervolume ratio':<28}{hv_nsga / max(hv_hill, 1e-12):>10.2f} x")

    # The front must match or dominate the sequential baseline's in both
    # modes; the seeded workload gives NSGA-II a comfortable margin.
    assert hv_nsga >= hv_hill, (hv_nsga, hv_hill)
    if not QUICK:
        assert speedup >= 1.5, timings


def test_generation_batched_exact_evaluation_amortises(benchmark, workload):
    """`evaluate_configurations`: per-image work shared across a generation,
    repeats served from the cache at a 100% hit rate."""
    accelerator, images = workload.accelerator, workload.images
    rng = np.random.default_rng(5)
    population = [accelerator.random_configuration(rng) for _ in range(24 if QUICK else 48)]
    engine = BatchEvaluator(cache=EvalCache(), mode="serial")

    def run():
        timings = {}
        start = time.perf_counter()
        serial = [
            (accelerator.quality(images, config), accelerator.hw_cost(config))
            for config in population
        ]
        timings["serial_s"] = time.perf_counter() - start

        start = time.perf_counter()
        cold = engine.evaluate_configurations(accelerator, images, population)
        timings["engine_cold_s"] = time.perf_counter() - start

        start = time.perf_counter()
        warm = engine.evaluate_configurations(accelerator, images, population)
        timings["engine_warm_s"] = time.perf_counter() - start
        return timings, serial, cold, warm

    timings, serial, cold, warm = benchmark.pedantic(run, rounds=1, iterations=1)

    # Bit-identical to the per-configuration path, and stable across repeats.
    for (quality, cost), payload in zip(serial, cold):
        assert payload["quality"] == quality
        assert payload["cost"] == {name: float(v) for name, v in cost.items()}
    assert warm == cold

    stats = engine.stats()
    print("\n=== Generation-batched exact evaluation ===")
    print(f"{'serial loop':<24}{timings['serial_s'] * 1000:>10.1f} ms")
    print(f"{'engine cold (batched)':<24}{timings['engine_cold_s'] * 1000:>10.1f} ms")
    print(f"{'engine warm (cached)':<24}{timings['engine_warm_s'] * 1000:>10.1f} ms")
    ratio = timings["engine_cold_s"] / timings["serial_s"]
    print(f"{'cold / serial':<24}{ratio:>10.2f}    (floor <= 1.05)")
    print(f"{'cache hit rate':<24}{stats.hit_rate * 100:>10.1f} %")

    # The warm pass is pure cache hits; the cold batched pass must not be
    # slower than the serial loop it replaces (it shares the per-image
    # preparation across the whole generation).
    assert timings["engine_warm_s"] <= timings["engine_cold_s"]
    if not QUICK:
        assert timings["engine_cold_s"] <= timings["serial_s"] * 1.05, timings
