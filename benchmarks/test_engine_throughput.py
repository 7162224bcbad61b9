"""Engine throughput: serial per-circuit loops vs the batched/cached engine.

The workload mirrors what the ApproxFPGAs flow does to a library: evaluate
every circuit's error metrics once for the records stage, then again for a
later stage (re-synthesis selection, coverage, or a re-run over the same
library).  The serial baseline calls ``ErrorEvaluator.evaluate`` per circuit
on every pass; it shares the evaluator's expanded operands with the engine,
so what the engine adds is computing structurally identical circuits once
per batch and serving the repeat pass from the content-addressed cache.

Set ``REPRO_BENCH_QUICK=1`` (the CI smoke job does) to shrink the library
and relax the wall-clock assertions, which are meaningless on loaded
shared runners.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.engine import BatchEvaluator, EvalCache
from repro.error import ErrorEvaluator, evaluate_error
from repro.generators import build_multiplier_library

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
LIBRARY_SIZE = 16 if QUICK else 50
BIT_WIDTH = 4 if QUICK else 8


@pytest.fixture(scope="module")
def throughput_library():
    return build_multiplier_library(BIT_WIDTH, size=LIBRARY_SIZE, seed=41)


def test_engine_throughput_serial_vs_batched_cached(benchmark, throughput_library):
    library = throughput_library
    circuits = list(library)
    reference = library.reference()

    def run_workload():
        timings = {}

        # -- serial baseline: the pre-engine per-circuit loop ------------- #
        shared_evaluator = ErrorEvaluator(reference)
        start = time.perf_counter()
        serial_pass_one = [shared_evaluator.evaluate(circuit) for circuit in circuits]
        timings["serial_pass_s"] = time.perf_counter() - start
        start = time.perf_counter()
        [shared_evaluator.evaluate(circuit) for circuit in circuits]
        timings["serial_repeat_s"] = time.perf_counter() - start

        # -- fully naive variant: one-shot evaluator per circuit ---------- #
        start = time.perf_counter()
        [evaluate_error(circuit, reference) for circuit in circuits[: max(4, len(circuits) // 5)]]
        naive_sample = time.perf_counter() - start
        timings["naive_per_circuit_s"] = naive_sample / max(4, len(circuits) // 5)

        # -- engine: batched cold pass + cached repeat pass --------------- #
        engine = BatchEvaluator(
            error_evaluator=shared_evaluator, cache=EvalCache(), mode="serial"
        )
        start = time.perf_counter()
        batched = engine.evaluate_errors(circuits)
        timings["engine_cold_s"] = time.perf_counter() - start
        stats_before_repeat = engine.stats()
        start = time.perf_counter()
        cached = engine.evaluate_errors(circuits)
        timings["engine_warm_s"] = time.perf_counter() - start
        stats_after_repeat = engine.stats()

        repeat_lookups = stats_after_repeat.lookups - stats_before_repeat.lookups
        repeat_hits = stats_after_repeat.hits - stats_before_repeat.hits
        timings["repeat_hit_rate"] = repeat_hits / max(repeat_lookups, 1)
        timings["overall_hit_rate"] = stats_after_repeat.hit_rate
        return timings, serial_pass_one, batched, cached

    timings, serial_reports, batched_reports, cached_reports = benchmark.pedantic(
        run_workload, rounds=1, iterations=1
    )

    # --- correctness: batched and cached results are bit-identical ------- #
    for serial, batched, cached in zip(serial_reports, batched_reports, cached_reports):
        assert batched.metrics == serial.metrics
        assert cached.metrics == serial.metrics
        assert batched.circuit_name == serial.circuit_name

    # --- cache effectiveness --------------------------------------------- #
    assert timings["repeat_hit_rate"] >= 0.90, timings

    serial_workload = timings["serial_pass_s"] + timings["serial_repeat_s"]
    engine_workload = timings["engine_cold_s"] + timings["engine_warm_s"]
    workload_speedup = serial_workload / max(engine_workload, 1e-9)
    cold_speedup = timings["serial_pass_s"] / max(timings["engine_cold_s"], 1e-9)
    warm_speedup = timings["serial_repeat_s"] / max(timings["engine_warm_s"], 1e-9)

    print("\n=== Engine throughput: serial loop vs batched/cached engine ===")
    print(f"library: {library.name} ({len(circuits)} circuits)")
    print(f"{'serial pass':<28}{timings['serial_pass_s'] * 1000:>10.1f} ms")
    print(f"{'serial repeat pass':<28}{timings['serial_repeat_s'] * 1000:>10.1f} ms")
    print(f"{'naive per circuit':<28}{timings['naive_per_circuit_s'] * 1000:>10.1f} ms")
    print(f"{'engine cold (batched)':<28}{timings['engine_cold_s'] * 1000:>10.1f} ms")
    print(f"{'engine warm (cached)':<28}{timings['engine_warm_s'] * 1000:>10.1f} ms")
    print(f"{'cold speedup':<28}{cold_speedup:>10.2f} x")
    print(f"{'warm speedup':<28}{warm_speedup:>10.2f} x")
    print(f"{'workload speedup':<28}{workload_speedup:>10.2f} x")
    print(f"{'repeat-pass hit rate':<28}{timings['repeat_hit_rate'] * 100:>10.1f} %")

    if not QUICK:
        # The batched+cached engine must beat the serial loop by >= 2x on the
        # two-pass workload, and the cold batched pass must not be slower
        # than the serial loop it replaces.
        assert workload_speedup >= 2.0, timings
        assert timings["engine_cold_s"] <= timings["serial_pass_s"] * 1.10, timings


def test_engine_cost_models_cached_across_repeats(benchmark, throughput_library):
    """ASIC + FPGA cost models through the engine: repeat passes are ~free."""
    library = throughput_library
    circuits = list(library)[: 12 if QUICK else 25]
    engine = BatchEvaluator(library.reference(), cache=EvalCache(), mode="serial")

    def run():
        engine.evaluate_asic(circuits)
        engine.evaluate_fpga(circuits)
        return engine.stats()

    benchmark.pedantic(run, rounds=1, iterations=1)
    before = engine.stats()
    start = time.perf_counter()
    engine.evaluate_asic(circuits)
    engine.evaluate_fpga(circuits)
    warm_s = time.perf_counter() - start
    after = engine.stats()
    repeat_lookups = after.lookups - before.lookups
    repeat_hits = after.hits - before.hits
    print(f"\ncost-model repeat pass: {warm_s * 1000:.1f} ms, "
          f"hit rate {repeat_hits / max(repeat_lookups, 1) * 100:.1f} %")
    assert repeat_hits / max(repeat_lookups, 1) >= 0.90
