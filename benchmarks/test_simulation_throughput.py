"""Simulation throughput: the bool oracle vs the op tape.

The workload is the paper's Monte-Carlo error-evaluation inner loop: one
vectorised simulation pass of an exact multiplier over a seeded operand
sample, at 8/12/16-bit operand widths.  Two timings are recorded per width
and path:

* **kernel** -- the per-circuit marginal cost inside
  :class:`~repro.engine.evaluator.BatchEvaluator`, which expands the
  operand matrix once per word layout, packs it once per layout, and keeps
  the compiled-program cache warm across the loop.  That is
  ``simulate_bits`` on the shared bit matrix for ``"bool"``, and
  ``simulate_planes`` on the shared packed planes for ``"packed"``.
* **end-to-end** -- word expansion + simulation + word collapse, nothing
  shared: ``simulate_words`` for ``"packed"``, and for ``"bool"`` the
  oracle composition ``bits_to_words(simulate_bits(netlist,
  expand_operand_bits(netlist, operands)))``.

Both paths must be bit-identical.  In full mode the 16-bit floors are
enforced: packed >= 12x over bool in the kernel and >= 1.8x end to end.
The measured table is also written to ``BENCH_simulation.json`` at the
repo root (per-path seconds, throughput and speedups).  Set
``REPRO_BENCH_QUICK=1`` to shrink the workload and drop the wall-clock
floors (CI smoke / loaded machines).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.circuits import (
    bits_to_words,
    compile_netlist,
    pack_bits,
    random_operands,
    simulate_bits,
    simulate_planes,
    simulate_words,
    unpack_bits,
)
from repro.circuits.simulate import expand_operand_bits
from repro.generators import array_multiplier

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
NUM_SAMPLES = 4096 if QUICK else 65536
WIDTHS = (8,) if QUICK else (8, 12, 16)

#: Enforced 16-bit floors in full mode.  The kernel floor is the product of
#: the former bitplane >= 4x bool and compiled >= 3x bitplane floors
#: (measured ~98x on an idle machine).
PACKED_KERNEL_SPEEDUP_FLOOR = 12.0
END_TO_END_SPEEDUP_FLOOR = 1.8

BENCH_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_simulation.json"
#: BENCH files are tracked, so they are rewritten only on request
#: (``REPRO_BENCH_WRITE=1``, set by the CI jobs that upload them); a plain
#: test run leaves the tree clean.
WRITE = os.environ.get("REPRO_BENCH_WRITE") == "1"


def _best_of(callable_, repeats=2):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def _oracle_words(netlist, operands):
    return bits_to_words(simulate_bits(netlist, expand_operand_bits(netlist, operands)))


def test_simulation_throughput_across_backends(benchmark):
    rng = np.random.default_rng(97)
    rows = []

    def run_workload():
        for width in WIDTHS:
            multiplier = array_multiplier(width)
            operands = random_operands(multiplier, NUM_SAMPLES, rng)
            input_bits = expand_operand_bits(multiplier, operands)
            input_planes = pack_bits(input_bits.T)

            compile_start = time.perf_counter()
            compile_netlist(multiplier)  # warm the per-fingerprint cache
            compile_s = time.perf_counter() - compile_start

            bool_kernel_s, bool_bits = _best_of(lambda: simulate_bits(multiplier, input_bits))
            packed_kernel_s, packed_planes = _best_of(
                lambda: simulate_planes(multiplier, input_planes)
            )
            assert np.array_equal(unpack_bits(packed_planes, NUM_SAMPLES).T, bool_bits)

            e2e_s, e2e_words = {}, {}
            for path, simulate in (("bool", _oracle_words), ("packed", simulate_words)):
                e2e_s[path], e2e_words[path] = _best_of(lambda: simulate(multiplier, operands))
            assert np.array_equal(e2e_words["bool"], e2e_words["packed"])
            assert np.array_equal(bits_to_words(bool_bits), e2e_words["bool"])

            kernel_s = {"bool": bool_kernel_s, "packed": packed_kernel_s}
            rows.append(
                {
                    "width": width,
                    "gates": multiplier.num_gates,
                    "patterns": NUM_SAMPLES,
                    "compile_s": compile_s,
                    "paths": {
                        path: {
                            "kernel_s": kernel_s[path],
                            "kernel_patterns_per_s": NUM_SAMPLES / max(kernel_s[path], 1e-9),
                            "kernel_speedup_vs_bool": bool_kernel_s / max(kernel_s[path], 1e-9),
                            "e2e_s": e2e_s[path],
                            "e2e_speedup_vs_bool": e2e_s["bool"] / max(e2e_s[path], 1e-9),
                        }
                        for path in kernel_s
                    },
                }
            )
        return rows

    benchmark.pedantic(run_workload, rounds=1, iterations=1)

    print(f"\n=== Simulation throughput ({NUM_SAMPLES} MC patterns, kernel = per-circuit marginal) ===")
    print(
        f"{'width':>6} {'gates':>6} {'bool':>9} {'packed':>9} {'kernel':>8} "
        f"{'e2e':>6} {'compile':>8}"
    )
    for row in rows:
        paths = row["paths"]
        print(
            f"{row['width']:>5}b {row['gates']:>6} "
            f"{paths['bool']['kernel_s'] * 1000:>7.1f}ms "
            f"{paths['packed']['kernel_s'] * 1000:>7.2f}ms "
            f"{paths['packed']['kernel_speedup_vs_bool']:>7.1f}x "
            f"{paths['packed']['e2e_speedup_vs_bool']:>5.2f}x "
            f"{row['compile_s'] * 1000:>6.1f}ms"
        )

    if WRITE:
        BENCH_JSON_PATH.write_text(
            json.dumps(
                {
                    "benchmark": "simulation_throughput",
                    "workload": "monte_carlo_array_multiplier",
                    "quick": QUICK,
                    "num_samples": NUM_SAMPLES,
                    "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                    "rows": rows,
                },
                indent=2,
            )
            + "\n"
        )
        print(f"wrote {BENCH_JSON_PATH}")

    if not QUICK:
        by_width = {row["width"]: row for row in rows}
        packed16 = by_width[16]["paths"]["packed"]
        assert packed16["kernel_speedup_vs_bool"] >= PACKED_KERNEL_SPEEDUP_FLOOR, by_width[16]
        assert packed16["e2e_speedup_vs_bool"] >= END_TO_END_SPEEDUP_FLOOR, by_width[16]
