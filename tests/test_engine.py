"""Unit tests for the evaluation engine: fingerprints, cache, batch evaluator."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.asic import AsicSynthesizer
from repro.circuits import Gate, GateType
from repro.engine import BatchEvaluator, EvalCache
from repro.error import ErrorEvaluator
from repro.fpga import FpgaSynthesizer
from repro.generators import array_multiplier, ripple_carry_adder
from repro.io import JsonDirectoryStore


# --------------------------------------------------------------------- #
# Netlist.fingerprint
# --------------------------------------------------------------------- #
class TestFingerprint:
    def test_deterministic_across_instances(self):
        assert array_multiplier(4).fingerprint() == array_multiplier(4).fingerprint()

    def test_ignores_name_and_meta(self, multiplier4):
        renamed = multiplier4.copy(name="totally_different", meta={"family": "x"})
        assert renamed.fingerprint() == multiplier4.fingerprint()

    def test_differs_across_structures(self):
        prints = {
            array_multiplier(4).fingerprint(),
            array_multiplier(5).fingerprint(),
            ripple_carry_adder(4).fingerprint(),
            ripple_carry_adder(8).fingerprint(),
        }
        assert len(prints) == 4

    def test_sensitive_to_gate_change(self, multiplier4):
        mutated = multiplier4.copy()
        gate = mutated.gates[0]
        new_type = GateType.OR if gate.gate_type != GateType.OR else GateType.AND
        mutated.gates[0] = Gate(new_type, gate.a, gate.b)
        assert mutated.fingerprint() != multiplier4.fingerprint()

    def test_sensitive_to_output_wiring(self, multiplier4):
        mutated = multiplier4.copy()
        bits = list(mutated.output_bits)
        bits[0], bits[1] = bits[1], bits[0]
        mutated.output_bits = tuple(bits)
        assert mutated.fingerprint() != multiplier4.fingerprint()

    def test_cached_on_instance(self, multiplier4):
        assert multiplier4.fingerprint() is multiplier4.fingerprint()


# --------------------------------------------------------------------- #
# EvalCache
# --------------------------------------------------------------------- #
class TestEvalCache:
    def test_basic_get_put_and_stats(self):
        cache = EvalCache(capacity=10)
        assert cache.get("a") is None
        cache.put("a", {"v": 1})
        assert cache.get("a") == {"v": 1}
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = EvalCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now least recent
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats().evictions == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EvalCache(capacity=0)

    def test_disk_backend_roundtrip(self, tmp_path):
        cache = EvalCache(capacity=4, disk_path=tmp_path / "cache")
        cache.put("err:x:y", {"med": 0.25})
        # A fresh cache over the same directory sees the entry (disk hit).
        warm = EvalCache(capacity=4, disk_path=tmp_path / "cache")
        assert warm.get("err:x:y") == {"med": 0.25}
        assert warm.stats().disk_hits == 1
        # Promoted to memory: second lookup is a memory hit.
        assert warm.get("err:x:y") == {"med": 0.25}
        assert warm.stats().disk_hits == 1
        assert warm.stats().hits == 2

    def test_eviction_keeps_disk_copy(self, tmp_path):
        cache = EvalCache(capacity=1, disk_path=tmp_path / "cache")
        cache.put("k1", 1)
        cache.put("k2", 2)  # evicts k1 from memory
        assert cache.get("k1") == 1
        assert cache.stats().disk_hits == 1

    def test_reset_stats(self):
        cache = EvalCache()
        cache.get("missing")
        cache.reset_stats()
        assert cache.stats().lookups == 0

    def test_since_floors_deltas_when_counters_reset(self, tmp_path):
        # Regression: a snapshot taken before a store swap/reopen (which
        # resets cumulative counters) used to yield negative deltas.
        cache = EvalCache(capacity=4, disk_path=tmp_path / "cache")
        cache.put("k", 1)
        cache.get("k")
        cache.get("missing")
        before = cache.stats()
        assert before.hits == 1 and before.misses == 1
        reopened = EvalCache(capacity=4, disk_path=tmp_path / "cache")
        reopened.get("k")  # disk hit on the fresh instance
        delta = reopened.stats().since(before)
        # Fresh counters are below the snapshot: floored at 0, not negative.
        assert delta.hits == 0 and delta.misses == 0
        assert delta.evictions == 0 and delta.corrupt == 0
        assert delta.disk_hits == 1  # genuinely new traffic still shows
        assert delta.size == reopened.stats().size  # instantaneous, kept


class TestJsonDirectoryStore:
    def test_roundtrip_and_keys(self, tmp_path):
        store = JsonDirectoryStore(tmp_path / "store")
        store.put("err:abc:def", {"x": [1, 2, 3]})
        store.put("fpga:1:2", {"luts": 7})
        assert store.get("err:abc:def") == {"x": [1, 2, 3]}
        assert store.get("unknown") is None
        assert len(store) == 2
        assert sorted(store.keys()) == ["err:abc:def", "fpga:1:2"]
        store.clear()
        assert len(store) == 0

    def test_overwrite(self, tmp_path):
        store = JsonDirectoryStore(tmp_path / "store")
        store.put("k", 1)
        store.put("k", 2)
        assert store.get("k") == 2
        assert len(store) == 1


# --------------------------------------------------------------------- #
# BatchEvaluator
# --------------------------------------------------------------------- #
class TestBatchEvaluator:
    def test_errors_bit_identical_to_serial_path(self, small_multiplier_library):
        circuits = list(small_multiplier_library)
        reference = small_multiplier_library.reference()
        engine = BatchEvaluator(reference, mode="serial")
        serial = ErrorEvaluator(reference)
        batched = engine.evaluate_errors(circuits)
        for circuit, report in zip(circuits, batched):
            expected = serial.evaluate(circuit)
            assert report.metrics == expected.metrics
            assert report.circuit_name == circuit.name
            assert report.method == expected.method
            assert report.num_patterns == expected.num_patterns

    def test_asic_and_fpga_match_direct_synthesis(self, small_multiplier_library):
        circuits = list(small_multiplier_library)[:12]
        engine = BatchEvaluator(
            small_multiplier_library.reference(),
            asic_synthesizer=AsicSynthesizer(),
            fpga_synthesizer=FpgaSynthesizer(),
            mode="serial",
        )
        asic_reports = engine.evaluate_asic(circuits)
        fpga_reports = engine.evaluate_fpga(circuits)
        asic = AsicSynthesizer()
        fpga = FpgaSynthesizer()
        for circuit, asic_report, fpga_report in zip(circuits, asic_reports, fpga_reports):
            assert asic_report == asic.synthesize(circuit)
            assert fpga_report == fpga.synthesize(circuit)

    def test_cached_results_bit_identical_and_hit(self, small_multiplier_library):
        circuits = list(small_multiplier_library)
        engine = BatchEvaluator(small_multiplier_library.reference(), mode="serial")
        first = engine.evaluate_errors(circuits)
        before = engine.stats()
        second = engine.evaluate_errors(circuits)
        after = engine.stats()
        assert [r.metrics for r in first] == [r.metrics for r in second]
        # The repeated pass is served entirely from the cache.
        assert after.misses == before.misses
        assert after.hits - before.hits == len(circuits)

    def test_structural_duplicates_share_one_entry(self, multiplier4):
        clones = [multiplier4.copy(name=f"clone_{i}") for i in range(5)]
        engine = BatchEvaluator(array_multiplier(4), mode="serial")
        reports = engine.evaluate_errors(clones)
        assert engine.stats().misses == 1
        assert [r.circuit_name for r in reports] == [c.name for c in clones]
        assert len({id(r.metrics) for r in reports}) >= 1
        assert all(r.metrics == reports[0].metrics for r in reports)

    def test_process_mode_identical_to_serial(self, small_multiplier_library):
        circuits = list(small_multiplier_library)[:8]
        reference = small_multiplier_library.reference()
        serial = BatchEvaluator(reference, mode="serial").evaluate_errors(circuits)
        parallel = BatchEvaluator(
            reference, mode="process", max_workers=2
        ).evaluate_errors(circuits)
        assert [r.metrics for r in serial] == [r.metrics for r in parallel]

    def test_disk_backed_engine_warm_start(self, small_multiplier_library, tmp_path):
        circuits = list(small_multiplier_library)[:6]
        reference = small_multiplier_library.reference()
        cold = BatchEvaluator(
            reference, cache=EvalCache(disk_path=tmp_path / "evals"), mode="serial"
        )
        first = cold.evaluate_errors(circuits)
        warm = BatchEvaluator(
            reference, cache=EvalCache(disk_path=tmp_path / "evals"), mode="serial"
        )
        second = warm.evaluate_errors(circuits)
        assert [r.metrics for r in first] == [r.metrics for r in second]
        assert warm.stats().misses == 0
        assert warm.stats().disk_hits > 0

    def test_report_payloads_are_the_dataclass_fields(self, multiplier4):
        class Log(dict):
            def put(self, key, value):
                self[key] = value

        engine = BatchEvaluator(cache=EvalCache(store=Log()), mode="serial")
        [asic] = engine.evaluate_asic([multiplier4])
        [fpga] = engine.evaluate_fpga([multiplier4])
        stored = {key.split(":", 1)[0]: payload for key, payload in engine.cache.store.items()}
        for domain, report in (("asic", asic), ("fpga", fpga)):
            expected = dataclasses.asdict(report)
            assert stored[domain] == expected
            assert json.dumps(stored[domain]) == json.dumps(expected)

    def test_requires_reference_for_errors(self, multiplier4):
        engine = BatchEvaluator()
        with pytest.raises(ValueError, match="reference"):
            engine.evaluate_errors([multiplier4])

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            BatchEvaluator(mode="threads")

    def test_reference_and_error_evaluator_are_exclusive(self, multiplier4):
        """The evaluator carries its own reference: passing a second one
        used to evaluate silently against the evaluator's."""
        with pytest.raises(ValueError, match="not both"):
            BatchEvaluator(multiplier4, error_evaluator=ErrorEvaluator(array_multiplier(4)))
        with pytest.raises(ValueError, match="not both"):
            BatchEvaluator(multiplier4, error_evaluator=ErrorEvaluator(ripple_carry_adder(4)))

    def test_different_references_do_not_share_entries(self, multiplier4):
        cache = EvalCache()
        engine_a = BatchEvaluator(array_multiplier(4), cache=cache, mode="serial")
        sampled = ErrorEvaluator(
            array_multiplier(4), num_samples=16, seed=2, max_exhaustive_inputs=4
        )
        engine_b = BatchEvaluator(error_evaluator=sampled, cache=cache, mode="serial")
        engine_a.evaluate_errors([multiplier4])
        engine_b.evaluate_errors([multiplier4])
        # Contexts differ (exhaustive vs monte-carlo) so both were misses.
        assert cache.stats().misses == 2


class TestComponentsFromLibraryEngine:
    def test_conflicting_synthesizers_rejected(self, small_multiplier_library):
        from repro.workloads import components_from_library

        engine = BatchEvaluator(
            small_multiplier_library.reference(), fpga_synthesizer=FpgaSynthesizer()
        )
        with pytest.raises(ValueError, match="conflicting fpga_synthesizer"):
            components_from_library(
                small_multiplier_library,
                3,
                fpga_synthesizer=FpgaSynthesizer(),
                engine=engine,
            )

    def test_shared_engine_reuses_cached_reports(self, small_multiplier_library):
        from repro.workloads import components_from_library

        engine = BatchEvaluator(small_multiplier_library.reference())
        engine.evaluate_errors(list(small_multiplier_library))
        before = engine.stats()
        components_from_library(small_multiplier_library, 3, engine=engine, max_error=0.5)
        after = engine.stats()
        # The error pass inside components_from_library was fully cached.
        assert after.hits - before.hits >= len(small_multiplier_library)


class TestFlowIntegration:
    def test_flow_shares_cache_across_stages(self, small_multiplier_library):
        from repro.api import ExplorationSession
        from repro.core import ApproxFpgasConfig

        config = ApproxFpgasConfig(
            training_fraction=0.2,
            min_training_circuits=10,
            model_ids=["ML2", "ML4"],
            seed=42,
        )
        session = ExplorationSession()
        session.run_approxfpgas(small_multiplier_library, config)
        engine = session.engine_for(small_multiplier_library.reference())
        stats = engine.stats()
        # Stage 7/9 re-requests circuits already synthesized in stage 3, and
        # perturbation libraries contain structural duplicates: the engine
        # must have served a meaningful share of requests from the cache.
        assert stats.hits > 0
        # Re-running the same flow over the same engine is almost all hits.
        before = engine.stats()
        session.run_approxfpgas(small_multiplier_library, config)
        delta_hits = engine.stats().hits - before.hits
        delta_misses = engine.stats().misses - before.misses
        assert delta_misses == 0
        assert delta_hits > 0
