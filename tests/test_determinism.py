"""Determinism tests: same seed => identical results, with or without the
engine cache and across serial / parallel engine modes."""

from __future__ import annotations

import pytest

from repro.autoax import hill_climb_pareto, random_search
from repro.engine import BatchEvaluator, EvalCache
from repro.generators import array_multiplier, perturb_netlist, perturbation_sweep


def _config_signature(entries):
    return [
        (
            entry.config.multiplier_indices,
            entry.config.adder_indices,
            entry.quality,
            tuple(sorted(entry.cost.items())),
        )
        for entry in entries
    ]


class TestRandomSearchDeterminism:
    @staticmethod
    def _search(s, seed, engine=None, count=6):
        engine = engine or BatchEvaluator(cache=EvalCache(), mode="serial")
        return random_search(s.accelerator, s.images, count, seed=seed, engine=engine)

    def test_same_seed_identical(self, autoax_searchables):
        s = autoax_searchables
        first = self._search(s, 23)
        second = self._search(s, 23)
        assert _config_signature(first) == _config_signature(second)

    def test_different_seeds_differ(self, autoax_searchables):
        s = autoax_searchables
        first = self._search(s, 23)
        other = self._search(s, 24)
        assert _config_signature(first) != _config_signature(other)

    def test_cache_does_not_change_results(self, autoax_searchables):
        s = autoax_searchables
        engine = BatchEvaluator(cache=EvalCache(), mode="serial")
        cold = self._search(s, 23, engine)
        warm = self._search(s, 23, engine)
        assert _config_signature(cold) == _config_signature(warm)
        assert engine.stats().hits >= 6  # warm pass served from the cache

    def test_cache_shared_with_the_flow_exact_pass(self, autoax_searchables):
        s = autoax_searchables
        ctx = s.ctx()
        results = self._search(s, 23, ctx.engine, count=5)
        before = ctx.engine.stats()
        reevaluated = ctx.evaluate([entry.config for entry in results])
        after = ctx.engine.stats()
        assert after.misses == before.misses  # every candidate was a hit
        assert _config_signature(results) == _config_signature(reevaluated)


class TestHillClimbDeterminism:
    def test_same_seed_identical(self, autoax_searchables):
        s = autoax_searchables
        first = hill_climb_pareto(s.ctx(iterations=40, seed=31))
        second = hill_climb_pareto(s.ctx(iterations=40, seed=31))
        assert _config_signature(first) == _config_signature(second)

    def test_cache_does_not_change_results(self, autoax_searchables):
        s = autoax_searchables
        ctx = s.ctx(iterations=40, seed=31)
        cold = hill_climb_pareto(ctx)
        warm = hill_climb_pareto(ctx)
        assert _config_signature(cold) == _config_signature(warm)


class TestPerturbationDeterminism:
    def test_perturb_netlist_same_seed_identical(self):
        base = array_multiplier(4)
        first = perturb_netlist(base, seed=77)
        second = perturb_netlist(base, seed=77)
        assert first.fingerprint() == second.fingerprint()
        assert first.gates == second.gates
        assert first.output_bits == second.output_bits

    def test_perturbation_sweep_same_seed_identical(self):
        base = array_multiplier(4)
        first = perturbation_sweep(base, count=12, seed=5)
        second = perturbation_sweep(base, count=12, seed=5)
        assert [v.fingerprint() for v in first] == [v.fingerprint() for v in second]
        assert [v.name for v in first] == [v.name for v in second]

    def test_perturbation_sweep_different_seed_differs(self):
        base = array_multiplier(4)
        first = perturbation_sweep(base, count=12, seed=5)
        other = perturbation_sweep(base, count=12, seed=6)
        assert [v.fingerprint() for v in first] != [v.fingerprint() for v in other]


class TestEngineModeDeterminism:
    """Serial and process-pool engine modes must agree bit for bit."""

    @pytest.fixture(scope="class")
    def variants(self):
        base = array_multiplier(4)
        return base, perturbation_sweep(base, count=10, seed=13)

    def test_error_reports_identical(self, variants):
        base, circuits = variants
        serial = BatchEvaluator(base, mode="serial").evaluate_errors(circuits)
        parallel = BatchEvaluator(base, mode="process", max_workers=2).evaluate_errors(
            circuits
        )
        assert [r.metrics for r in serial] == [r.metrics for r in parallel]
        assert [r.circuit_name for r in serial] == [r.circuit_name for r in parallel]

    def test_asic_and_fpga_reports_identical(self, variants):
        base, circuits = variants
        serial = BatchEvaluator(base, mode="serial")
        parallel = BatchEvaluator(base, mode="process", max_workers=2)
        assert serial.evaluate_asic(circuits) == parallel.evaluate_asic(circuits)
        assert serial.evaluate_fpga(circuits) == parallel.evaluate_fpga(circuits)

    def test_repeated_parallel_runs_identical(self, variants):
        base, circuits = variants
        first = BatchEvaluator(base, mode="process", max_workers=3).evaluate_errors(
            circuits
        )
        second = BatchEvaluator(base, mode="process", max_workers=2).evaluate_errors(
            circuits
        )
        assert [r.metrics for r in first] == [r.metrics for r in second]
