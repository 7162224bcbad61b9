"""Determinism and checkpoint/resume-identity tests for the NSGA-II search.

The generic engine (`repro.search.run_nsga2`) is exercised on a cheap toy
problem; the AutoAx adapter (`SEARCH_STRATEGIES["nsga2"]`) on the shared
``autoax_searchables`` fixture.  The resume contract is the strong one:
interrupt after generation N, resume towards the full horizon, and the
final archive/population must be **bit-identical** to an uninterrupted run
-- which requires the checkpoint to carry the exact RNG stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.io.persistence import JsonDirectoryStore
from repro.search import Nsga2Config, genome_token, run_nsga2

pytestmark = pytest.mark.search


# --------------------------------------------------------------------- #
# Toy problem: minimise (sum of genes, sum of squared distances to 7)
# --------------------------------------------------------------------- #
GENE_RANGE = 11
GENOME_LENGTH = 4


def toy_random_genome(rng: np.random.Generator):
    return tuple(int(v) for v in rng.integers(0, GENE_RANGE, GENOME_LENGTH))


def toy_mutate(genome, rng: np.random.Generator):
    slot = int(rng.integers(0, GENOME_LENGTH))
    genes = list(genome)
    genes[slot] = int(rng.integers(0, GENE_RANGE))
    return tuple(genes)


def toy_crossover(a, b, rng: np.random.Generator):
    take_first = rng.random(GENOME_LENGTH) < 0.5
    return tuple(x if flag else y for x, y, flag in zip(a, b, take_first))


def toy_evaluate(genomes):
    return [
        (float(sum(genome)), float(sum((gene - 7) ** 2 for gene in genome)))
        for genome in genomes
    ]


def toy_run(generations=6, seed=9, store=None, run_id="toy", resume=True, **overrides):
    config = Nsga2Config(
        population_size=overrides.pop("population_size", 12),
        generations=generations,
        seed=seed,
        **overrides,
    )
    return run_nsga2(
        random_genome=toy_random_genome,
        mutate=toy_mutate,
        crossover=toy_crossover,
        evaluate=toy_evaluate,
        config=config,
        store=store,
        run_id=run_id,
        token="toy-problem-v1",
        resume=resume,
    )


def archive_signature(result):
    return [(entry.key, entry.objectives, entry.item) for entry in result.archive]


class TestGenericEngine:
    def test_seeded_determinism(self):
        first = toy_run(seed=9)
        second = toy_run(seed=9)
        assert archive_signature(first) == archive_signature(second)
        assert first.population == second.population
        assert first.objectives == second.objectives
        assert first.evaluations == second.evaluations
        assert toy_run(seed=10).population != first.population

    def test_budget_and_archive_are_consistent(self):
        result = toy_run(generations=5)
        assert result.generations_run == 5
        assert result.evaluations == 12 * 6  # initial population + 5 generations
        assert len(result.history) == 6
        assert 1 <= len(result.archive) <= Nsga2Config().archive_limit
        # The archive is mutually non-dominated and keyed by genome.
        points = result.archive.objective_array()
        from repro.core.pareto import dominates

        for i, a in enumerate(points):
            assert not any(dominates(b, a) for j, b in enumerate(points) if i != j)
        for entry in result.archive:
            assert entry.key == genome_token(tuple(entry.item))

    def test_archive_improves_or_holds_over_generations(self):
        result = toy_run(generations=8)
        minima = [stats["objective_minima"] for stats in result.history]
        for earlier, later in zip(minima, minima[1:]):
            assert later[0] <= earlier[0] + 1e-12
            assert later[1] <= earlier[1] + 1e-12

    def test_interrupt_resume_identity(self, tmp_path):
        """Interrupt after generation N, resume: bit-identical final state."""
        store = JsonDirectoryStore(tmp_path / "ckpt")
        uninterrupted = toy_run(generations=7)

        partial = toy_run(generations=3, store=store)
        assert partial.resumed_from is None
        resumed = toy_run(generations=7, store=store)
        assert resumed.resumed_from == 3

        assert archive_signature(resumed) == archive_signature(uninterrupted)
        assert resumed.population == uninterrupted.population
        assert resumed.objectives == uninterrupted.objectives
        assert resumed.evaluations == uninterrupted.evaluations
        assert [s["archive_size"] for s in resumed.history] == [
            s["archive_size"] for s in uninterrupted.history
        ]

    def test_resume_from_completed_run_is_a_noop(self, tmp_path):
        store = JsonDirectoryStore(tmp_path / "ckpt")
        full = toy_run(generations=4, store=store)
        again = toy_run(generations=4, store=store)
        assert again.resumed_from == 4
        assert again.evaluations == full.evaluations
        assert archive_signature(again) == archive_signature(full)

    def test_changed_token_invalidates_checkpoints(self, tmp_path):
        store = JsonDirectoryStore(tmp_path / "ckpt")
        toy_run(generations=3, store=store)
        config = Nsga2Config(population_size=12, generations=5, seed=9)
        fresh = run_nsga2(
            random_genome=toy_random_genome,
            mutate=toy_mutate,
            crossover=toy_crossover,
            evaluate=toy_evaluate,
            config=config,
            store=store,
            run_id="toy",
            token="toy-problem-v2",  # changed problem: must not resume
        )
        assert fresh.resumed_from is None

    def test_resume_false_restarts(self, tmp_path):
        store = JsonDirectoryStore(tmp_path / "ckpt")
        toy_run(generations=3, store=store)
        fresh = toy_run(generations=3, store=store, resume=False)
        assert fresh.resumed_from is None

    def test_longer_generations_pick_up_shorter_checkpoint(self, tmp_path):
        """A horizon change alone must not invalidate the checkpoint."""
        store = JsonDirectoryStore(tmp_path / "ckpt")
        toy_run(generations=2, store=store)
        resumed = toy_run(generations=3, store=store)
        assert resumed.resumed_from == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Nsga2Config(population_size=1)
        with pytest.raises(ValueError):
            Nsga2Config(generations=-1)
        with pytest.raises(ValueError):
            Nsga2Config(crossover_rate=1.5)
        with pytest.raises(ValueError):
            Nsga2Config(mutation_rate=-0.1)
        with pytest.raises(ValueError):
            Nsga2Config(tournament_size=0)
        with pytest.raises(ValueError):
            Nsga2Config(archive_limit=0)


# --------------------------------------------------------------------- #
# The AutoAx adapter strategy
# --------------------------------------------------------------------- #
def _signature(entries):
    return [
        (
            entry.config.multiplier_indices,
            entry.config.adder_indices,
            entry.quality,
            tuple(sorted(entry.cost.items())),
        )
        for entry in entries
    ]


class TestNsga2Strategy:
    def test_registered_and_reachable_from_config(self):
        from repro.autoax import AutoAxConfig, SEARCH_STRATEGIES

        assert "nsga2" in SEARCH_STRATEGIES
        config = AutoAxConfig(search_strategy="nsga2")
        assert config.search_strategy == "nsga2"
        with pytest.raises(ValueError):
            AutoAxConfig(search_strategy="definitely-not-registered")

    def test_seeded_determinism(self, autoax_searchables):
        from repro.autoax import nsga2_pareto

        s = autoax_searchables
        first = nsga2_pareto(s.ctx(iterations=60, seed=7))
        second = nsga2_pareto(s.ctx(iterations=60, seed=7))
        assert _signature(first) == _signature(second)
        assert first  # at least one candidate survives

    def test_candidates_are_nondominated_estimates(self, autoax_searchables):
        from repro.autoax import nsga2_pareto
        from repro.core import dominates

        s = autoax_searchables
        archive = nsga2_pareto(s.ctx(iterations=60, seed=7))
        points = [(entry.cost["area"], 1.0 - entry.quality) for entry in archive]
        for i, a in enumerate(points):
            for j, b in enumerate(points):
                if i != j:
                    assert not dominates(np.array(b), np.array(a))
        for entry in archive:
            assert 0.0 <= entry.quality <= 1.0

    def test_interrupt_resume_identity(self, autoax_searchables, tmp_path):
        """The strategy-level resume contract of the satellite task."""
        from repro.autoax import nsga2_pareto

        s = autoax_searchables
        uninterrupted = nsga2_pareto(s.ctx(iterations=60, seed=5), population_size=10)

        store = JsonDirectoryStore(tmp_path / "search-ckpt")
        nsga2_pareto(s.ctx(iterations=30, seed=5, store=store), population_size=10)
        resumed = nsga2_pareto(s.ctx(iterations=60, seed=5, store=store), population_size=10)
        assert _signature(resumed) == _signature(uninterrupted)

    @staticmethod
    def _study(searchables, session, **knobs):
        from repro.autoax import AutoAxConfig

        config = AutoAxConfig(
            parameters=("area",),
            num_random_baseline=8,
            hill_climb_iterations=40,
            seed=11,
            search_strategy="nsga2",
            **knobs,
        )
        accelerator = searchables.accelerator
        return session.run_autoax(accelerator.multipliers, accelerator.adders, config)

    def test_flow_runs_with_nsga2_strategy(self, autoax_searchables):
        """End-to-end staged flow with search_strategy='nsga2'."""
        from repro.api import ExplorationSession

        s = autoax_searchables
        session = ExplorationSession(engine_mode="serial")
        result = self._study(s, session, num_training_samples=10, image_size=24)
        scenario = result.scenarios["area"]
        assert scenario.front
        assert scenario.num_candidates >= len(scenario.front)
        for entry in scenario.candidates:
            assert 0.0 <= entry.quality <= 1.0
            assert set(entry.cost) == {"area", "power", "latency"}
        assert session.accelerator_engine().stats().lookups > 0

    def test_finished_checkpoint_is_not_served_to_another_study(
        self, autoax_searchables, tmp_path
    ):
        """Two studies that differ only in their training set share the
        scenario's checkpoint run id; the second must search with its own
        estimators instead of restoring the first's finished NSGA-II run."""
        from repro.api import ExplorationSession

        s = autoax_searchables
        shared = ExplorationSession(workspace=tmp_path / "shared", engine_mode="serial")
        fresh = ExplorationSession(workspace=tmp_path / "fresh", engine_mode="serial")

        def candidates(session, samples):
            result = self._study(s, session, num_training_samples=samples, image_size=16)
            return _signature(result.scenarios["area"].candidates)

        first = candidates(shared, 6)
        second = candidates(shared, 20)
        assert second == candidates(fresh, 20)
        assert second != first
