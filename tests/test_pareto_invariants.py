"""Invariant tests for the Pareto machinery (core.pareto and autoax.search)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autoax import EvaluatedConfiguration
from repro.autoax.search import _non_dominated
from repro.core.pareto import (
    dominates,
    pareto_front_indices,
    pareto_union,
    successive_pareto_fronts,
)
from repro.workloads import SlotConfiguration


def _random_points(seed: int, n: int, d: int, duplicates: bool = False) -> np.ndarray:
    rng = np.random.default_rng(seed)
    points = rng.random((n, d))
    if duplicates and n >= 4:
        points[n // 2] = points[0]
        points[-1] = points[1]
    return points


class TestParetoFrontInvariants:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("dims", [2, 3])
    def test_no_returned_point_is_dominated_by_any_input(self, seed, dims):
        points = _random_points(seed, 60, dims, duplicates=seed % 2 == 0)
        front = pareto_front_indices(points)
        assert front, "front of a non-empty set cannot be empty"
        for kept in front:
            for other in range(len(points)):
                assert not dominates(points[other], points[kept]), (
                    f"front point {kept} is dominated by input point {other}"
                )

    @pytest.mark.parametrize("seed", range(4))
    def test_every_dropped_point_is_dominated(self, seed):
        points = _random_points(seed, 40, 2)
        front = set(pareto_front_indices(points))
        for index in range(len(points)):
            if index in front:
                continue
            assert any(dominates(points[kept], points[index]) for kept in front)

    def test_idempotent(self):
        points = _random_points(3, 50, 2, duplicates=True)
        front = pareto_front_indices(points)
        again = pareto_front_indices(points[front])
        assert sorted(again) == list(range(len(front)))

    def test_duplicates_all_kept(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        assert pareto_front_indices(points) == [0, 1]

    def test_empty_input(self):
        assert pareto_front_indices(np.empty((0, 2))) == []


class TestSuccessiveFrontsInvariants:
    @pytest.mark.parametrize("seed", range(4))
    def test_fronts_partition_and_do_not_interleave(self, seed):
        points = _random_points(seed, 30, 2)
        fronts = successive_pareto_fronts(points, 30)
        flattened = [index for front in fronts for index in front]
        assert sorted(flattened) == list(range(len(points)))
        # A point in front k+1 cannot dominate any point of front k.
        for earlier, later in zip(fronts, fronts[1:]):
            for late_point in later:
                for early_point in earlier:
                    assert not dominates(points[late_point], points[early_point])

    def test_union_deduplicates_and_sorts(self):
        assert pareto_union([[3, 1], [1, 2], []]) == [1, 2, 3]


def _entry(cost: float, quality: float, parameter: str = "area") -> EvaluatedConfiguration:
    config = SlotConfiguration(multiplier_indices=(0,) * 9, adder_indices=(0,) * 8)
    return EvaluatedConfiguration(config=config, quality=quality, cost={parameter: cost})


class TestNonDominatedArchive:
    def test_empty_archive(self):
        assert _non_dominated([], "area") == []

    @pytest.mark.parametrize("seed", range(5))
    def test_no_survivor_dominated_by_any_input(self, seed):
        rng = np.random.default_rng(seed)
        archive = [
            _entry(float(cost), float(quality))
            for cost, quality in zip(rng.random(40) * 100, rng.random(40))
        ]
        pruned = _non_dominated(archive, "area")
        assert pruned
        for survivor in pruned:
            for entry in archive:
                a = np.array(entry.objectives("area"))
                b = np.array(survivor.objectives("area"))
                assert not dominates(a, b)

    @pytest.mark.parametrize("seed", range(5))
    def test_pruning_idempotent(self, seed):
        rng = np.random.default_rng(100 + seed)
        archive = [
            _entry(float(cost), float(quality))
            for cost, quality in zip(rng.random(25) * 10, rng.random(25))
        ]
        once = _non_dominated(archive, "area")
        twice = _non_dominated(once, "area")
        assert [id(e) for e in twice] == [id(e) for e in once]


class TestArchiveLimit:
    @pytest.mark.parametrize("key", ["hill_climb", "random_archive", "nsga2", "sh_ehvi"])
    def test_strategy_respects_archive_limit(self, autoax_searchables, key):
        from repro.autoax import SEARCH_STRATEGIES

        searchables = autoax_searchables
        accelerator = searchables.accelerator
        for limit in (4, 8):
            archive = SEARCH_STRATEGIES.get(key)(
                searchables.ctx(iterations=60, seed=3), archive_limit=limit
            )
            assert 1 <= len(archive) <= limit
            # The returned archive itself must be non-dominated.
            assert len(_non_dominated(archive, searchables.hw.parameter)) == len(archive)
            for entry in archive:  # every candidate is a valid configuration
                config = entry.config
                assert len(config.multiplier_indices) == accelerator.num_multiplier_slots
                assert len(config.adder_indices) == accelerator.num_adder_slots
                assert 0 <= min(config.multiplier_indices)
                assert max(config.multiplier_indices) < len(accelerator.multipliers)
                assert 0 <= min(config.adder_indices)
                assert max(config.adder_indices) < len(accelerator.adders)
