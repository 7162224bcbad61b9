"""Property-based tests of the shared Pareto-archive core (`repro.search`).

The archive is the foundation every strategy and the methodology's front
bookkeeping now stand on, so its invariants are pinned with hypothesis
sweeps rather than hand-picked cases: insertion-order invariance,
no-dominated-survivor (equivalence with the batch filter), idempotent
re-insertion, crowding-distance boundary behaviour and the hypervolume
indicator.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pareto import dominates, pareto_front_indices
from repro.search import (
    ParetoArchive,
    crowding_distances,
    non_dominated_ranks,
    select_next_population,
)

pytestmark = pytest.mark.search

# Coarse coordinate grids make dominance ties and duplicates common, which
# is where archive bookkeeping can go wrong.
coordinate = st.integers(min_value=0, max_value=6).map(float)
point_lists = st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=24)
point_lists_3d = st.lists(st.tuples(coordinate, coordinate, coordinate), min_size=1, max_size=18)


def filled_archive(points, *, keys=None, dedupe=True) -> ParetoArchive:
    archive = ParetoArchive(num_objectives=len(points[0]), dedupe_keys=dedupe)
    for index, objectives in enumerate(points):
        key = None if keys is None else keys[index]
        archive.insert(key, objectives, item=index)
    return archive


def archive_contents(archive: ParetoArchive):
    return sorted((entry.key, entry.objectives) for entry in archive)


# --------------------------------------------------------------------- #
# Insertion invariants
# --------------------------------------------------------------------- #
class TestInsertionInvariants:
    @given(points=point_lists, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_insertion_order_invariance(self, points, seed):
        """The surviving set never depends on the order points arrive in."""
        keys = [f"p{i}" for i in range(len(points))]
        forward = filled_archive(points, keys=keys)
        permutation = np.random.default_rng(seed).permutation(len(points))
        shuffled = ParetoArchive(dedupe_keys=True)
        for index in permutation:
            shuffled.insert(keys[index], points[index], item=int(index))
        assert archive_contents(forward) == archive_contents(shuffled)

    @given(points=point_lists_3d)
    @settings(max_examples=120, deadline=None)
    def test_no_dominated_survivor_and_batch_equivalence(self, points):
        """Incremental insertion equals the repo's batch Pareto filter.

        In particular no surviving entry is dominated by *any* inserted
        point, and every batch-front point survives (duplicates included).
        """
        archive = filled_archive(points, keys=[f"p{i}" for i in range(len(points))])
        survivors = archive.objective_array()
        for survivor in survivors:
            assert not any(dominates(np.asarray(point), survivor) for point in points)
        batch_front = sorted(tuple(map(float, points[i])) for i in pareto_front_indices(points))
        assert sorted(tuple(row) for row in survivors) == batch_front

    @given(points=point_lists)
    @settings(max_examples=120, deadline=None)
    def test_idempotent_reinsertion(self, points):
        """Re-inserting every point leaves the archive bit-identical."""
        keys = [f"p{i}" for i in range(len(points))]
        archive = filled_archive(points, keys=keys)
        before = archive.entries()
        for key, objectives in zip(keys, points):
            survived = archive.insert(key, objectives)
            assert not survived  # already represented (or dominated): no-op
        assert archive.entries() == before

    @given(points=point_lists)
    @settings(max_examples=80, deadline=None)
    def test_keyless_insertion_keeps_duplicates(self, points):
        """key=None entries have no identity: duplicates occupy one slot each,
        matching the historical list-based strategies."""
        archive = filled_archive(points + points, dedupe=False)
        front = pareto_front_indices(np.array(points + points))
        assert len(archive) == len(front)

    def test_key_replacement_updates_objectives(self):
        archive = ParetoArchive()
        assert archive.insert("a", (1.0, 1.0))
        assert archive.insert("a", (0.5, 0.5))
        assert archive_contents(archive) == [("a", (0.5, 0.5))]
        # A stale entry is dropped even when its replacement is dominated.
        assert archive.insert("b", (0.1, 0.1))
        assert not archive.insert("a", (2.0, 2.0))
        assert archive_contents(archive) == [("b", (0.1, 0.1))]

    def test_rejects_bad_objectives(self):
        archive = ParetoArchive(num_objectives=2)
        with pytest.raises(ValueError):
            archive.insert("a", (1.0, np.nan))
        with pytest.raises(ValueError):
            archive.insert("a", (1.0, np.inf))
        with pytest.raises(ValueError):
            archive.insert("a", (1.0,))
        with pytest.raises(ValueError):
            archive.insert("a", ())


# --------------------------------------------------------------------- #
# Crowding distance
# --------------------------------------------------------------------- #
class TestCrowdingDistance:
    def test_two_or_fewer_points_are_all_boundary(self):
        assert np.all(np.isinf(crowding_distances(np.array([[1.0, 2.0]]))))
        assert np.all(np.isinf(crowding_distances(np.array([[1.0, 2.0], [2.0, 1.0]]))))
        assert crowding_distances(np.empty((0, 2))).shape == (0,)

    def test_boundary_points_are_infinite_interior_finite(self):
        points = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        distances = crowding_distances(points)
        assert np.isinf(distances[0]) and np.isinf(distances[3])
        assert np.isfinite(distances[1]) and np.isfinite(distances[2])
        # Evenly spaced interior points share the same crowding.
        assert distances[1] == pytest.approx(distances[2])

    def test_constant_objective_contributes_nothing(self):
        points = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0], [4.0, 5.0]])
        distances = crowding_distances(points)
        assert np.isinf(distances[0]) and np.isinf(distances[3])
        # Only the first objective spreads; gaps are (2-0)/4 and (4-1)/4.
        assert distances[1] == pytest.approx(0.5)
        assert distances[2] == pytest.approx(0.75)

    def test_all_identical_points_all_infinite(self):
        # Every point is simultaneously a minimum and maximum of both
        # objectives; the stable argsort puts the first/last at the
        # boundary and zero span skips the interior accumulation.
        points = np.tile([[2.0, 2.0]], (5, 1))
        distances = crowding_distances(points)
        assert np.isinf(distances[0]) and np.isinf(distances[-1])
        assert np.all(distances[1:-1] == 0.0)

    @given(points=point_lists)
    @settings(max_examples=80, deadline=None)
    def test_distances_nonnegative(self, points):
        distances = crowding_distances(np.array(points))
        assert np.all(distances >= 0.0)

    def test_truncate_crowding_prefers_boundaries(self):
        archive = ParetoArchive()
        for i, point in enumerate([(0.0, 4.0), (1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (4.0, 0.0)]):
            archive.insert(f"p{i}", point)
        archive.truncate_crowding(3)
        kept = archive.keys()
        assert "p0" in kept and "p4" in kept and len(kept) == 3

    def test_truncate_spread_matches_legacy_linspace(self):
        entries = [(float(i), float(9 - i)) for i in range(10)]
        archive = ParetoArchive(dedupe_keys=False)
        for index, point in enumerate(entries):
            archive.insert(None, point, item=index)
        archive.truncate_spread(4)
        indices = np.linspace(0, 9, 4).round().astype(int)
        assert [entry.item for entry in archive] == [int(i) for i in indices]


# --------------------------------------------------------------------- #
# Ranks and environmental selection
# --------------------------------------------------------------------- #
class TestRanksAndSelection:
    @given(points=point_lists)
    @settings(max_examples=80, deadline=None)
    def test_rank_zero_is_the_pareto_front(self, points):
        points = np.array(points)
        ranks = non_dominated_ranks(points)
        assert sorted(np.nonzero(ranks == 0)[0]) == sorted(pareto_front_indices(points))
        assert np.all(ranks >= 0)

    @given(points=st.one_of(point_lists, point_lists_3d))
    @settings(max_examples=120, deadline=None)
    def test_ranks_match_front_by_front_peeling(self, points):
        """One dominance matrix per call ranks exactly like re-running the
        Pareto filter on what each front leaves behind."""
        points = np.array(points)
        expected = np.full(len(points), -1)
        remaining = list(range(len(points)))
        rank = 0
        while remaining:
            front = [remaining[i] for i in pareto_front_indices(points[remaining])]
            expected[front] = rank
            remaining = [index for index in remaining if index not in set(front)]
            rank += 1
        assert non_dominated_ranks(points).tolist() == expected.tolist()

    def test_ranks_reject_non_finite_points(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            non_dominated_ranks(np.array([[0.0, 1.0], [np.inf, 0.0]]))
        assert non_dominated_ranks(np.empty((0, 2))).tolist() == []

    @given(points=point_lists)
    @settings(max_examples=80, deadline=None)
    def test_same_rank_points_do_not_dominate_each_other(self, points):
        points = np.array(points)
        ranks = non_dominated_ranks(points)
        for rank in range(int(ranks.max()) + 1):
            front = points[ranks == rank]
            for a in front:
                for b in front:
                    assert not dominates(a, b)

    @given(points=point_lists, fraction=st.floats(0.1, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_selection_prefers_better_ranks(self, points, fraction):
        points = np.array(points)
        size = max(1, int(round(fraction * len(points))))
        selected = select_next_population(points, size)
        assert len(selected) == size
        assert len(set(selected)) == size
        ranks = non_dominated_ranks(points)
        # Whole fronts are taken in rank order, so no unselected point may
        # out-rank a selected one.
        worst_selected = max(ranks[i] for i in selected)
        unselected = [i for i in range(len(points)) if i not in set(selected)]
        assert all(ranks[i] >= worst_selected for i in unselected)


# --------------------------------------------------------------------- #
# Hypervolume indicator
# --------------------------------------------------------------------- #
class TestHypervolume:
    def test_hypervolume_matches_core_helper(self):
        from repro.core.pareto import hypervolume_2d

        points = [(1.0, 4.0), (2.0, 2.0), (4.0, 1.0), (3.0, 3.0)]
        archive = filled_archive(points, keys=[f"p{i}" for i in range(len(points))])
        reference = (5.0, 5.0)
        assert archive.hypervolume(reference) == pytest.approx(
            hypervolume_2d(np.array(points), reference)
        )
        assert archive.hypervolume() > 0.0
        assert ParetoArchive(num_objectives=2).hypervolume((1.0, 1.0)) == 0.0


# --------------------------------------------------------------------- #
# Hypervolume clamping (regression)
# --------------------------------------------------------------------- #
class TestHypervolumeClamp:
    """Archive members at or beyond the reference must contribute zero
    area -- the volume is never negative and never inflated by out-of-box
    points (regression for the unclamped staircase strips)."""

    def test_reference_inside_the_front_scores_zero(self):
        archive = filled_archive([(1.0, 5.0), (3.0, 3.0), (5.0, 1.0)],
                                 keys=["a", "b", "c"])
        assert archive.hypervolume((0.5, 0.5)) == 0.0

    def test_out_of_reference_members_are_excluded(self):
        from repro.core.pareto import hypervolume_2d

        inside = [(1.0, 2.0), (2.0, 1.0)]
        outside = [(0.5, 9.0), (9.0, 0.5)]  # dominate nothing inside the box
        reference = (4.0, 4.0)
        archive = filled_archive(
            inside + outside, keys=[f"p{i}" for i in range(4)]
        )
        assert archive.hypervolume(reference) == pytest.approx(
            hypervolume_2d(np.array(inside), reference)
        )

    @given(points=point_lists)
    @settings(max_examples=80, deadline=None)
    def test_fuzzed_volumes_are_never_negative(self, points):
        archive = filled_archive(points, dedupe=False)
        # Tight references land inside or below the front routinely.
        for reference in [(0.0, 0.0), (3.0, 3.0), (1.0, 6.0)]:
            assert archive.hypervolume(reference) >= 0.0
