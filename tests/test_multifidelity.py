"""Multi-fidelity search suite: EHVI, fidelity rungs, successive halving.

Covers the three layers of the ``"sh_ehvi"`` strategy plus the bugfixes
that ride along:

* the **EHVI acquisition** -- the exact 2-objective closed form against
  hand-derived deterministic limits, its seeded Monte-Carlo fallback (the
  two must agree on two objectives), the n-dimensional hypervolume it
  scores against, and the uncertainty plumbing feeding it
  (``predict_with_std`` on the GP, the random forest and
  ``ScaledRegressor``, ``estimate_batch_with_std`` on the estimators);
* the **fidelity ladder** -- ``fidelity_inputs`` centre-cropping,
  ``BatchEvaluator.evaluate_configurations`` pixel-budget rungs, and the
  cache-isolation guarantee that a reduced screen can never be served for
  an exact request (in either direction; for error reports, a sampled
  screen against exhaustive evaluation, including through the service's
  shared cross-tenant store);
* **resumable successive halving** -- config validation, determinism,
  checkpoint/resume through the same store/run_id plumbing NSGA-II uses,
  and the registered ``"sh_ehvi"`` strategy end to end, including a
  service job killed mid-rung that resumes to a bit-identical payload.

Run alone with ``pytest -m multifidelity``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.pareto import hypervolume_2d
from repro.engine import BatchEvaluator, EvalCache, accelerator_context
from repro.error import ErrorEvaluator
from repro.generators import build_multiplier_library
from repro.io import JsonDirectoryStore, ShardedJsonStore
from repro.ml import (
    GaussianProcessRegressor,
    LinearRegression,
    RandomForestRegressor,
    ScaledRegressor,
)
from repro.search import (
    ParetoArchive,
    SuccessiveHalvingConfig,
    default_fidelity_ladder,
    ehvi_2d,
    expected_hypervolume_improvement,
    hypervolume,
    monte_carlo_ehvi,
    run_successive_halving,
)
from repro.workloads import MIN_FIDELITY_SIDE, fidelity_inputs

pytestmark = pytest.mark.multifidelity

TINY_STD = 1e-9


# --------------------------------------------------------------------- #
# Exact 2-D EHVI
# --------------------------------------------------------------------- #
class TestEhvi2d:
    FRONT = np.array([[2.0, 2.0]])
    REFERENCE = (4.0, 4.0)

    def test_deterministic_limit_is_plain_hypervolume_improvement(self):
        # With vanishing uncertainty EHVI degrades to the deterministic
        # improvement indicator; these three values are hand-derived.
        means = np.array([[3.0, 3.0], [1.0, 3.0], [1.0, 1.0]])
        stds = np.full_like(means, TINY_STD)
        values = ehvi_2d(self.FRONT, self.REFERENCE, means, stds)
        np.testing.assert_allclose(values, [0.0, 1.0, 5.0], atol=1e-6)

    def test_empty_front_factorises_into_partial_moments(self):
        # No front: EHVI = E[(r1 - Y1)+] * E[(r2 - Y2)+], which in the
        # deterministic limit is the candidate's own box.
        values = ehvi_2d(
            np.empty((0, 2)), self.REFERENCE, [[1.0, 3.0]], [[TINY_STD, TINY_STD]]
        )
        np.testing.assert_allclose(values, [3.0], atol=1e-6)

    def test_dominated_candidate_with_uncertainty_scores_positive(self):
        dominated = np.array([[3.0, 3.0]])
        tight = ehvi_2d(self.FRONT, self.REFERENCE, dominated, [[0.01, 0.01]])
        loose = ehvi_2d(self.FRONT, self.REFERENCE, dominated, [[1.0, 1.0]])
        assert tight[0] < 1e-6
        assert loose[0] > 0.01  # uncertainty keeps exploration alive

    def test_front_points_outside_reference_are_ignored(self):
        means = np.array([[1.0, 1.0], [3.0, 3.0]])
        stds = np.full_like(means, 0.3)
        with_junk = np.vstack([self.FRONT, [[9.0, 0.5], [0.5, 9.0], [11.0, 11.0]]])
        np.testing.assert_allclose(
            ehvi_2d(with_junk, self.REFERENCE, means, stds),
            ehvi_2d(self.FRONT, self.REFERENCE, means, stds),
        )

    def test_duplicate_front_points_do_not_change_the_result(self):
        front = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        means = np.array([[1.5, 1.5]])
        stds = np.array([[0.5, 0.5]])
        np.testing.assert_allclose(
            ehvi_2d(np.repeat(front, 3, axis=0), self.REFERENCE, means, stds),
            ehvi_2d(front, self.REFERENCE, means, stds),
        )

    def test_values_are_finite_and_non_negative(self):
        rng = np.random.default_rng(7)
        front = rng.uniform(0.0, 4.0, size=(12, 2))
        means = rng.uniform(-1.0, 5.0, size=(30, 2))
        stds = rng.uniform(0.0, 2.0, size=(30, 2))  # exact zeros get floored
        values = ehvi_2d(front, self.REFERENCE, means, stds)
        assert values.shape == (30,)
        assert np.all(np.isfinite(values))
        assert np.all(values >= 0.0)

    def test_mismatched_mean_std_shapes_raise(self):
        with pytest.raises(ValueError, match="matching"):
            ehvi_2d(self.FRONT, self.REFERENCE, [[1.0, 1.0]], [[0.1, 0.1], [0.1, 0.1]])


class TestMonteCarloEhvi:
    def test_agrees_with_exact_closed_form_in_2d(self):
        rng = np.random.default_rng(11)
        for case in range(3):
            front = rng.uniform(0.0, 3.0, size=(5 + case * 3, 2))
            reference = np.array([4.0, 4.0])
            means = rng.uniform(0.5, 4.5, size=(6, 2))
            stds = rng.uniform(0.05, 0.8, size=(6, 2))
            exact = ehvi_2d(front, reference, means, stds)
            sampled = monte_carlo_ehvi(
                front, reference, means, stds, num_samples=4000, seed=3
            )
            # MC error is absolute (tiny EHVIs have huge *relative* noise).
            np.testing.assert_allclose(sampled, exact, atol=0.08 * (1.0 + exact.max()))

    def test_seeded_and_reproducible(self):
        front = np.array([[1.0, 2.0], [2.0, 1.0]])
        args = (front, (3.0, 3.0), [[1.5, 1.5]], [[0.4, 0.4]])
        first = monte_carlo_ehvi(*args, num_samples=64, seed=5)
        again = monte_carlo_ehvi(*args, num_samples=64, seed=5)
        other = monte_carlo_ehvi(*args, num_samples=64, seed=6)
        np.testing.assert_array_equal(first, again)
        assert not np.array_equal(first, other)

    def test_invalid_sample_count_raises(self):
        with pytest.raises(ValueError, match="num_samples"):
            monte_carlo_ehvi(np.empty((0, 2)), (1.0, 1.0), [[0.0, 0.0]], [[1.0, 1.0]], num_samples=0)


class TestEhviDispatch:
    def test_auto_uses_exact_closed_form_for_two_objectives(self):
        front = np.array([[1.0, 2.0], [2.0, 1.0]])
        means, stds = np.array([[1.2, 1.2]]), np.array([[0.3, 0.3]])
        np.testing.assert_array_equal(
            expected_hypervolume_improvement(front, (3.0, 3.0), means, stds),
            ehvi_2d(front, (3.0, 3.0), means, stds),
        )

    def test_auto_falls_back_to_monte_carlo_beyond_two_objectives(self):
        front = np.array([[1.0, 1.0, 1.0]])
        reference = (2.0, 2.0, 2.0)
        means = np.array([[0.5, 0.5, 0.5], [1.9, 1.9, 1.9]])
        stds = np.full_like(means, 0.05)
        values = expected_hypervolume_improvement(
            front, reference, means, stds, num_samples=256, seed=2
        )
        np.testing.assert_array_equal(
            values,
            monte_carlo_ehvi(front, reference, means, stds, num_samples=256, seed=2),
        )
        assert values[0] > values[1]  # clear improver beats the dominated one

    def test_exact_method_rejects_three_objectives(self):
        with pytest.raises(ValueError, match="two objectives"):
            expected_hypervolume_improvement(
                np.empty((0, 3)), (1.0, 1.0, 1.0), [[0.0] * 3], [[1.0] * 3], method="exact"
            )

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="method"):
            expected_hypervolume_improvement(
                np.empty((0, 2)), (1.0, 1.0), [[0.0, 0.0]], [[1.0, 1.0]], method="bogus"
            )


# --------------------------------------------------------------------- #
# n-D hypervolume + the 2-D clamp regression
# --------------------------------------------------------------------- #
class TestHypervolume:
    def test_matches_2d_staircase_on_random_fronts(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            points = rng.uniform(0.0, 2.0, size=(rng.integers(1, 12), 2))
            reference = (2.5, 2.5)
            assert hypervolume(points, reference) == pytest.approx(
                hypervolume_2d(points, reference)
            )

    def test_hand_derived_3d_values(self):
        assert hypervolume([[0.0, 0.0, 0.0]], (1.0, 1.0, 1.0)) == pytest.approx(1.0)
        # Boxes of volume 4 and 2 overlapping in a 1x1x1 corner.
        assert hypervolume(
            [[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]], (2.0, 2.0, 2.0)
        ) == pytest.approx(4.0 + 2.0 - 1.0)

    def test_single_objective_is_a_segment(self):
        assert hypervolume([[3.0], [1.0]], (4.0,)) == pytest.approx(3.0)

    def test_out_of_reference_points_contribute_nothing(self):
        inside = [[0.5, 0.5, 0.5]]
        junk = [[5.0, 0.1, 0.1], [0.1, 5.0, 0.1], [0.1, 0.1, 5.0]]
        reference = (1.0, 1.0, 1.0)
        assert hypervolume(np.vstack([inside, junk]), reference) == pytest.approx(
            hypervolume(inside, reference)
        )
        assert hypervolume(junk, reference) == 0.0

    def test_empty_front_is_zero(self):
        assert hypervolume(np.empty((0, 3)), (1.0, 1.0, 1.0)) == 0.0


class TestHypervolume2dNeverNegative:
    """Regression: points at/past the reference must clamp to zero area."""

    def test_front_entirely_beyond_reference_scores_zero(self):
        assert hypervolume_2d([[2.0, 2.0], [3.0, 1.5]], (1.0, 1.0)) == 0.0

    def test_mixed_front_equals_filtered_subset(self):
        points = np.array([[0.2, 0.8], [0.6, 0.4], [1.7, 0.1], [0.1, 2.4]])
        reference = (1.0, 1.0)
        inside = points[np.all(points <= np.asarray(reference), axis=1)]
        assert hypervolume_2d(points, reference) == pytest.approx(
            hypervolume_2d(inside, reference)
        )

    def test_fuzzed_volumes_are_never_negative(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            points = rng.uniform(-1.0, 3.0, size=(rng.integers(1, 9), 2))
            reference = rng.uniform(-0.5, 2.0, size=2)
            assert hypervolume_2d(points, reference) >= 0.0

    def test_archive_hypervolume_with_tight_reference_is_non_negative(self):
        archive = ParetoArchive(num_objectives=2)
        for key, point in enumerate([(1.0, 5.0), (3.0, 3.0), (5.0, 1.0)]):
            archive.insert(key, point)
        assert archive.hypervolume((2.0, 2.0)) == 0.0  # everything outside
        assert archive.hypervolume((4.0, 4.0)) == pytest.approx(
            hypervolume_2d(np.array([(1.0, 5.0), (3.0, 3.0), (5.0, 1.0)]), (4.0, 4.0))
        )


# --------------------------------------------------------------------- #
# Uncertainty plumbing: GP jitter, ensembles, scaling, estimators
# --------------------------------------------------------------------- #
class TestGaussianProcessDegenerateFits:
    def test_near_duplicate_large_magnitude_rows_fit_with_jitter(self):
        # Squared-distance cancellation at 1e4 magnitudes leaves the kernel
        # matrix indefinite when the white-noise term is tiny; this exact
        # construction crashed `linalg.cholesky` before jitter escalation.
        rng = np.random.default_rng(0)
        X = np.tile(rng.normal(size=3) * 1e4, (80, 1)) + rng.normal(
            scale=1e-8, size=(80, 3)
        )
        y = rng.normal(size=80)
        model = GaussianProcessRegressor(noise=1e-10).fit(X, y)
        assert model.jitter_ > 0.0
        mean, std = model.predict_with_std(X[:5])
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))

    def test_exact_duplicate_rows_fit(self):
        X = np.ones((16, 2)) * 3.0
        y = np.linspace(0.0, 1.0, 16)
        model = GaussianProcessRegressor(noise=1e-9).fit(X, y)
        mean, std = model.predict_with_std([[3.0, 3.0]])
        assert mean[0] == pytest.approx(y.mean(), abs=1e-3)
        assert np.isfinite(std[0])

    def test_healthy_fit_needs_no_jitter(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 2))
        model = GaussianProcessRegressor().fit(X, rng.normal(size=30))
        assert model.jitter_ == 0.0

    def test_single_sample_contract(self):
        model = GaussianProcessRegressor(noise=1e-4, signal_variance=1.0)
        model.fit([[0.0, 0.0]], [2.5])
        mean_at, std_at = model.predict_with_std([[0.0, 0.0]])
        mean_far, std_far = model.predict_with_std([[50.0, 50.0]])
        assert mean_at[0] == pytest.approx(2.5, abs=1e-3)
        assert mean_far[0] == pytest.approx(2.5)  # training mean == y0 here
        assert std_at[0] < std_far[0]
        assert std_far[0] == pytest.approx(np.sqrt(1.0 + 1e-4), rel=1e-3)


class TestEnsembleAndScaledUncertainty:
    def _data(self):
        rng = np.random.default_rng(19)
        X = rng.uniform(-2.0, 2.0, size=(60, 2))
        y = X[:, 0] ** 2 + 0.3 * X[:, 1] + rng.normal(scale=0.05, size=60)
        return X, y

    def test_forest_std_is_member_disagreement(self):
        X, y = self._data()
        model = RandomForestRegressor(n_estimators=12, random_state=5).fit(X, y)
        mean, std = model.predict_with_std(X)
        np.testing.assert_allclose(mean, model.predict(X))
        stacked = np.stack([tree.predict(X) for tree in model.estimators_])
        np.testing.assert_allclose(std, stacked.std(axis=0))
        assert np.all(std >= 0.0) and std.max() > 0.0

    def test_forest_std_validates_like_predict(self):
        X, y = self._data()
        with pytest.raises(RuntimeError):
            RandomForestRegressor(n_estimators=3).predict_with_std(X)
        model = RandomForestRegressor(n_estimators=3, random_state=1).fit(X, y)
        with pytest.raises(ValueError):
            model.predict_with_std(X[:, :1])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: GaussianProcessRegressor(),
            lambda: ScaledRegressor(RandomForestRegressor(n_estimators=3, random_state=1)),
            lambda: ScaledRegressor(GaussianProcessRegressor()),
            lambda: ScaledRegressor(LinearRegression()),
        ],
        ids=["gp", "scaled_forest", "scaled_gp", "scaled_linear"],
    )
    def test_every_predict_with_std_checks_input_like_predict(self, make):
        # ScaledRegressor used to skip the width check when its inner model
        # had a std: one column broadcast against the scaler into 12 rows of
        # 3 features and came back as 12 predictions.
        X, y = self._data()
        X = np.column_stack([X, X[:, 0] * X[:, 1]])[:12]
        with pytest.raises(RuntimeError, match="predict_with_std"):
            make().predict_with_std(X)
        model = make().fit(X, y[:12])
        for method in (model.predict, model.predict_with_std):
            with pytest.raises(ValueError, match="fitted with 3 features, got 1"):
                method(X[:, :1])

    def test_scaled_regressor_forwards_and_unscales_std(self):
        X, y = self._data()
        scaled = ScaledRegressor(GaussianProcessRegressor(), scale_target=True).fit(X, y)
        mean, std = scaled.predict_with_std(X[:8])
        np.testing.assert_allclose(mean, scaled.predict(X[:8]))
        assert np.all(std > 0.0)
        # Target scaling must stretch the inner model's std by y's scale.
        unscaled = ScaledRegressor(GaussianProcessRegressor(), scale_target=False).fit(
            X, (y - y.mean()) / y.std()
        )
        _, inner_std = unscaled.predict_with_std(X[:8])
        np.testing.assert_allclose(std, inner_std * y.std(), rtol=1e-6)

    def test_scaled_regressor_without_inner_std_reports_zero(self):
        X, y = self._data()
        scaled = ScaledRegressor(LinearRegression()).fit(X, y)
        mean, std = scaled.predict_with_std(X[:5])
        np.testing.assert_allclose(mean, scaled.predict(X[:5]))
        np.testing.assert_array_equal(std, np.zeros(5))


class TestEstimatorBatchStd:
    def test_shapes_and_mean_consistency(self, autoax_searchables):
        accelerator = autoax_searchables.accelerator
        rng = np.random.default_rng(2)
        configs = [accelerator.random_configuration(rng) for _ in range(6)]
        for estimator in (autoax_searchables.qor, autoax_searchables.hw):
            mean, std = estimator.estimate_batch_with_std(accelerator, configs)
            assert mean.shape == std.shape == (6,)
            np.testing.assert_allclose(mean, estimator.estimate_batch(accelerator, configs))
            assert np.all(std >= 0.0) and np.all(np.isfinite(std))

    def test_empty_batch(self, autoax_searchables):
        mean, std = autoax_searchables.qor.estimate_batch_with_std(
            autoax_searchables.accelerator, []
        )
        assert mean.shape == std.shape == (0,)


# --------------------------------------------------------------------- #
# Fidelity ladders: input cropping, pattern rungs, cache isolation
# --------------------------------------------------------------------- #
class TestFidelityInputs:
    def test_full_budget_is_the_identity(self):
        images = [np.arange(64, dtype=np.float64).reshape(8, 8)]
        reduced_images, reduced = fidelity_inputs(images, 64)
        assert reduced is False
        assert reduced_images[0] is images[0]  # same object: same cache token

    def test_reduced_budget_centre_crops(self):
        image = np.arange(32 * 32, dtype=np.float64).reshape(32, 32)
        (cropped,), reduced = fidelity_inputs([image], 256)
        assert reduced is True
        assert cropped.shape == (16, 16)
        np.testing.assert_array_equal(cropped, image[8:24, 8:24])

    def test_minimum_side_floor(self):
        image = np.zeros((32, 32))
        (cropped,), reduced = fidelity_inputs([image], 1)
        assert reduced is True
        assert cropped.shape == (MIN_FIDELITY_SIDE, MIN_FIDELITY_SIDE)

    def test_budget_below_one_raises(self):
        with pytest.raises(ValueError, match="budget"):
            fidelity_inputs([np.zeros((8, 8))], 0)

    def test_default_ladder_is_ascending_and_strictly_reduced(self):
        assert default_fidelity_ladder(5120) == (320, 1280)
        assert default_fidelity_ladder(300) == (256,)  # both factors floored
        assert default_fidelity_ladder(200) == ()  # floor >= full: no rungs
        ladder = default_fidelity_ladder(100_000)
        assert list(ladder) == sorted(ladder)
        assert all(f < 100_000 for f in ladder)
        with pytest.raises(ValueError):
            default_fidelity_ladder(0)


class TestFidelityRungCacheIsolation:
    """A reduced evaluation must never be served for an exact request (nor
    the other way round): a sampled error report is keyed apart from an
    exhaustive one, and an accelerator rung apart from the full input set."""

    @pytest.fixture(scope="class")
    def library(self):
        return build_multiplier_library(4, size=8, seed=9)

    @staticmethod
    def sampled(reference):
        """A 100-pattern screen: the limit sits below the 8-bit width."""
        return ErrorEvaluator(reference, max_exhaustive_inputs=7, num_samples=100)

    def test_error_evaluator_sampling_semantics(self, library):
        reference = library.reference()  # 8 input bits: 256 exhaustive patterns
        screen = self.sampled(reference)
        assert screen.method == "monte_carlo" and screen.num_patterns == 100
        # A limit at the width is exact evaluation, whatever the sample size.
        covered = ErrorEvaluator(reference, max_exhaustive_inputs=8, num_samples=100)
        assert covered.method == "exhaustive" and covered.num_patterns == 256
        assert ErrorEvaluator(reference).method == "exhaustive"

    def test_screen_and_exact_never_share_cache_entries(self, library):
        reference = library.reference()
        circuits = list(library.circuits[:4])
        cache = EvalCache()
        screen = BatchEvaluator(
            error_evaluator=self.sampled(reference), cache=cache, mode="serial"
        )
        exact = BatchEvaluator(reference, cache=cache, mode="serial")

        screened = screen.evaluate_errors(circuits)
        before = cache.stats()
        exact_reports = exact.evaluate_errors(circuits)
        delta = cache.stats().since(before)
        assert delta.hits == 0 and delta.misses == len(circuits)  # no aliasing
        assert {r.method for r in screened} == {"monte_carlo"}
        assert {r.method for r in exact_reports} == {"exhaustive"}

        # Both directions: re-running either side now is pure hits.
        for engine, reports in ((screen, screened), (exact, exact_reports)):
            before = cache.stats()
            again = engine.evaluate_errors(circuits)
            delta = cache.stats().since(before)
            assert delta.misses == 0 and delta.hits == len(circuits)
            assert [r.metrics.med for r in again] == [r.metrics.med for r in reports]

    def test_accelerator_rung_contexts_are_namespaced(self, autoax_searchables):
        accelerator = autoax_searchables.accelerator
        images = autoax_searchables.images
        full_budget = sum(image.size for image in images)
        exact_ctx = accelerator_context(accelerator, images)
        assert accelerator_context(accelerator, images, fidelity=None) == exact_ctx
        screen_ctx = accelerator_context(accelerator, images, fidelity=256)
        assert screen_ctx != exact_ctx

        rng = np.random.default_rng(4)
        configs = [accelerator.random_configuration(rng) for _ in range(3)]
        engine = BatchEvaluator(cache=EvalCache(), mode="serial")
        engine.evaluate_configurations(accelerator, images, configs, fidelity=256)
        before = engine.stats()
        engine.evaluate_configurations(accelerator, images, configs)
        delta = engine.stats().since(before)
        assert delta.hits == 0 and delta.misses == len(configs)
        # A budget >= the full pixel count aliases plain exact evaluation.
        before = engine.stats()
        engine.evaluate_configurations(
            accelerator, images, configs, fidelity=full_budget
        )
        delta = engine.stats().since(before)
        assert delta.misses == 0 and delta.hits == len(configs)

    def test_isolation_holds_through_shared_cross_tenant_store(self, library, tmp_path):
        reference = library.reference()
        circuits = list(library.circuits[:3])
        store = ShardedJsonStore(tmp_path / "shared", shards=4)

        # Tenant A runs a 100-pattern screen against the shared store.
        cache_a = EvalCache(store=store)
        BatchEvaluator(
            error_evaluator=self.sampled(reference), cache=cache_a, mode="serial"
        ).evaluate_errors(circuits)
        # Tenant B's *exact* request through a fresh cache on the same store
        # must miss all the way to a recompute...
        cache_b = EvalCache(store=store)
        exact_engine = BatchEvaluator(reference, cache=cache_b, mode="serial")
        exact_engine.evaluate_errors(circuits)
        stats = cache_b.stats()
        assert stats.hits == 0 and stats.misses == len(circuits)
        # ... while a tenant C screen at A's budget is a pure disk hit.
        cache_c = EvalCache(store=store)
        BatchEvaluator(
            error_evaluator=self.sampled(reference), cache=cache_c, mode="serial"
        ).evaluate_errors(circuits)
        stats = cache_c.stats()
        assert stats.misses == 0 and stats.hits == len(circuits)


# --------------------------------------------------------------------- #
# Resumable successive halving
# --------------------------------------------------------------------- #
def _quadratic_evaluate(rung_index, fidelity, cohort):
    """Deterministic toy evaluation: fidelity shifts values reproducibly."""
    shift = 0.0 if fidelity is None else 1.0 / fidelity
    return [
        {"f0": (c - 3.0) ** 2 + shift, "f1": (c + 1.0) ** 2 - shift} for c in cohort
    ]


def _objectives(payload):
    return (payload["f0"], payload["f1"])


class TestSuccessiveHalvingConfig:
    def test_validation(self):
        SuccessiveHalvingConfig(rungs=(100, 400, None))  # valid
        with pytest.raises(ValueError, match="at least one"):
            SuccessiveHalvingConfig(rungs=())
        with pytest.raises(ValueError, match="eta"):
            SuccessiveHalvingConfig(eta=1.0)
        with pytest.raises(ValueError, match="min_survivors"):
            SuccessiveHalvingConfig(min_survivors=0)
        with pytest.raises(ValueError, match="ascend"):
            SuccessiveHalvingConfig(rungs=(400, 100))
        with pytest.raises(ValueError, match="ascend"):
            SuccessiveHalvingConfig(rungs=(None, 100))  # None is full fidelity
        with pytest.raises(ValueError, match="positive"):
            SuccessiveHalvingConfig(rungs=(0, None))


class TestRunSuccessiveHalving:
    CONFIG = SuccessiveHalvingConfig(rungs=(16, 64, None), eta=2.0, min_survivors=2)
    CANDIDATES = [float(v) for v in range(12)]

    def test_halves_per_rung_and_keeps_the_final_cohort(self):
        result = run_successive_halving(
            candidates=self.CANDIDATES,
            evaluate=_quadratic_evaluate,
            objectives=_objectives,
            config=self.CONFIG,
        )
        assert [h["evaluated"] for h in result.history] == [12, 6, 3]
        assert [h["survivors"] for h in result.history] == [6, 3, 3]
        assert [h["fidelity"] for h in result.history] == [16, 64, None]
        assert result.resumed_from is None
        assert len(result.survivors) == len(result.evaluations) == 3
        # Survivors carry final-rung (full fidelity) payloads.
        for candidate, payload in zip(result.survivors, result.evaluations):
            assert payload == _quadratic_evaluate(2, None, [candidate])[0]
        # The quadratic's minimisers survive; the far tail cannot.
        assert all(candidate <= 4.0 for candidate in result.survivors)

    def test_deterministic(self):
        runs = [
            run_successive_halving(
                candidates=self.CANDIDATES,
                evaluate=_quadratic_evaluate,
                objectives=_objectives,
                config=self.CONFIG,
            )
            for _ in range(2)
        ]
        assert runs[0].survivors == runs[1].survivors
        assert runs[0].history == runs[1].history

    def test_empty_candidates_and_bad_evaluate_raise(self):
        with pytest.raises(ValueError, match="at least one candidate"):
            run_successive_halving(
                candidates=[], evaluate=_quadratic_evaluate, objectives=_objectives
            )
        with pytest.raises(RuntimeError, match="returned"):
            run_successive_halving(
                candidates=[1.0, 2.0],
                evaluate=lambda r, f, cohort: cohort[:1] and [{"f0": 0.0, "f1": 0.0}],
                objectives=_objectives,
            )

    def test_min_survivors_floor(self):
        config = SuccessiveHalvingConfig(rungs=(16, None), eta=100.0, min_survivors=5)
        result = run_successive_halving(
            candidates=self.CANDIDATES,
            evaluate=_quadratic_evaluate,
            objectives=_objectives,
            config=config,
        )
        assert result.history[0]["survivors"] == 5

    def test_kill_mid_run_then_resume_is_identical(self, tmp_path):
        store = JsonDirectoryStore(tmp_path / "ckpt")
        kwargs = dict(
            candidates=self.CANDIDATES,
            evaluate=_quadratic_evaluate,
            objectives=_objectives,
            config=self.CONFIG,
            run_id="sh-test",
            token="tok-1",
        )
        uninterrupted = run_successive_halving(**kwargs)

        rungs_seen = []

        def killer(stats):
            rungs_seen.append(stats["rung"])
            if stats["rung"] == 0:
                raise KeyboardInterrupt("simulated death after rung 0")

        with pytest.raises(KeyboardInterrupt):
            run_successive_halving(store=store, on_rung=killer, **kwargs)
        assert rungs_seen == [0]  # checkpoint for rung 0 is already on disk

        resumed = run_successive_halving(store=store, **kwargs)
        assert resumed.resumed_from == 1
        assert resumed.survivors == uninterrupted.survivors
        assert resumed.evaluations == uninterrupted.evaluations
        assert resumed.history == uninterrupted.history

    def test_changed_token_invalidates_the_checkpoint(self, tmp_path):
        store = JsonDirectoryStore(tmp_path / "ckpt")
        calls = []

        def counting_evaluate(rung_index, fidelity, cohort):
            calls.append(rung_index)
            return _quadratic_evaluate(rung_index, fidelity, cohort)

        kwargs = dict(
            candidates=self.CANDIDATES,
            evaluate=counting_evaluate,
            objectives=_objectives,
            config=self.CONFIG,
            store=store,
            run_id="sh-test",
        )
        run_successive_halving(token="tok-1", **kwargs)
        assert calls == [0, 1, 2]
        result = run_successive_halving(token="tok-2", **kwargs)  # different work
        assert calls == [0, 1, 2, 0, 1, 2]  # fresh run, no rung skipped
        assert result.resumed_from is None
        # Same token again: everything restores, zero evaluations.
        final = run_successive_halving(token="tok-2", **kwargs)
        assert calls == [0, 1, 2, 0, 1, 2]
        assert final.resumed_from == len(self.CONFIG.rungs)
        assert final.survivors == result.survivors


# --------------------------------------------------------------------- #
# The registered "sh_ehvi" strategy
# --------------------------------------------------------------------- #
class TestShEhviStrategy:
    KNOBS = dict(archive_limit=8, initial_cohort=10)

    def _run(self, searchables, telemetry=None, **fields):
        from repro.autoax.search import SEARCH_STRATEGIES

        ctx = searchables.ctx(**dict(dict(iterations=60, seed=5), **fields))
        return SEARCH_STRATEGIES.get("sh_ehvi")(ctx, telemetry=telemetry, **self.KNOBS)

    def test_returns_exact_measurements_on_a_pareto_front(self, autoax_searchables):
        telemetry = {}
        entries = self._run(autoax_searchables, telemetry=telemetry)
        assert 0 < len(entries) <= self.KNOBS["archive_limit"]
        accelerator = autoax_searchables.accelerator
        for entry in entries[:2]:  # exact, not estimated, values
            assert entry.quality == pytest.approx(
                accelerator.quality(autoax_searchables.images, entry.config)
            )
            assert entry.cost == accelerator.hw_cost(entry.config)
        # Telemetry: rung pattern counts ascend to the full budget, and the
        # exact-evaluation spend is a small fraction of pool * full.
        full = telemetry["full_patterns"]
        patterns = [r["patterns"] for r in telemetry["rungs"]]
        assert patterns == sorted(patterns) and patterns[-1] == full
        assert telemetry["exact_pattern_budget"] < telemetry["pool"] * full

    def test_deterministic_on_cold_and_warm_caches(self, autoax_searchables):
        first = self._run(autoax_searchables)
        engine = BatchEvaluator(cache=EvalCache(), mode="serial")
        second = self._run(autoax_searchables, engine=engine)
        third = self._run(autoax_searchables, engine=engine)
        key = lambda entries: [(e.config, e.quality, e.cost) for e in entries]
        assert key(first) == key(second) == key(third)

    def test_subsequent_exact_pass_is_pure_cache_hits(self, autoax_searchables):
        engine = BatchEvaluator(cache=EvalCache(), mode="serial")
        entries = self._run(autoax_searchables, engine=engine)
        before = engine.stats()
        reevaluated = autoax_searchables.ctx(engine=engine).evaluate(
            [entry.config for entry in entries]
        )
        delta = engine.stats().since(before)
        assert delta.misses == 0 and delta.hits == len(entries)
        assert [(e.quality, e.cost) for e in reevaluated] == [
            (e.quality, e.cost) for e in entries
        ]

    def test_checkpoint_resume_matches_uninterrupted(self, autoax_searchables, tmp_path):
        store = JsonDirectoryStore(tmp_path / "sh")
        uninterrupted = self._run(autoax_searchables)

        class Die(Exception):
            pass

        def killer(stats):
            if stats["rung"] == 0:
                raise Die

        with pytest.raises(Die):
            self._run(autoax_searchables, store=store, on_generation=killer)
        telemetry = {}
        resumed = self._run(autoax_searchables, telemetry=telemetry, store=store)
        assert telemetry["resumed_from"] == 1
        key = lambda entries: [(e.config, e.quality, e.cost) for e in entries]
        assert key(resumed) == key(uninterrupted)


# --------------------------------------------------------------------- #
# Service integration: the flow knob and kill-mid-rung resume
# --------------------------------------------------------------------- #
SH_EHVI_JOB = {
    "parameters": ["area"],
    "num_training_samples": 6,
    "num_random_baseline": 4,
    "hill_climb_iterations": 30,
    "image_size": 16,
    "multiplier_bits": 4,
    "multiplier_library_size": 16,
    "num_multipliers": 4,
    "adder_bits": 8,
    "adder_library_size": 12,
    "num_adders": 3,
    "search_strategy": "sh_ehvi",
    "fidelity_ladder": [96, 256],
}


class TestShEhviService:
    def test_flow_exposes_the_ladder_knob(self):
        from repro.service.flows import DEFAULT_AUTOAX_PARAMS

        assert "fidelity_ladder" in DEFAULT_AUTOAX_PARAMS
        assert DEFAULT_AUTOAX_PARAMS["fidelity_ladder"] is None

    def test_kill_mid_rung_then_resume_is_bit_identical(self, tmp_path):
        from repro.service import JobClient, JobRegistry, Worker

        registry = JobRegistry(tmp_path / "reference")
        JobClient(registry).submit("autoax", SH_EHVI_JOB, job_id="reference")
        reference = Worker(registry, engine_mode="serial").run_once()
        assert reference.state == "done"

        class KilledMidRung(Worker):
            """Dies after the first successive-halving rung heartbeat."""

            beats = 0

            def _heartbeat(self, record):
                super()._heartbeat(record)
                progress = record.progress or {}
                if progress.get("status") == "started" and progress.get(
                    "stage", ""
                ).startswith("scenario-"):
                    KilledMidRung.beats += 1
                    if KilledMidRung.beats >= 1:
                        raise KeyboardInterrupt("simulated death mid-rung")

        service = JobRegistry(tmp_path / "service", lease_ttl=0.05)
        JobClient(service).submit("autoax", SH_EHVI_JOB, job_id="victim")
        with pytest.raises(KeyboardInterrupt):
            KilledMidRung(service, engine_mode="serial").run_once()
        assert KilledMidRung.beats == 1
        assert service.get("victim").state == "running"  # lease still held
        time.sleep(0.1)

        record = Worker(service, engine_mode="serial").run_once()
        assert record.state == "done"
        assert record.attempts == 2
        assert record.digest == reference.digest
