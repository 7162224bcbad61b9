"""Tests of the pluggable workload subsystem (`repro.workloads`).

Covers the registry error paths, the `ApproxAccelerator` protocol surface
of every built-in workload, the hardened quality metrics, the seeded
per-workload input sets, workload-namespaced engine cache keys, and the
frozen golden digests of seeded end-to-end `ExplorationSession` + NSGA-II
runs on the new (non-Gaussian) workloads
(``tests/fixtures/workload_golden.json``, generated when the subsystem was
introduced).  The Gaussian workload's bit-identity with the pre-workload
implementation is additionally pinned by ``tests/test_search_regression.py``
and ``tests/test_backcompat.py``.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.api import ExplorationSession
from repro.autoax import AutoAxConfig, default_autoax_run_id
from repro.engine import BatchEvaluator, EvalCache, accelerator_token, images_token
from repro.generators import build_adder_library, build_multiplier_library
from repro.registry import RegistryError
from repro.workloads import (
    QUALITY_METRICS,
    WORKLOADS,
    ApproxAccelerator,
    ConvolutionAccelerator,
    GaussianFilterAccelerator,
    SlotConfiguration,
    build_workload,
    components_from_library,
    default_image_set,
    gradient_similarity,
    psnr,
    psnr_score,
    ssim,
)

pytestmark = pytest.mark.workloads

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "workload_golden.json"
BUILTIN_WORKLOADS = ("gaussian", "sobel", "sharpen")


@pytest.fixture(scope="module")
def components():
    """The component setup the workload golden fixture was generated with."""
    multipliers = components_from_library(
        build_multiplier_library(8, size=30, seed=2), 6, max_error=0.1
    )
    adders = components_from_library(build_adder_library(16, size=24, seed=4), 5, max_error=0.02)
    return multipliers, adders


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def signature(entries):
    return [
        {
            "multipliers": list(entry.config.multiplier_indices),
            "adders": list(entry.config.adder_indices),
            "quality": repr(entry.quality),
            "cost": {name: repr(value) for name, value in sorted(entry.cost.items())},
        }
        for entry in entries
    ]


def digest(entries) -> str:
    blob = json.dumps(signature(entries), sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


# --------------------------------------------------------------------- #
# Registry error paths
# --------------------------------------------------------------------- #
class TestWorkloadRegistry:
    def test_builtin_keys_registered(self):
        for key in BUILTIN_WORKLOADS:
            assert key in WORKLOADS

    def test_unknown_workload_lists_available(self):
        with pytest.raises(RegistryError) as excinfo:
            WORKLOADS.get("does-not-exist")
        message = str(excinfo.value)
        for key in BUILTIN_WORKLOADS:
            assert key in message

    def test_build_workload_unknown_key(self, components):
        with pytest.raises(RegistryError):
            build_workload("does-not-exist", *components)

    def test_duplicate_registration_raises(self):
        with pytest.raises(RegistryError, match="already registered"):
            WORKLOADS.register("gaussian", GaussianFilterAccelerator)

    def test_registration_roundtrip(self, components):
        class BoxAccelerator(ConvolutionAccelerator):
            workload_name = "box-test"
            kernel = ((28, 28, 28), (28, 32, 28), (28, 28, 28))
            shift = 8
            quality_metric = "ssim"
            input_seed = 900

        WORKLOADS.register("box-test", BoxAccelerator)
        try:
            accelerator = build_workload("box-test", *components)
            assert accelerator.workload_name == "box-test"
            assert accelerator.num_multiplier_slots == 9
        finally:
            WORKLOADS.unregister("box-test")
        with pytest.raises(RegistryError):
            WORKLOADS.get("box-test")

    def test_autoax_config_validates_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            AutoAxConfig(workload="does-not-exist")

    def test_unknown_quality_metric_fails_at_construction(self, components):
        with pytest.raises(RegistryError, match="quality metric"):
            ConvolutionAccelerator(*components, quality_metric="does-not-exist")


# --------------------------------------------------------------------- #
# Protocol surface of the built-in workloads
# --------------------------------------------------------------------- #
class TestProtocol:
    @pytest.mark.parametrize("key", BUILTIN_WORKLOADS)
    def test_slot_declaration_consistent(self, components, key):
        accelerator = build_workload(key, *components)
        assert isinstance(accelerator, ApproxAccelerator)
        multiplier_slot, adder_slot = accelerator.slots()
        assert multiplier_slot.kind == "multiplier"
        assert adder_slot.kind == "adder"
        assert multiplier_slot.count == accelerator.num_multiplier_slots
        assert adder_slot.count == accelerator.num_adder_slots
        assert accelerator.design_space_size == (
            len(components[0]) ** multiplier_slot.count * len(components[1]) ** adder_slot.count
        )

    def test_expected_slot_shapes(self, components):
        shapes = {
            key: (
                build_workload(key, *components).num_multiplier_slots,
                build_workload(key, *components).num_adder_slots,
            )
            for key in BUILTIN_WORKLOADS
        }
        assert shapes == {"gaussian": (9, 8), "sobel": (12, 8), "sharpen": (5, 3)}

    @pytest.mark.parametrize("key", BUILTIN_WORKLOADS)
    def test_exact_configuration_reproduces_exact_output(self, components, key):
        accelerator = build_workload(key, *components)
        config = accelerator.exact_configuration()
        images = accelerator.default_inputs(24)[:2]
        for image in images:
            assert np.array_equal(
                accelerator.apply(image, config), accelerator.exact_filter(image)
            )
        assert accelerator.quality(images, config) == pytest.approx(1.0)

    @pytest.mark.parametrize("key", BUILTIN_WORKLOADS)
    def test_prepared_path_matches_unprepared(self, components, key):
        accelerator = build_workload(key, *components)
        images = accelerator.default_inputs(24)[:2]
        rng = np.random.default_rng(3)
        config = accelerator.random_configuration(rng)
        prepared = accelerator.prepare_inputs(images)
        quality, cost = accelerator.evaluate_prepared(prepared, config)
        assert quality == accelerator.quality(images, config)
        assert cost == accelerator.hw_cost(config)

    @pytest.mark.parametrize("key", BUILTIN_WORKLOADS)
    def test_mutation_changes_at_most_one_slot(self, components, key):
        accelerator = build_workload(key, *components)
        rng = np.random.default_rng(5)
        config = accelerator.exact_configuration()
        mutated = accelerator.mutate_configuration(config, rng)
        differences = sum(
            a != b for a, b in zip(config.multiplier_indices, mutated.multiplier_indices)
        ) + sum(a != b for a, b in zip(config.adder_indices, mutated.adder_indices))
        assert differences <= 1
        assert len(mutated.multiplier_indices) == accelerator.num_multiplier_slots
        assert len(mutated.adder_indices) == accelerator.num_adder_slots

    def test_make_configuration_validates_slot_shape(self, components):
        sobel = build_workload("sobel", *components)
        config = sobel.make_configuration([0] * 12, [0] * 8)
        assert isinstance(config, SlotConfiguration)
        with pytest.raises(ValueError, match="sobel"):
            sobel.make_configuration([0] * 9, [0] * 8)
        with pytest.raises(ValueError, match="adder slots"):
            sobel.make_configuration([0] * 12, [0] * 3)

    def test_sobel_constant_image_has_zero_gradient(self, components):
        sobel = build_workload("sobel", *components)
        constant = np.full((16, 16), 120, dtype=np.uint8)
        assert not sobel.exact_filter(constant).any()

    def test_sharpen_constant_image_is_identity(self, components):
        sharpen = build_workload("sharpen", *components)
        constant = np.full((16, 16), 57, dtype=np.uint8)
        assert np.array_equal(sharpen.exact_filter(constant), constant)

    def test_convolution_rejects_degenerate_kernels(self, components):
        with pytest.raises(ValueError, match="square"):
            ConvolutionAccelerator(*components, kernel=((1, 2), (3, 4), (5, 6)))
        with pytest.raises(ValueError, match="non-zero"):
            ConvolutionAccelerator(*components, kernel=((0, 0, 0),) * 3)


# --------------------------------------------------------------------- #
# Quality metrics (hardening contract)
# --------------------------------------------------------------------- #
class TestQualityMetrics:
    def test_registry_keys(self):
        assert set(QUALITY_METRICS.keys()) >= {"ssim", "psnr", "gms"}
        with pytest.raises(RegistryError):
            QUALITY_METRICS.get("does-not-exist")

    def test_psnr_identical_is_inf_without_warning(self):
        image = default_image_set(16)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert psnr(image, image) == float("inf")
            assert psnr_score(image, image) == 1.0

    def test_psnr_score_bounded_and_monotone(self):
        image = default_image_set(16)[0].astype(np.int64)
        slightly = np.clip(image + 1, 0, 255)
        badly = np.clip(image + 40, 0, 255)
        near = psnr_score(image, slightly)
        far = psnr_score(image, badly)
        assert 0.0 < far < near <= 1.0

    def test_ssim_window_validation(self):
        image = default_image_set(16)[0]
        with pytest.raises(ValueError, match="window 17 exceeds"):
            ssim(image, image, window=17)
        with pytest.raises(ValueError, match="at least 1"):
            ssim(image, image, window=0)
        assert ssim(image, image, window=16) == pytest.approx(1.0)

    def test_gradient_similarity_contract(self):
        image = default_image_set(16)[0]
        assert gradient_similarity(image, image) == pytest.approx(1.0)
        assert gradient_similarity(image, 255 - image) < 1.0
        with pytest.raises(ValueError):
            gradient_similarity(image, image[:8, :8])



# --------------------------------------------------------------------- #
# Seeded per-workload input sets
# --------------------------------------------------------------------- #
class TestInputSets:
    def test_workload_input_sets_are_pairwise_distinct(self, components):
        sets = {
            key: build_workload(key, *components).default_inputs(24)
            for key in BUILTIN_WORKLOADS
        }
        tokens = {key: images_token(images) for key, images in sets.items()}
        assert len(set(tokens.values())) == len(BUILTIN_WORKLOADS)
        # Every single image differs between any two workloads, including
        # the structured (gradient / checkerboard) ones.
        keys = list(sets)
        for i, left in enumerate(keys):
            for right in keys[i + 1:]:
                for a, b in zip(sets[left], sets[right]):
                    assert not np.array_equal(a, b)

    def test_seeded_images_are_valid(self):
        for seed in (0, 101, 202):
            for image in default_image_set(20, seed=seed):
                assert image.shape == (20, 20)
                assert image.dtype == np.uint8

    def test_instance_input_seed_override_is_respected(self, components):
        """An ad-hoc workload's instance-level ``input_seed`` must drive its
        default inputs (regression: a classmethod implementation silently
        fell back to the class-level Gaussian seed)."""
        ad_hoc = ConvolutionAccelerator(
            *components,
            kernel=((28, 28, 28), (28, 32, 28), (28, 28, 28)),
            shift=8,
            workload_name="box",
            input_seed=907,
        )
        expected = default_image_set(20, seed=907)
        for image, reference in zip(ad_hoc.default_inputs(20), expected):
            assert np.array_equal(image, reference)
        gaussian = build_workload("gaussian", *components)
        assert images_token(ad_hoc.default_inputs(20)) != images_token(
            gaussian.default_inputs(20)
        )


# --------------------------------------------------------------------- #
# Workload-namespaced engine cache keys
# --------------------------------------------------------------------- #
class TestEngineNamespacing:
    def test_accelerator_tokens_differ_per_workload(self, components):
        tokens = {
            accelerator_token(build_workload(key, *components)) for key in BUILTIN_WORKLOADS
        }
        assert len(tokens) == len(BUILTIN_WORKLOADS)

    def test_foreign_accelerator_keeps_legacy_token(self, components):
        from types import SimpleNamespace

        multipliers, adders = components
        foreign = SimpleNamespace(multipliers=multipliers, adders=adders)
        assert accelerator_token(foreign)  # duck-typed path still works

    def test_same_shape_workloads_never_share_cache_entries(self, components):
        """Two workloads with identical slot shapes, components, images and
        configuration must produce two distinct cache entries (they compute
        different outputs for the same assignment)."""
        gaussian = build_workload("gaussian", *components)
        box = ConvolutionAccelerator(
            *components,
            kernel=((28, 28, 28), (28, 32, 28), (28, 28, 28)),
            shift=8,
            workload_name="box",
        )
        assert box.num_multiplier_slots == gaussian.num_multiplier_slots
        assert box.num_adder_slots == gaussian.num_adder_slots

        images = default_image_set(24)[:2]
        rng = np.random.default_rng(9)
        config = gaussian.random_configuration(rng)

        cache = EvalCache()
        engine = BatchEvaluator(cache=cache, mode="serial")
        first = engine.evaluate_configurations(gaussian, images, [config])[0]
        before = cache.stats()
        second = engine.evaluate_configurations(box, images, [config])[0]
        after = cache.stats()
        assert after.misses == before.misses + 1  # no cross-workload hit
        assert after.size == 2
        assert first["quality"] != second["quality"]

    def test_cross_workload_session_runs_share_component_cache(self, components):
        """One session serving two workloads reuses circuit-level results
        (err/fpga) while keeping the accelerator entries per workload."""
        session = ExplorationSession(seed=11)
        config = dict(
            parameters=("area",),
            num_training_samples=4,
            num_random_baseline=2,
            hill_climb_iterations=10,
            image_size=16,
            seed=11,
        )
        sobel = session.run_autoax(*components, AutoAxConfig(workload="sobel", **config))
        sharpen = session.run_autoax(*components, AutoAxConfig(workload="sharpen", **config))
        assert sobel.scenarios["area"].front
        assert sharpen.scenarios["area"].front
        assert set(session.runs) == {"autoax-sobel", "autoax-sharpen"}
        assert digest(sobel.baseline) != digest(sharpen.baseline)

    def test_default_run_ids(self):
        assert default_autoax_run_id("gaussian") == "autoax-gaussian-filter"
        assert default_autoax_run_id("sobel") == "autoax-sobel"


# --------------------------------------------------------------------- #
# Frozen golden digests: seeded session + NSGA-II per workload
# --------------------------------------------------------------------- #
class TestWorkloadGoldens:
    @pytest.mark.parametrize("workload", BUILTIN_WORKLOADS)
    def test_session_nsga2_run_matches_golden(self, components, golden, workload):
        config = AutoAxConfig(
            parameters=("area",),
            num_training_samples=12,
            num_random_baseline=8,
            hill_climb_iterations=60,
            image_size=32,
            seed=11,
            search_strategy="nsga2",
            workload=workload,
        )
        session = ExplorationSession(seed=11)
        result = session.run_autoax(*components, config)
        scenario = result.scenarios["area"]
        expected = golden[workload]
        assert digest(scenario.candidates) == expected["candidates"]
        assert digest(scenario.front) == expected["front"]
        assert digest(result.baseline) == expected["baseline"]
        assert len(scenario.front) == expected["num_front"]

    def test_goldens_distinct_across_workloads(self, golden):
        fronts = {golden[workload]["front"] for workload in BUILTIN_WORKLOADS}
        assert len(fronts) == len(BUILTIN_WORKLOADS)


# --------------------------------------------------------------------- #
# New workloads through every registered search strategy
# --------------------------------------------------------------------- #
class TestSearchStrategiesOnNewWorkloads:
    @pytest.mark.parametrize("strategy", ["hill_climb", "random_archive", "nsga2"])
    def test_sobel_strategies_run(self, components, strategy):
        from repro.autoax import HwCostEstimator, QorEstimator, SearchContext, random_search
        from repro.autoax.search import SEARCH_STRATEGIES

        sobel = build_workload("sobel", *components)
        images = sobel.default_inputs(16)[:2]
        engine = BatchEvaluator(mode="serial")
        samples = random_search(sobel, images, 8, seed=3, engine=engine)
        qor = QorEstimator().fit(sobel, samples, engine=engine)
        hw = HwCostEstimator("area").fit(sobel, samples, engine=engine)
        ctx = SearchContext(sobel, qor, hw, images, engine, iterations=20, seed=7)
        archive = SEARCH_STRATEGIES.get(strategy)(ctx)
        assert archive
        for entry in archive:
            assert len(entry.config.multiplier_indices) == 12
            assert len(entry.config.adder_indices) == 8
