"""Tests of the AutoAx-FPGA case study: images, SSIM, accelerator, search, flow."""

import numpy as np
import pytest

from repro.api import ExplorationSession
from repro.autoax import (
    AutoAxConfig,
    HwCostEstimator,
    QorEstimator,
    SearchContext,
    configuration_feature_matrix,
    hill_climb_pareto,
    random_search,
)
from repro.engine import BatchEvaluator
from repro.generators import build_adder_library, build_multiplier_library
from repro.workloads import (
    NUM_ADDER_SLOTS,
    NUM_MULTIPLIER_SLOTS,
    GaussianFilterAccelerator,
    components_from_library,
    default_image_set,
    mean_ssim,
    psnr,
    ssim,
)


# ------------------------------ fixtures ------------------------------- #
@pytest.fixture(scope="module")
def components():
    multiplier_library = build_multiplier_library(8, size=30, seed=2)
    adder_library = build_adder_library(16, size=24, seed=4)
    multipliers = components_from_library(multiplier_library, 6, max_error=0.1)
    adders = components_from_library(adder_library, 5, max_error=0.02)
    return multipliers, adders


@pytest.fixture(scope="module")
def accelerator(components):
    multipliers, adders = components
    return GaussianFilterAccelerator(multipliers, adders)


@pytest.fixture(scope="module")
def images():
    return default_image_set(32)


@pytest.fixture(scope="module")
def engine():
    return BatchEvaluator(mode="serial")


# ------------------------------- images -------------------------------- #
def test_image_set_properties(images):
    assert len(images) == 5
    for image in images:
        assert image.shape == (32, 32)
        assert image.dtype == np.uint8


# -------------------------------- ssim ---------------------------------- #
def test_ssim_identical_images_is_one(images):
    assert ssim(images[0], images[0]) == pytest.approx(1.0)


def test_ssim_degrades_with_noise(images):
    rng = np.random.default_rng(0)
    noisy = np.clip(images[0].astype(int) + rng.integers(-60, 60, images[0].shape), 0, 255)
    score = ssim(images[0], noisy.astype(np.uint8))
    assert 0.0 < score < 0.95


def test_ssim_shape_mismatch_raises(images):
    with pytest.raises(ValueError):
        ssim(images[0], images[0][:16, :16])


def test_psnr_identical_infinite(images):
    assert psnr(images[0], images[0]) == float("inf")
    assert psnr(images[0], 255 - images[0]) < 30.0


def test_mean_ssim_validation(images):
    assert mean_ssim(images, images) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mean_ssim(images, images[:2])
    with pytest.raises(ValueError):
        mean_ssim([], [])


# ----------------------------- components -------------------------------- #
def test_components_have_costs_and_error(components):
    multipliers, adders = components
    assert len(multipliers) == 6
    assert len(adders) == 5
    for component in multipliers + adders:
        assert component.fpga.luts >= 0
        assert component.error.med <= 0.1 + 1e-9


def test_component_compute_matches_netlist(components, rng):
    multipliers, _ = components
    component = multipliers[0]
    a = rng.integers(0, 256, 100)
    b = rng.integers(0, 256, 100)
    direct = component.netlist.evaluate_words({"a": a, "b": b})
    assert np.array_equal(component.compute(a, b), direct)


# ----------------------------- accelerator ------------------------------- #
def test_configuration_slot_counts(accelerator):
    with pytest.raises(ValueError, match="multiplier slots"):
        accelerator.make_configuration((0,) * 5, (0,) * NUM_ADDER_SLOTS)
    with pytest.raises(ValueError, match="adder slots"):
        accelerator.make_configuration((0,) * NUM_MULTIPLIER_SLOTS, (0,) * 3)


def test_exact_configuration_reproduces_exact_filter(accelerator, images):
    config = accelerator.exact_configuration()
    for image in images[:2]:
        assert np.array_equal(accelerator.apply(image, config), accelerator.exact_filter(image))
    assert accelerator.quality(images, config) == pytest.approx(1.0)


def test_exact_filter_is_a_smoother(accelerator, images):
    noisy = images[4].astype(np.int64)
    filtered = accelerator.exact_filter(images[4]).astype(np.int64)
    assert filtered.std() < noisy.std()


def test_random_configuration_quality_below_exact(accelerator, images, rng):
    config = accelerator.random_configuration(rng)
    assert accelerator.quality(images[:2], config) <= 1.0


def test_mutate_changes_exactly_one_slot(accelerator, rng):
    config = accelerator.exact_configuration()
    mutated = accelerator.mutate_configuration(config, rng)
    differences = sum(
        a != b for a, b in zip(config.multiplier_indices, mutated.multiplier_indices)
    ) + sum(a != b for a, b in zip(config.adder_indices, mutated.adder_indices))
    assert differences <= 1


def test_hw_cost_composition(accelerator):
    config = accelerator.exact_configuration()
    cost = accelerator.hw_cost(config)
    multiplier = accelerator.multipliers[config.multiplier_indices[0]]
    adder = accelerator.adders[config.adder_indices[0]]
    expected_area = 9 * multiplier.fpga.area_luts + 8 * adder.fpga.area_luts
    assert cost["area"] == pytest.approx(expected_area)
    assert cost["latency"] >= multiplier.fpga.latency_ns + 4 * adder.fpga.latency_ns - 1e-9
    assert cost["power"] > 0.0


def test_design_space_size(accelerator):
    expected = len(accelerator.multipliers) ** 9 * len(accelerator.adders) ** 8
    assert accelerator.design_space_size == expected


# ------------------------- estimators and search -------------------------- #
def test_configuration_feature_matrix_rows(accelerator):
    """One row per configuration: the per-slot (MED, LUTs, latency, power)
    walk followed by the slot sums and maxima, bit for bit."""
    rng = np.random.default_rng(0)
    configs = [accelerator.exact_configuration()]
    configs += [accelerator.random_configuration(rng) for _ in range(20)]
    matrix = configuration_feature_matrix(accelerator, configs)
    assert matrix.shape == (len(configs), (NUM_MULTIPLIER_SLOTS + NUM_ADDER_SLOTS) * 4 + 8)
    for config, row in zip(configs, matrix):
        slots = [accelerator.multipliers[i] for i in config.multiplier_indices]
        slots += [accelerator.adders[i] for i in config.adder_indices]
        per_slot = np.array(
            [
                [c.error.med, c.fpga.area_luts, c.fpga.latency_ns, c.fpga.total_power_mw]
                for c in slots
            ]
        )
        expected = np.concatenate([per_slot.ravel(), per_slot.sum(axis=0), per_slot.max(axis=0)])
        np.testing.assert_array_equal(row, expected)


def test_estimators_learn_from_samples(accelerator, images, engine):
    samples = random_search(accelerator, images[:2], 20, seed=3, engine=engine)
    qor = QorEstimator().fit(accelerator, samples, engine=engine)
    hw = HwCostEstimator("area").fit(accelerator, samples, engine=engine)
    configs = [samples[0].config]
    assert 0.0 <= qor.estimate_batch(accelerator, configs)[0] <= 1.5
    estimate = hw.estimate_batch(accelerator, configs)[0]
    assert estimate == pytest.approx(samples[0].cost["area"], rel=0.3)
    with pytest.raises(ValueError, match="two training samples"):
        QorEstimator().fit(accelerator, samples[:1], engine=engine)


def test_random_search_returns_requested_count(accelerator, images, engine):
    results = random_search(accelerator, images[:2], 10, seed=1, engine=engine)
    assert len(results) == 10
    for entry in results:
        assert 0.0 <= entry.quality <= 1.0
        assert set(entry.cost) == {"area", "power", "latency"}


def test_hill_climb_archive_is_nondominated(accelerator, images, engine):
    from repro.core import dominates

    samples = random_search(accelerator, images[:2], 15, seed=5, engine=engine)
    qor = QorEstimator().fit(accelerator, samples, engine=engine)
    hw = HwCostEstimator("area").fit(accelerator, samples, engine=engine)
    ctx = SearchContext(accelerator, qor, hw, images[:2], engine, iterations=40, seed=2)
    archive = hill_climb_pareto(ctx)
    assert archive
    points = [(entry.cost["area"], 1.0 - entry.quality) for entry in archive]
    for i, point_i in enumerate(points):
        for j, point_j in enumerate(points):
            if i != j:
                assert not dominates(point_j, point_i) or point_i == point_j


def test_exact_reevaluation_replaces_estimates(accelerator, images, engine):
    samples = random_search(accelerator, images[:2], 8, seed=9, engine=engine)
    qor = QorEstimator().fit(accelerator, samples, engine=engine)
    hw = HwCostEstimator("latency").fit(accelerator, samples, engine=engine)
    ctx = SearchContext(accelerator, qor, hw, images[:2], engine, iterations=20, seed=3)
    archive = hill_climb_pareto(ctx)
    exact = ctx.evaluate([entry.config for entry in archive])
    assert len(exact) == len(archive)
    for entry in exact:
        assert 0.0 <= entry.quality <= 1.0
        assert entry.quality == accelerator.quality(images[:2], entry.config)


# -------------------------------- flow ------------------------------------ #
def test_autoax_flow_end_to_end(components):
    multipliers, adders = components
    config = AutoAxConfig(
        parameters=("area",),
        num_training_samples=15,
        num_random_baseline=15,
        hill_climb_iterations=40,
        image_size=32,
        seed=11,
    )
    result = ExplorationSession(engine_mode="serial").run_autoax(multipliers, adders, config)
    assert set(result.scenarios) == {"area"}
    scenario = result.scenarios["area"]
    assert scenario.front
    assert scenario.num_candidates >= len(scenario.front)
    assert result.design_space_size == 6 ** 9 * 5 ** 8
    comparison = result.hypervolume_comparison("area")
    assert comparison["autoax"] >= 0.0 and comparison["random"] >= 0.0
    assert len(result.baseline_front("area")) >= 1


def test_autoax_config_validation():
    with pytest.raises(ValueError):
        AutoAxConfig(num_training_samples=1)
    with pytest.raises(ValueError):
        AutoAxConfig(num_random_baseline=0)


@pytest.mark.parametrize(
    "parameters, match",
    [
        (("areaa",), "unknown FPGA parameters \\['areaa'\\]"),
        ("area", "not the string 'area'"),
        (("area", "power", "area"), "duplicate FPGA parameters"),
    ],
)
def test_autoax_config_rejects_bad_parameters(parameters, match):
    with pytest.raises(ValueError, match=match):
        AutoAxConfig(parameters=parameters)


def test_autoax_config_stores_parameters_as_a_tuple():
    assert AutoAxConfig(parameters=["power", "area"]).parameters == ("power", "area")
