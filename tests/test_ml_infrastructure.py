"""Tests of ML metrics, preprocessing, validation utilities and the model zoo."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import FEATURE_NAMES
from repro.ml import (
    ASIC_FEATURE_FOR_MODEL,
    MODEL_DESCRIPTIONS,
    MODELS,
    FeatureSubsetRegressor,
    LinearRegression,
    MinMaxScaler,
    ModelZooError,
    StandardScaler,
    build_model,
    build_model_zoo,
    check_X_y,
    cross_val_score,
    k_fold_indices,
    mean_absolute_error,
    mean_squared_error,
    pearson_correlation,
    r2_score,
    spearman_correlation,
    train_test_split,
)


def test_metric_values_on_known_vectors():
    y_true = np.array([1.0, 2.0, 3.0, 4.0])
    y_pred = np.array([1.0, 2.0, 3.0, 5.0])
    assert mean_squared_error(y_true, y_pred) == pytest.approx(0.25)
    assert mean_absolute_error(y_true, y_pred) == pytest.approx(0.25)
    assert r2_score(y_true, y_true) == 1.0
    assert pearson_correlation(y_true, y_pred) > 0.95
    assert spearman_correlation(y_true, y_pred) == pytest.approx(1.0)


def test_r2_of_mean_prediction_is_zero():
    y = np.array([1.0, 2.0, 3.0])
    assert r2_score(y, np.full(3, 2.0)) == pytest.approx(0.0)


def test_correlation_of_constant_vector_is_zero():
    assert pearson_correlation(np.ones(5), np.arange(5)) == 0.0


@settings(max_examples=40)
@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=2, max_size=40))
def test_spearman_invariant_to_monotone_transform(values):
    y = np.array(values, dtype=np.float64) * 0.1
    # A strictly monotone affine transform preserves all ranks exactly.
    transformed = 2.0 * y + 5.0
    if np.all(y == y[0]):
        assert spearman_correlation(y, transformed) == 0.0
    else:
        assert spearman_correlation(y, transformed) == pytest.approx(1.0, abs=1e-9)


def test_spearman_detects_nonlinear_monotone_relation():
    y = np.array([1.0, 2.0, 5.0, 9.0])
    assert spearman_correlation(y, np.exp(y)) == pytest.approx(1.0)


def test_check_x_y_rejects_bad_input():
    with pytest.raises(ValueError):
        check_X_y(np.array([[1.0], [np.nan]]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        check_X_y(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        check_X_y(np.zeros((0, 2)), np.zeros(0))


def test_standard_scaler_roundtrip():
    rng = np.random.default_rng(0)
    X = rng.normal(3.0, 2.0, size=(50, 4))
    scaler = StandardScaler()
    Z = scaler.fit_transform(X)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)
    assert np.allclose(scaler.inverse_transform(Z), X)


def test_standard_scaler_handles_constant_feature():
    X = np.column_stack([np.ones(10), np.arange(10)])
    Z = StandardScaler().fit_transform(X)
    assert np.all(np.isfinite(Z))


def test_minmax_scaler_range():
    X = np.random.default_rng(1).uniform(-5, 5, size=(30, 3))
    Z = MinMaxScaler().fit_transform(X)
    assert Z.min() >= 0.0 and Z.max() <= 1.0


def test_feature_subset_regressor_uses_only_selected_columns():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(100, 5))
    y = 4.0 * X[:, 2] + 1.0
    model = FeatureSubsetRegressor(LinearRegression(), [2]).fit(X, y)
    # Changing other columns must not affect predictions.
    X_altered = X.copy()
    X_altered[:, 0] = 99.0
    assert np.allclose(model.predict(X), model.predict(X_altered))


def test_train_test_split_sizes_and_disjointness():
    X = np.arange(100).reshape(-1, 1).astype(float)
    y = np.arange(100).astype(float)
    X_train, X_test, y_train, y_test = train_test_split(X, y, test_size=0.2, random_state=1)
    assert len(X_test) == 20 and len(X_train) == 80
    assert set(y_train.tolist()).isdisjoint(y_test.tolist())
    with pytest.raises(ValueError):
        train_test_split(X, y, test_size=1.5)


def test_k_fold_partitions_all_samples():
    folds = list(k_fold_indices(23, n_splits=4, random_state=0))
    assert len(folds) == 4
    all_test = np.concatenate([test for _, test in folds])
    assert sorted(all_test.tolist()) == list(range(23))
    for train, test in folds:
        assert set(train.tolist()).isdisjoint(test.tolist())


def test_cross_val_score_reasonable_for_linear_data():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 3))
    y = X @ np.array([1.0, 2.0, -1.0]) + 0.01 * rng.normal(size=60)
    scores = cross_val_score(LinearRegression(), X, y, n_splits=5)
    assert len(scores) == 5
    assert min(scores) > 0.95


# --------------------------------------------------------------------- #
def test_model_zoo_has_all_18_models():
    assert len(MODELS) == 18
    assert set(MODEL_DESCRIPTIONS) == set(MODELS)
    zoo = build_model_zoo(FEATURE_NAMES)
    assert set(zoo) == set(MODELS)


def test_every_zoo_model_fits_and_predicts():
    """Every model also answers ``predict_with_std``: the mean is its
    ``predict`` bit for bit, the std non-negative (zero without predictive
    uncertainty)."""
    rng = np.random.default_rng(7)
    X = rng.uniform(1, 10, size=(40, len(FEATURE_NAMES)))
    y = X[:, -3] * 2.0 + rng.normal(0, 0.1, 40)
    for model_id in MODELS:
        model = build_model(model_id, FEATURE_NAMES, random_state=0)
        model.fit(X, y)
        predictions = model.predict(X)
        assert predictions.shape == (40,)
        assert np.all(np.isfinite(predictions)), model_id
        mean, std = model.predict_with_std(X)
        np.testing.assert_array_equal(mean, predictions, err_msg=model_id)
        assert std.shape == (40,) and np.all(std >= 0.0), model_id


def test_asic_regression_models_use_single_feature():
    for model_id, feature_name in ASIC_FEATURE_FOR_MODEL.items():
        model = build_model(model_id, FEATURE_NAMES)
        assert isinstance(model, FeatureSubsetRegressor)
        assert model.feature_indices == (list(FEATURE_NAMES).index(feature_name),)


def test_model_zoo_rejects_unknown_ids():
    with pytest.raises(ModelZooError):
        build_model("ML99", FEATURE_NAMES)
    with pytest.raises(ModelZooError):
        build_model_zoo(FEATURE_NAMES, include=["ML1", "bogus"])


def test_asic_models_require_asic_features():
    with pytest.raises(ModelZooError):
        build_model("ML1", ["num_gates", "depth"])
