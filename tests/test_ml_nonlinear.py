"""Tests of the non-linear models: kernels, GP, PLS, KNN, trees, ensembles, MLP, GP symbolic."""

import numpy as np
import pytest

from repro.ml import (
    AdaBoostRegressor,
    DecisionTreeRegressor,
    GaussianProcessRegressor,
    GradientBoostingRegressor,
    KernelRidge,
    KNeighborsRegressor,
    MLPRegressor,
    PLSRegression,
    RandomForestRegressor,
    ScaledRegressor,
    SymbolicRegressor,
    r2_score,
    rbf_kernel,
)


def make_nonlinear_data(n=120, seed=0, noise=0.05):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 2))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2 + noise * rng.normal(0, 1, n)
    return X, y


def test_rbf_kernel_properties():
    A = np.random.default_rng(0).normal(size=(10, 3))
    K = rbf_kernel(A, A, gamma=0.5)
    assert np.allclose(np.diag(K), 1.0)
    assert np.allclose(K, K.T)
    assert np.all((K >= 0) & (K <= 1 + 1e-12))


def test_kernel_ridge_fits_nonlinear_function():
    X, y = make_nonlinear_data()
    model = ScaledRegressor(KernelRidge(alpha=0.05, kernel="rbf"), scale_target=True).fit(X, y)
    assert r2_score(y, model.predict(X)) > 0.9


def test_kernel_ridge_rejects_bad_alpha():
    with pytest.raises(ValueError):
        KernelRidge(alpha=0.0)


def test_gaussian_process_interpolates_training_points():
    X, y = make_nonlinear_data(n=60, noise=0.0)
    model = ScaledRegressor(GaussianProcessRegressor(noise=1e-4), scale_target=True).fit(X, y)
    assert r2_score(y, model.predict(X)) > 0.98


def test_gaussian_process_std_positive():
    X, y = make_nonlinear_data(n=40)
    gp = GaussianProcessRegressor(noise=1e-3).fit(X, y)
    mean, std = gp.predict_with_std(X[:5])
    assert mean.shape == (5,)
    assert np.all(std > 0)


def test_pls_regression_matches_linear_structure():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(100, 6))
    y = X[:, 0] * 2 - X[:, 1] + 0.01 * rng.normal(size=100)
    model = PLSRegression(n_components=3).fit(X, y)
    assert model.score(X, y) > 0.98
    assert model.n_components_ <= 3


def test_pls_rejects_bad_components():
    with pytest.raises(ValueError):
        PLSRegression(n_components=0)


def test_knn_exact_on_training_points_with_distance_weights():
    X, y = make_nonlinear_data(n=50, noise=0.0)
    model = KNeighborsRegressor(n_neighbors=3, weights="distance").fit(X, y)
    assert r2_score(y, model.predict(X)) > 0.99


def test_knn_validates_parameters():
    with pytest.raises(ValueError):
        KNeighborsRegressor(n_neighbors=0)
    with pytest.raises(ValueError):
        KNeighborsRegressor(weights="other")


def test_decision_tree_fits_step_function():
    X = np.linspace(0, 1, 100).reshape(-1, 1)
    y = (X[:, 0] > 0.5).astype(float)
    model = DecisionTreeRegressor(max_depth=3, min_samples_leaf=1).fit(X, y)
    assert r2_score(y, model.predict(X)) > 0.99
    assert model.depth() <= 3


def test_decision_tree_respects_max_depth():
    X, y = make_nonlinear_data(n=200)
    shallow = DecisionTreeRegressor(max_depth=2).fit(X, y)
    deep = DecisionTreeRegressor(max_depth=8).fit(X, y)
    assert shallow.depth() <= 2
    assert r2_score(y, deep.predict(X)) > r2_score(y, shallow.predict(X))


def test_random_forest_beats_constant_baseline():
    X, y = make_nonlinear_data(n=150)
    model = RandomForestRegressor(n_estimators=20, max_depth=6, random_state=1).fit(X, y)
    assert r2_score(y, model.predict(X)) > 0.8


def test_random_forest_deterministic_for_seed():
    X, y = make_nonlinear_data(n=80)
    first = RandomForestRegressor(n_estimators=10, random_state=5).fit(X, y).predict(X)
    second = RandomForestRegressor(n_estimators=10, random_state=5).fit(X, y).predict(X)
    assert np.allclose(first, second)


def test_gradient_boosting_training_error_decreases_with_stages():
    X, y = make_nonlinear_data(n=150)
    few = GradientBoostingRegressor(n_estimators=5, random_state=2).fit(X, y)
    many = GradientBoostingRegressor(n_estimators=100, random_state=2).fit(X, y)
    assert r2_score(y, many.predict(X)) > r2_score(y, few.predict(X))


def test_adaboost_fits_reasonably():
    X, y = make_nonlinear_data(n=150)
    model = AdaBoostRegressor(n_estimators=25, max_depth=4, random_state=3).fit(X, y)
    assert r2_score(y, model.predict(X)) > 0.7
    assert len(model.estimators_) >= 1


def test_mlp_learns_smooth_function():
    X, y = make_nonlinear_data(n=200, noise=0.02)
    model = ScaledRegressor(
        MLPRegressor(hidden_layer_sizes=(32, 16), max_iter=200, random_state=4),
        scale_target=True,
    ).fit(X, y)
    assert r2_score(y, model.predict(X)) > 0.85


def test_mlp_rejects_empty_hidden_layers():
    with pytest.raises(ValueError):
        MLPRegressor(hidden_layer_sizes=())


def test_symbolic_regression_recovers_simple_relation():
    rng = np.random.default_rng(9)
    X = rng.uniform(-1, 1, size=(80, 2))
    y = X[:, 0] + X[:, 1]
    model = SymbolicRegressor(population_size=60, generations=15, random_state=1).fit(X, y)
    assert r2_score(y, model.predict(X)) > 0.7
    assert isinstance(model.expression_string(["a", "b"]), str)


def test_ensembles_validate_parameters():
    with pytest.raises(ValueError):
        RandomForestRegressor(n_estimators=0)
    with pytest.raises(ValueError):
        GradientBoostingRegressor(subsample=0.0)
    # A feature fraction outside (0, 1] used to grow every split from one
    # feature (<= 0) or fail inside fit (> 1); a leaf size below 1 was kept.
    for bad in (-0.5, 0.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="max_features"):
            DecisionTreeRegressor(max_features=bad)
        with pytest.raises(ValueError, match="max_features"):
            RandomForestRegressor(max_features=bad)
    with pytest.raises(ValueError, match="max_features"):
        RandomForestRegressor(max_features=None)
    for bad in (0, -2):
        for model in (DecisionTreeRegressor, RandomForestRegressor, GradientBoostingRegressor):
            with pytest.raises(ValueError, match="min_samples_leaf"):
                model(min_samples_leaf=bad)
    DecisionTreeRegressor(max_features=None, min_samples_leaf=1)
    RandomForestRegressor(max_features=1.0, min_samples_leaf=1)
    GradientBoostingRegressor(min_samples_leaf=1)
