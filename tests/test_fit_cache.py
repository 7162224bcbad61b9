"""The engine's ``fit`` domain: key completeness and exact restores.

A fitted surrogate is cached like an exact evaluation
(:meth:`repro.engine.BatchEvaluator.fit`), so its key must change with
every input that changes the fitted model -- a forest hyperparameter, the
ridge ``alpha``, target scaling, the model class, one feature value or one
target value -- and must stay the same under everything that leaves the
model alone: the engine's mode and worker count, the cache's capacity and
backend, and the workload whose samples produced the training data.  The
tenant is checked where tenants exist, in ``tests/test_service.py``.

Every fit returns the model restored from its payload, so the restore path
runs on every fit; these tests pin that it predicts byte for byte like a
plain ``fit``, also after a trip through a JSON file on disk.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autoax import HwCostEstimator, QorEstimator, random_search
from repro.engine import BatchEvaluator, EvalCache
from repro.io import ShardedJsonStore
from repro.ml import (
    GradientBoostingRegressor,
    RandomForestRegressor,
    RidgeRegression,
    ScaledRegressor,
)
from repro.workloads import build_workload

#: The QoR estimator's forest, spelled out knob by knob.
FOREST = dict(n_estimators=40, max_depth=8, min_samples_leaf=1, max_features=0.7, random_state=0)


class KeyLog(dict):
    """An in-memory cache backend that keeps every entry written through it."""

    def put(self, key, value):
        self[key] = value


def training_data(seed: int = 5, rows: int = 12):
    """An AutoAx-sized training set: 68 features with repeated values."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 10.0, size=(rows, 68)).round(1), rng.uniform(size=rows)


def serial_engine(**cache_kwargs) -> BatchEvaluator:
    return BatchEvaluator(cache=EvalCache(store=KeyLog(), **cache_kwargs), mode="serial")


def fit_keys(engine: BatchEvaluator) -> list:
    return sorted(key for key in engine.cache.store.keys() if key.startswith("fit:"))


def fit_key(model, X, y, engine=None) -> str:
    """The one ``fit`` key that fitting ``model`` on ``(X, y)`` writes."""
    engine = engine or serial_engine()
    engine.fit(model, X, y)
    [key] = fit_keys(engine)
    return key


def assert_predicts_like(restored, fitted, Q) -> None:
    assert restored.predict(Q).tobytes() == fitted.predict(Q).tobytes()
    for got, want in zip(restored.predict_with_std(Q), fitted.predict_with_std(Q)):
        assert got.tobytes() == want.tobytes()


# --------------------------------------------------------------------- #
# Inputs that change the fitted model change the key
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "knob, value",
    [
        ("n_estimators", 39),
        ("max_depth", 7),
        ("min_samples_leaf", 2),
        ("max_features", 0.5),
        ("random_state", 1),
    ],
)
def test_each_forest_hyperparameter_changes_the_key(knob, value):
    X, y = training_data()
    base = fit_key(RandomForestRegressor(**FOREST), X, y)
    assert fit_key(QorEstimator().model, X, y) == base
    assert fit_key(RandomForestRegressor(**dict(FOREST, **{knob: value})), X, y) != base


def test_ridge_alpha_target_scaling_and_model_class_change_the_key():
    X, y = training_data()
    base = fit_key(HwCostEstimator("area").model, X, y)
    assert fit_key(ScaledRegressor(RidgeRegression(alpha=1.0)), X, y) == base
    variants = [
        ScaledRegressor(RidgeRegression(alpha=0.5)),
        ScaledRegressor(RidgeRegression(alpha=1.0), scale_target=True),
        RidgeRegression(alpha=1.0),
    ]
    keys = [fit_key(model, X, y) for model in variants]
    assert base not in keys and len(set(keys)) == len(keys)


def test_one_feature_or_target_value_changes_the_key():
    X, y = training_data()
    model = HwCostEstimator("area").model
    base = fit_key(model, X, y)
    feature = X.copy()
    feature[3, 7] += 0.1
    target = y.copy()
    target[5] = np.nextafter(target[5], 2.0)
    assert fit_key(model, feature, y) != base
    assert fit_key(model, X, target) != base


# --------------------------------------------------------------------- #
# Inputs that leave the fitted model alone leave the key
# --------------------------------------------------------------------- #
def test_engine_mode_workers_capacity_and_backend_leave_the_key(tmp_path):
    X, y = training_data()
    Q, _ = training_data(seed=6, rows=20)
    for model in (QorEstimator().model, HwCostEstimator("area").model):
        base = fit_key(model, X, y)
        fitted = model.clone().fit(X, y)
        engines = {
            "process": BatchEvaluator(
                cache=EvalCache(store=KeyLog()), mode="process", max_workers=2
            ),
            "one worker": BatchEvaluator(
                cache=EvalCache(store=KeyLog()), mode="auto", max_workers=1
            ),
            "capacity 1": serial_engine(capacity=1),
            "sharded store": BatchEvaluator(
                cache=EvalCache(store=ShardedJsonStore(tmp_path / type(model).__name__)),
                mode="serial",
            ),
        }
        for name, engine in engines.items():
            restored = engine.fit(model, X, y)
            assert fit_keys(engine) == [base], name
            assert_predicts_like(restored, fitted, Q)


def test_two_workloads_with_equal_training_data_share_one_fit(autoax_searchables):
    gaussian = autoax_searchables.accelerator
    sharpen = build_workload("sharpen", gaussian.multipliers, gaussian.adders)
    assert sharpen.workload_token() != gaussian.workload_token()
    engine = serial_engine()
    samples = random_search(gaussian, autoax_searchables.images, 6, seed=1, engine=engine)
    QorEstimator().fit(gaussian, samples, engine=engine)
    before = engine.stats()
    QorEstimator().fit(sharpen, samples, engine=engine)
    assert engine.stats().since(before).misses == 0
    assert len(fit_keys(engine)) == 1


# --------------------------------------------------------------------- #
# Restores are exact
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("scale_target", [False, True])
def test_scaled_ridge_restored_from_a_disk_store_predicts_byte_equal(tmp_path, scale_target):
    X, y = training_data()
    Q, _ = training_data(seed=6, rows=20)
    model = ScaledRegressor(RidgeRegression(), scale_target=scale_target)
    BatchEvaluator(cache=EvalCache(store=ShardedJsonStore(tmp_path)), mode="serial").fit(
        model, X, y
    )
    warm = BatchEvaluator(cache=EvalCache(store=ShardedJsonStore(tmp_path)), mode="serial")
    restored = warm.fit(model, X, y)
    assert (warm.stats().disk_hits, warm.stats().misses) == (1, 0)
    assert not model._fitted  # the engine fits a clone
    assert_predicts_like(restored, model.clone().fit(X, y), Q)


def test_payload_needs_a_fitted_model_with_a_payload():
    X, y = training_data()
    with pytest.raises(RuntimeError, match="must be fitted"):
        RidgeRegression().to_payload()
    with pytest.raises(NotImplementedError, match="no fitted-state payload"):
        BatchEvaluator(mode="serial").fit(GradientBoostingRegressor(n_estimators=2), X, y)
