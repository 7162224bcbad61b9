"""QoR and hardware-cost estimators for AutoAx-FPGA.

AutoAx evaluates a random sample of configurations exactly, trains
estimators on that sample, and then lets the search explore the full design
space through the (cheap) estimators.  This module provides the feature
encoding of a configuration and thin estimator wrappers around the
:mod:`repro.ml` regressors.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ml import Regressor, RandomForestRegressor, RidgeRegression, ScaledRegressor
from ..workloads import ApproxAccelerator, SlotConfiguration


def configuration_features(
    accelerator: ApproxAccelerator, config: SlotConfiguration
) -> np.ndarray:
    """Numeric feature vector of a configuration.

    Per slot the assigned component contributes its error (MED), LUT count,
    latency and power; slot-aggregated sums are appended so linear models can
    pick up the additive structure of the composed cost directly.
    """
    per_slot: List[float] = []
    for index in config.multiplier_indices:
        component = accelerator.multipliers[index]
        per_slot.extend(
            [
                component.error.med,
                component.fpga.area_luts,
                component.fpga.latency_ns,
                component.fpga.total_power_mw,
            ]
        )
    for index in config.adder_indices:
        component = accelerator.adders[index]
        per_slot.extend(
            [
                component.error.med,
                component.fpga.area_luts,
                component.fpga.latency_ns,
                component.fpga.total_power_mw,
            ]
        )
    values = np.asarray(per_slot, dtype=np.float64)
    grouped = values.reshape(-1, 4)
    aggregates = np.concatenate([grouped.sum(axis=0), grouped.max(axis=0)])
    return np.concatenate([values, aggregates])


def _component_feature_table(components) -> np.ndarray:
    """(num_components, 4) table of the per-slot features of each component."""
    return np.array(
        [
            [
                component.error.med,
                component.fpga.area_luts,
                component.fpga.latency_ns,
                component.fpga.total_power_mw,
            ]
            for component in components
        ],
        dtype=np.float64,
    )


def configuration_feature_matrix(
    accelerator: ApproxAccelerator, configs: Sequence[SlotConfiguration]
) -> np.ndarray:
    """Stacked feature matrix of a whole population of configurations.

    The population path is fully vectorised: per-component features are
    tabulated once and gathered by slot index for every configuration, so
    building a generation's matrix is a couple of NumPy gathers instead of
    ``population x slots`` Python-level attribute walks -- and the single
    ``predict`` call per generation amortises the regressors' call
    overhead.  Population strategies score generations through this path
    (see ``estimate_batch``); per-configuration scoring keeps using
    :func:`configuration_features` (same features up to summation order).
    """
    if not configs:
        return np.empty((0, 0), dtype=np.float64)
    multiplier_table = _component_feature_table(accelerator.multipliers)
    adder_table = _component_feature_table(accelerator.adders)
    multiplier_indices = np.array([config.multiplier_indices for config in configs])
    adder_indices = np.array([config.adder_indices for config in configs])
    # (population, slots, 4) gathers, flattened to the per-slot layout.
    grouped = np.concatenate(
        [multiplier_table[multiplier_indices], adder_table[adder_indices]], axis=1
    )
    values = grouped.reshape(len(configs), -1)
    aggregates = np.concatenate([grouped.sum(axis=1), grouped.max(axis=1)], axis=1)
    return np.concatenate([values, aggregates], axis=1)


@dataclass
class TrainingSample:
    """One exactly-evaluated configuration."""

    config: SlotConfiguration
    features: np.ndarray
    quality: float
    cost: Dict[str, float]


def _batch_with_std(
    model: Regressor, features: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(mean, std) predictions, with zero std for uncertainty-free models.

    Models exposing ``predict_with_std`` (Gaussian processes, forests,
    their :class:`~repro.ml.ScaledRegressor` wrappers) report their own
    predictive uncertainty; anything else is treated as deterministic.
    Uncertainty-aware consumers (the EHVI acquisition in
    :mod:`repro.search.multifidelity`) thus work with *any* estimator
    model, degrading gracefully to point predictions.
    """
    with_std = getattr(model, "predict_with_std", None)
    if with_std is not None:
        mean, std = with_std(features)
        return (
            np.asarray(mean, dtype=np.float64).ravel(),
            np.asarray(std, dtype=np.float64).ravel(),
        )
    mean = np.asarray(model.predict(features), dtype=np.float64).ravel()
    return mean, np.zeros_like(mean)


def _fresh_cache_token(prefix: str) -> str:
    """Globally unique token versioning one estimator state.

    Cached estimates (see :func:`repro.autoax.search.hill_climb_pareto`) are
    keyed by this token, so they can never be served across different
    estimator instances or fits -- including across processes sharing a
    disk-backed cache, which is why this is a UUID and not a counter.
    """
    return f"{prefix}-{uuid.uuid4().hex}"


class QorEstimator:
    """Estimates the SSIM of a configuration from its feature vector."""

    def __init__(self, model: Optional[Regressor] = None):
        self.model = model or RandomForestRegressor(n_estimators=40, max_depth=8)
        self.cache_token = _fresh_cache_token("qor")

    def fit(self, samples: Sequence[TrainingSample]) -> "QorEstimator":
        X = np.vstack([sample.features for sample in samples])
        y = np.array([sample.quality for sample in samples])
        self.model.fit(X, y)
        self.cache_token = _fresh_cache_token("qor")
        return self

    def estimate(self, accelerator: ApproxAccelerator, config: SlotConfiguration) -> float:
        features = configuration_features(accelerator, config).reshape(1, -1)
        return float(self.model.predict(features)[0])

    def estimate_batch(
        self,
        accelerator: ApproxAccelerator,
        configs: Sequence[SlotConfiguration],
        features: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """SSIM estimates for a whole population in one ``predict`` call.

        Pass a precomputed ``features`` matrix to share feature extraction
        with other estimators scoring the same population.
        """
        if not configs:
            return np.empty(0, dtype=np.float64)
        if features is None:
            features = configuration_feature_matrix(accelerator, configs)
        return np.asarray(self.model.predict(features), dtype=np.float64)

    def estimate_batch_with_std(
        self,
        accelerator: ApproxAccelerator,
        configs: Sequence[SlotConfiguration],
        features: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Population estimates with predictive uncertainty (see ``_batch_with_std``)."""
        if not configs:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64)
        if features is None:
            features = configuration_feature_matrix(accelerator, configs)
        return _batch_with_std(self.model, features)


class HwCostEstimator:
    """Estimates one FPGA cost parameter of a configuration."""

    def __init__(self, parameter: str, model: Optional[Regressor] = None):
        self.parameter = parameter
        self.model = model or ScaledRegressor(RidgeRegression(alpha=1.0))
        self.cache_token = _fresh_cache_token(f"hw-{parameter}")

    def fit(self, samples: Sequence[TrainingSample]) -> "HwCostEstimator":
        X = np.vstack([sample.features for sample in samples])
        y = np.array([sample.cost[self.parameter] for sample in samples])
        self.model.fit(X, y)
        self.cache_token = _fresh_cache_token(f"hw-{self.parameter}")
        return self

    def estimate(self, accelerator: ApproxAccelerator, config: SlotConfiguration) -> float:
        features = configuration_features(accelerator, config).reshape(1, -1)
        return float(self.model.predict(features)[0])

    def estimate_batch(
        self,
        accelerator: ApproxAccelerator,
        configs: Sequence[SlotConfiguration],
        features: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Cost estimates for a whole population in one ``predict`` call.

        Pass a precomputed ``features`` matrix to share feature extraction
        with other estimators scoring the same population.
        """
        if not configs:
            return np.empty(0, dtype=np.float64)
        if features is None:
            features = configuration_feature_matrix(accelerator, configs)
        return np.asarray(self.model.predict(features), dtype=np.float64)

    def estimate_batch_with_std(
        self,
        accelerator: ApproxAccelerator,
        configs: Sequence[SlotConfiguration],
        features: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Population estimates with predictive uncertainty (see ``_batch_with_std``)."""
        if not configs:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64)
        if features is None:
            features = configuration_feature_matrix(accelerator, configs)
        return _batch_with_std(self.model, features)
