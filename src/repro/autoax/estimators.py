"""QoR and hardware-cost estimators for AutoAx-FPGA.

AutoAx evaluates a random sample of configurations exactly, trains
estimators on that sample, and then lets the search explore the full design
space through the (cheap) estimators.  This module provides the feature
encoding of configurations and thin estimator wrappers around the
:mod:`repro.ml` regressors.  Fits run through the evaluation engine, which
caches them by model and training data like any exact evaluation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from ..engine import BatchEvaluator
from ..ml import Regressor, RandomForestRegressor, RidgeRegression, ScaledRegressor
from ..workloads import ApproxAccelerator, SlotConfiguration

if TYPE_CHECKING:
    from .search import EvaluatedConfiguration


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
    """Feature matrix of configurations, one row per configuration.

    Per slot the assigned component contributes its error (MED), LUT count,
    latency and power; slot-aggregated sums and maxima are appended so
    linear models can pick up the additive structure of the composed cost
    directly.  Per-component features are tabulated once and gathered by
    slot index, so a generation's matrix is a couple of NumPy gathers
    instead of ``population x slots`` attribute walks.
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


class _Estimator:
    """A regressor over :func:`configuration_feature_matrix` rows.

    The one fit/estimate implementation behind :class:`QorEstimator` and
    :class:`HwCostEstimator`, which differ only in their default model and
    in the measured value they learn (:meth:`_targets`).
    """

    model: Regressor

    def _targets(self, evaluated: Sequence["EvaluatedConfiguration"]) -> np.ndarray:
        raise NotImplementedError

    def fit(
        self,
        accelerator: ApproxAccelerator,
        evaluated: Sequence["EvaluatedConfiguration"],
        *,
        engine: BatchEvaluator,
    ) -> "_Estimator":
        """Fit on exactly evaluated configurations (at least two); returns ``self``.

        The fit runs through :meth:`engine.fit <repro.engine.BatchEvaluator.fit>`,
        so a fit on the same training data restores the cached model.
        """
        if len(evaluated) < 2:
            raise ValueError("need at least two training samples")
        features = configuration_feature_matrix(accelerator, [entry.config for entry in evaluated])
        self.model = engine.fit(self.model, features, self._targets(evaluated))
        return self

    def estimate_batch(
        self,
        accelerator: ApproxAccelerator,
        configs: Sequence[SlotConfiguration],
        features: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Estimates of ``configs`` in one ``predict`` call.

        Pass their precomputed ``features`` matrix to share feature
        extraction with other estimators scoring the same configurations.
        """
        if not configs:
            return np.empty(0, dtype=np.float64)
        if features is None:
            features = configuration_feature_matrix(accelerator, configs)
        return self.model.predict(features)

    def estimate_batch_with_std(
        self,
        accelerator: ApproxAccelerator,
        configs: Sequence[SlotConfiguration],
        features: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Estimates with the model's predictive standard deviation (zero for
        models without uncertainty, see :meth:`repro.ml.Regressor.predict_with_std`)."""
        if not configs:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64)
        if features is None:
            features = configuration_feature_matrix(accelerator, configs)
        return self.model.predict_with_std(features)


class QorEstimator(_Estimator):
    """Estimates the quality (SSIM) of a configuration."""

    def __init__(self):
        self.model = RandomForestRegressor(n_estimators=40, max_depth=8)

    def _targets(self, evaluated: Sequence["EvaluatedConfiguration"]) -> np.ndarray:
        return np.array([entry.quality for entry in evaluated])


class HwCostEstimator(_Estimator):
    """Estimates one FPGA cost parameter of a configuration."""

    def __init__(self, parameter: str):
        self.parameter = parameter
        self.model = ScaledRegressor(RidgeRegression(alpha=1.0))

    def _targets(self, evaluated: Sequence["EvaluatedConfiguration"]) -> np.ndarray:
        return np.array([entry.cost[self.parameter] for entry in evaluated])
