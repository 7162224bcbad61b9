"""Feature preprocessing transformers."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .base import Regressor, check_array


class StandardScaler:
    """Zero-mean, unit-variance feature scaling (constant features left at 0)."""

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = check_array(X)
        self.mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.scale_ = scale
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = check_array(X)
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def inverse_transform(self, X: np.ndarray) -> np.ndarray:
        X = check_array(X)
        return X * self.scale_ + self.mean_


class MinMaxScaler:
    """Scale features to the [0, 1] range (constant features map to 0)."""

    def fit(self, X: np.ndarray) -> "MinMaxScaler":
        X = check_array(X)
        self.min_ = X.min(axis=0)
        span = X.max(axis=0) - self.min_
        span[span == 0.0] = 1.0
        self.span_ = span
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = check_array(X)
        return (X - self.min_) / self.span_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


class ScaledRegressor(Regressor):
    """Wraps a regressor with input standardisation (and optional target scaling).

    Several models in the zoo (SGD, MLP, kernel methods) are sensitive to
    feature scales; wrapping them keeps the zoo's public interface uniform.
    """

    def __init__(self, inner: Regressor, scale_target: bool = False):
        super().__init__()
        self.inner = inner
        self.scale_target = scale_target
        self._scaler: Optional[StandardScaler] = None

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._scaler = StandardScaler().fit(X)
        X_scaled = self._scaler.transform(X)
        if self.scale_target:
            self._y_mean = float(y.mean())
            self._y_scale = float(y.std()) or 1.0
            y = (y - self._y_mean) / self._y_scale
        self.inner.fit(X_scaled, y)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        predictions = self.inner.predict(self._scaler.transform(X))
        if self.scale_target:
            predictions = predictions * self._y_scale + self._y_mean
        return predictions

    def predict_with_std(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Mean/std forwarded from the inner model, in target units."""
        X = self._check_input(X, "predict_with_std")
        mean, std = self.inner.predict_with_std(self._scaler.transform(X))
        if self.scale_target:
            mean = mean * self._y_scale + self._y_mean
            std = std * self._y_scale
        return mean, std

    def _state(self) -> dict:
        state = {
            "mean": self._scaler.mean_.tolist(),
            "scale": self._scaler.scale_.tolist(),
            "inner": self.inner.to_payload(),
        }
        if self.scale_target:
            state["target"] = [self._y_mean, self._y_scale]
        return state

    def _restore(self, state: dict) -> None:
        self._scaler = StandardScaler()
        self._scaler.mean_ = np.array(state["mean"], dtype=np.float64)
        self._scaler.scale_ = np.array(state["scale"], dtype=np.float64)
        self.inner = self.inner.restored(state["inner"])
        if self.scale_target:
            self._y_mean, self._y_scale = (float(value) for value in state["target"])


class FeatureSubsetRegressor(Regressor):
    """Restricts a regressor to a subset of feature columns.

    Used to implement the paper's ML1-ML3 ("regression w.r.t. the ASIC
    power/latency/area"), which predict an FPGA parameter from a single ASIC
    parameter.
    """

    def __init__(self, inner: Regressor, feature_indices):
        super().__init__()
        self.inner = inner
        self.feature_indices = tuple(int(i) for i in feature_indices)

    def _select(self, X: np.ndarray) -> np.ndarray:
        for index in self.feature_indices:
            if index >= X.shape[1]:
                raise ValueError(
                    f"feature index {index} out of range for {X.shape[1]} features"
                )
        return X[:, list(self.feature_indices)]

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.inner.fit(self._select(X), y)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return self.inner.predict(self._select(X))
