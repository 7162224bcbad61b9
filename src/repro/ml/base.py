"""Base classes and input validation for the S/ML model library.

scikit-learn is not available in the offline reproduction environment, so
:mod:`repro.ml` implements the Table I models from scratch on top of NumPy.
The interface intentionally mirrors scikit-learn's ``fit`` / ``predict``
regressor contract so the methodology code reads the same as the paper's
description.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Tuple

import numpy as np


def check_array(X: np.ndarray, name: str = "X") -> np.ndarray:
    """Coerce to a 2-D float array and reject NaN/inf."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{name} contains NaN or infinite values")
    return X


def check_X_y(X: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a feature matrix / target vector pair."""
    X = check_array(X, "X")
    y = np.asarray(y, dtype=np.float64).ravel()
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains NaN or infinite values")
    if X.shape[0] != y.shape[0]:
        raise ValueError(
            f"X and y have inconsistent sample counts: {X.shape[0]} vs {y.shape[0]}"
        )
    if X.shape[0] == 0:
        raise ValueError("cannot fit a model on zero samples")
    return X, y


class Regressor:
    """Base class of every regression model in the zoo.

    Subclasses implement ``_fit`` and ``_predict``; the public ``fit`` /
    ``predict`` wrappers handle validation and bookkeeping.
    """

    def __init__(self) -> None:
        self.n_features_in_: Optional[int] = None
        self._fitted = False

    # -- public API ----------------------------------------------------- #
    def fit(self, X: np.ndarray, y: np.ndarray) -> "Regressor":
        """Fit the model to training data and return ``self``."""
        X, y = check_X_y(X, y)
        self.n_features_in_ = X.shape[1]
        self._fit(X, y)
        self._fitted = True
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for ``X``."""
        X = self._check_input(X, "predict")
        return np.asarray(self._predict(X), dtype=np.float64).ravel()

    def predict_with_std(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Predictive mean and standard deviation for ``X``.

        The mean is always :meth:`predict`.  Models without predictive
        uncertainty report zero standard deviation -- deterministic
        predictions, not an error -- so uncertainty-aware consumers (the
        EHVI acquisition in :mod:`repro.search.multifidelity`) treat every
        model uniformly; Gaussian processes and forests override this with
        their own spread.
        """
        mean = self.predict(X)
        return mean, np.zeros_like(mean)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Coefficient of determination R^2 on the given data."""
        from .metrics import r2_score

        return r2_score(np.asarray(y, dtype=np.float64).ravel(), self.predict(X))

    def clone(self) -> "Regressor":
        """Unfitted deep copy with the same hyper-parameters."""
        fresh = copy.deepcopy(self)
        fresh._fitted = False
        fresh.n_features_in_ = None
        return fresh

    def get_params(self) -> Dict[str, object]:
        """Hyper-parameters (public constructor-style attributes)."""
        return {
            key: value
            for key, value in vars(self).items()
            if not key.startswith("_") and not key.endswith("_")
        }

    def to_payload(self) -> dict:
        """JSON-able payload of the fitted state, restored by :meth:`restored`.

        Arrays are stored as lists of Python ints and floats.  JSON writes a
        float as its ``repr``, which reads back as the same float64, so a
        model restored from the payload -- also after a trip through a JSON
        file -- predicts byte for byte like the fitted one.  Hyper-parameters
        are not part of the payload: they live on the model it is restored
        into.  Models that support this implement :meth:`_state` and
        :meth:`_restore`.
        """
        self._require_fitted("to_payload")
        return {"n_features_in": self.n_features_in_, "state": self._state()}

    def restored(self, payload: dict) -> "Regressor":
        """A fitted copy of this model holding the state of a :meth:`to_payload` payload."""
        model = self.clone()
        model._restore(payload["state"])
        model.n_features_in_ = int(payload["n_features_in"])
        model._fitted = True
        return model

    def _require_fitted(self, method: str) -> None:
        if not self._fitted:
            raise RuntimeError(f"{type(self).__name__} must be fitted before calling {method}()")

    def _check_input(self, X: np.ndarray, method: str) -> np.ndarray:
        """``X`` as a 2-D float array of the fitted width; the check of every predict path."""
        self._require_fitted(method)
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"{type(self).__name__} was fitted with {self.n_features_in_} features, "
                f"got {X.shape[1]}"
            )
        return X

    # -- subclass hooks -------------------------------------------------- #
    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        raise NotImplementedError

    def _predict(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _state(self) -> dict:
        """JSON-able fitted state (the ``state`` of :meth:`to_payload`)."""
        raise NotImplementedError(f"{type(self).__name__} has no fitted-state payload")

    def _restore(self, state: dict) -> None:
        """Set the fitted state from :meth:`_state`'s output."""
        raise NotImplementedError(f"{type(self).__name__} has no fitted-state payload")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({params})"


class MeanRegressor(Regressor):
    """Predicts the training mean; the baseline every real model must beat."""

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.mean_ = float(y.mean())

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], self.mean_)
