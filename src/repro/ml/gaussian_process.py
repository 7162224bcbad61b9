"""Gaussian process regression (ML8) with an RBF kernel and white noise."""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import linalg

from .base import Regressor
from .kernel import rbf_kernel


class GaussianProcessRegressor(Regressor):
    """GP regression with a fixed-form RBF kernel and a small length-scale search.

    The posterior mean/variance follow the standard cholesky formulation
    (Rasmussen & Williams, Alg. 2.1).  Rather than full marginal-likelihood
    optimisation, the length scale is selected from a small grid by the log
    marginal likelihood -- enough to adapt to the feature scales used here
    while keeping the model cheap, in line with the paper's "light-weight
    models" framing.
    """

    def __init__(
        self,
        noise: float = 1e-2,
        length_scales: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0),
        signal_variance: float = 1.0,
    ):
        super().__init__()
        if noise <= 0:
            raise ValueError("noise must be positive")
        self.noise = noise
        self.length_scales = tuple(length_scales)
        self.signal_variance = signal_variance

    def _kernel(self, A: np.ndarray, B: np.ndarray, length_scale: float) -> np.ndarray:
        gamma = 1.0 / (2.0 * length_scale ** 2)
        return self.signal_variance * rbf_kernel(A, B, gamma=gamma)

    def _cholesky_with_jitter(self, K: np.ndarray) -> Tuple[np.ndarray, float]:
        """Lower Cholesky of ``K``, escalating diagonal jitter on failure.

        Degenerate training sets -- duplicate or near-duplicate rows, large
        feature magnitudes whose squared-distance computation cancels --
        can leave the kernel matrix numerically indefinite even though the
        white-noise term makes it PD in exact arithmetic.  Rather than
        crash, retry with exponentially growing diagonal jitter (relative
        to the kernel's own diagonal scale, from 1e-10 up to 1e-3); the
        amount actually used is recorded in ``jitter_``.
        """
        scale = float(np.mean(np.diag(K))) or 1.0
        for jitter in [0.0] + [scale * 10.0 ** -exponent for exponent in range(10, 2, -1)]:
            try:
                chol = linalg.cholesky(K + jitter * np.eye(K.shape[0]), lower=True)
            except linalg.LinAlgError:
                continue
            return chol, jitter
        raise linalg.LinAlgError(
            "kernel matrix is not positive definite even with maximum jitter; "
            "check the training data for non-finite or absurdly scaled features"
        )

    def _log_marginal_likelihood(self, X: np.ndarray, y: np.ndarray, length_scale: float) -> float:
        K = self._kernel(X, X, length_scale) + self.noise * np.eye(X.shape[0])
        try:
            chol, _ = self._cholesky_with_jitter(K)
        except linalg.LinAlgError:
            return -np.inf
        alpha = linalg.cho_solve((chol, True), y)
        return float(
            -0.5 * y @ alpha - np.sum(np.log(np.diag(chol))) - 0.5 * len(y) * np.log(2 * np.pi)
        )

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._y_mean = float(y.mean())
        centered = y - self._y_mean

        best_scale = self.length_scales[0]
        best_lml = -np.inf
        for scale in self.length_scales:
            lml = self._log_marginal_likelihood(X, centered, scale)
            if lml > best_lml:
                best_lml = lml
                best_scale = scale
        self.length_scale_ = best_scale

        K = self._kernel(X, X, best_scale) + self.noise * np.eye(X.shape[0])
        self._chol, self.jitter_ = self._cholesky_with_jitter(K)
        self._alpha = linalg.cho_solve((self._chol, True), centered)
        self._X_train = X.copy()

    def _predict(self, X: np.ndarray) -> np.ndarray:
        K_star = self._kernel(X, self._X_train, self.length_scale_)
        return K_star @ self._alpha + self._y_mean

    def predict_with_std(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation.

        Defined for every fit the model accepts, including the degenerate
        single-sample case: with one training point ``(x0, y0)`` the
        posterior mean interpolates between ``y0`` (at ``x0``) and the
        training mean (far away), while the standard deviation grows from
        ``~sqrt(noise)`` at ``x0`` to the prior
        ``sqrt(signal_variance + noise)`` far away.
        """
        X = self._check_input(X, "predict_with_std")
        mean = self._predict(X)
        K_star = self._kernel(X, self._X_train, self.length_scale_)
        v = linalg.solve_triangular(self._chol, K_star.T, lower=True)
        prior_var = self.signal_variance + self.noise
        variance = np.maximum(prior_var - np.sum(v ** 2, axis=0), 1e-12)
        return mean, np.sqrt(variance)
