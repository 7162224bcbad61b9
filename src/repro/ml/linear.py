"""Linear regression models: OLS, Ridge, Bayesian Ridge, Lasso, LARS and SGD.

These cover the statistical half of Table I (ML1-ML3 are single-feature OLS
regressions built from :class:`LinearRegression` by the model zoo; ML11-ML15
are the regularised / iterative linear variants).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import Regressor


def _add_intercept(X: np.ndarray) -> np.ndarray:
    return np.hstack([np.ones((X.shape[0], 1)), X])


class LinearRegression(Regressor):
    """Ordinary least squares via the pseudo-inverse (numerically via lstsq)."""

    def __init__(self, fit_intercept: bool = True):
        super().__init__()
        self.fit_intercept = fit_intercept

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        design = _add_intercept(X) if self.fit_intercept else X
        coefficients, *_ = np.linalg.lstsq(design, y, rcond=None)
        if self.fit_intercept:
            self.intercept_ = float(coefficients[0])
            self.coef_ = coefficients[1:]
        else:
            self.intercept_ = 0.0
            self.coef_ = coefficients

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.coef_ + self.intercept_


class RidgeRegression(Regressor):
    """L2-regularised least squares (closed form, intercept unpenalised)."""

    def __init__(self, alpha: float = 1.0):
        super().__init__()
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        x_mean = X.mean(axis=0)
        y_mean = float(y.mean())
        Xc = X - x_mean
        yc = y - y_mean
        gram = Xc.T @ Xc + self.alpha * np.eye(X.shape[1])
        self.coef_ = np.linalg.solve(gram, Xc.T @ yc)
        self.intercept_ = y_mean - float(x_mean @ self.coef_)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.coef_ + self.intercept_

    def _state(self) -> dict:
        return {"coef": self.coef_.tolist(), "intercept": self.intercept_}

    def _restore(self, state: dict) -> None:
        self.coef_ = np.array(state["coef"], dtype=np.float64)
        self.intercept_ = float(state["intercept"])


class BayesianRidgeRegression(Regressor):
    """Bayesian ridge regression with evidence-approximation hyper-parameter updates.

    Follows the classic MacKay / Tipping iterative scheme also used by
    scikit-learn: precision of the weights (``lambda``) and of the noise
    (``alpha``) are re-estimated from the data until convergence.
    """

    def __init__(
        self,
        max_iter: int = 300,
        tol: float = 1e-4,
        alpha_init: float = 1.0,
        lambda_init: float = 1.0,
    ):
        super().__init__()
        self.max_iter = max_iter
        self.tol = tol
        self.alpha_init = alpha_init
        self.lambda_init = lambda_init

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        n_samples, n_features = X.shape
        x_mean = X.mean(axis=0)
        y_mean = float(y.mean())
        Xc = X - x_mean
        yc = y - y_mean

        alpha = self.alpha_init  # noise precision
        lam = self.lambda_init   # weight precision
        XtX = Xc.T @ Xc
        Xty = Xc.T @ yc
        eye = np.eye(n_features)
        coef = np.zeros(n_features)

        for _ in range(self.max_iter):
            posterior_precision = alpha * XtX + lam * eye
            posterior_cov = np.linalg.inv(posterior_precision)
            new_coef = alpha * posterior_cov @ Xty

            gamma = float(n_features - lam * np.trace(posterior_cov))
            gamma = min(max(gamma, 1e-9), n_features)
            residual = float(np.sum((yc - Xc @ new_coef) ** 2))
            lam = gamma / max(float(new_coef @ new_coef), 1e-12)
            alpha = max(n_samples - gamma, 1e-9) / max(residual, 1e-12)

            if np.max(np.abs(new_coef - coef)) < self.tol:
                coef = new_coef
                break
            coef = new_coef

        self.coef_ = coef
        self.intercept_ = y_mean - float(x_mean @ coef)
        self.alpha_ = alpha
        self.lambda_ = lam

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.coef_ + self.intercept_


class LassoRegression(Regressor):
    """L1-regularised least squares solved by cyclic coordinate descent (ML12)."""

    def __init__(self, alpha: float = 0.01, max_iter: int = 1000, tol: float = 1e-6):
        super().__init__()
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha
        self.max_iter = max_iter
        self.tol = tol

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        n_samples, n_features = X.shape
        x_mean = X.mean(axis=0)
        y_mean = float(y.mean())
        Xc = X - x_mean
        yc = y - y_mean

        coef = np.zeros(n_features)
        column_norms = (Xc ** 2).sum(axis=0)
        residual = yc.copy()
        threshold = self.alpha * n_samples

        for _ in range(self.max_iter):
            max_update = 0.0
            for j in range(n_features):
                if column_norms[j] == 0.0:
                    continue
                residual += Xc[:, j] * coef[j]
                rho = float(Xc[:, j] @ residual)
                new_value = np.sign(rho) * max(abs(rho) - threshold, 0.0) / column_norms[j]
                residual -= Xc[:, j] * new_value
                max_update = max(max_update, abs(new_value - coef[j]))
                coef[j] = new_value
            if max_update < self.tol:
                break

        self.coef_ = coef
        self.intercept_ = y_mean - float(x_mean @ coef)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.coef_ + self.intercept_


class LeastAngleRegression(Regressor):
    """Least Angle Regression (LARS) with a bounded number of active features (ML13).

    Implements the standard LARS walk: at each step the feature most
    correlated with the residual joins the active set and the coefficients
    move along the equiangular direction until another feature ties.
    """

    def __init__(self, n_nonzero_coefs: Optional[int] = None):
        super().__init__()
        self.n_nonzero_coefs = n_nonzero_coefs

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        n_samples, n_features = X.shape
        x_mean = X.mean(axis=0)
        x_scale = X.std(axis=0)
        x_scale[x_scale == 0.0] = 1.0
        y_mean = float(y.mean())
        Xs = (X - x_mean) / x_scale
        yc = y - y_mean

        max_active = self.n_nonzero_coefs or min(n_features, max(1, n_samples - 1))
        coef = np.zeros(n_features)
        residual = yc.copy()
        active: list[int] = []

        for _ in range(max_active):
            correlations = Xs.T @ residual
            correlations[active] = 0.0
            candidate = int(np.argmax(np.abs(correlations)))
            if abs(correlations[candidate]) < 1e-12:
                break
            active.append(candidate)

            # Least-squares fit restricted to the active set (LARS step limit
            # collapsed to the full OLS step, i.e. the LARS/OLS hybrid).
            Xa = Xs[:, active]
            sub_coef, *_ = np.linalg.lstsq(Xa, yc, rcond=None)
            coef = np.zeros(n_features)
            coef[active] = sub_coef
            residual = yc - Xs @ coef
            if float(residual @ residual) < 1e-12:
                break

        self.coef_ = coef / x_scale
        self.intercept_ = y_mean - float(x_mean @ self.coef_)
        self.active_ = list(active)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.coef_ + self.intercept_


class SGDRegressor(Regressor):
    """Linear model trained with mini-batch stochastic gradient descent (ML15).

    Squared loss with L2 penalty and an inverse-scaling learning-rate
    schedule.  Inputs are expected to be standardised (the model zoo wraps
    this class in a :class:`~repro.ml.preprocessing.ScaledRegressor`).
    """

    def __init__(
        self,
        alpha: float = 1e-4,
        learning_rate: float = 0.05,
        max_iter: int = 400,
        batch_size: int = 16,
        random_state: int = 0,
    ):
        super().__init__()
        self.alpha = alpha
        self.learning_rate = learning_rate
        self.max_iter = max_iter
        self.batch_size = batch_size
        self.random_state = random_state

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = np.random.default_rng(self.random_state)
        n_samples, n_features = X.shape
        coef = np.zeros(n_features)
        intercept = float(y.mean())
        step = 0
        for epoch in range(self.max_iter):
            order = rng.permutation(n_samples)
            for start in range(0, n_samples, self.batch_size):
                batch = order[start:start + self.batch_size]
                step += 1
                eta = self.learning_rate / (1.0 + 0.01 * step)
                predictions = X[batch] @ coef + intercept
                error = predictions - y[batch]
                grad_coef = X[batch].T @ error / len(batch) + self.alpha * coef
                grad_intercept = float(error.mean())
                coef -= eta * grad_coef
                intercept -= eta * grad_intercept
        self.coef_ = coef
        self.intercept_ = intercept

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.coef_ + self.intercept_
