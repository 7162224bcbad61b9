"""Tree ensembles: Random Forest (ML5), Gradient Boosting (ML6), AdaBoost.R2 (ML7)."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .base import Regressor
from .tree import DecisionTreeRegressor, TreeArrays, check_tree_params, stack_trees, walk_trees


class RandomForestRegressor(Regressor):
    """Bagged regression trees with per-split feature subsampling.

    The fitted-state payload (:meth:`~repro.ml.Regressor.to_payload`) is the
    stacked ``trees_`` arrays, which are all prediction reads; a restored
    forest has no per-tree ``estimators_``.
    """

    def __init__(
        self,
        n_estimators: int = 60,
        max_depth: int = 10,
        min_samples_leaf: int = 1,
        max_features: float = 0.7,
        random_state: int = 0,
    ):
        super().__init__()
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        check_tree_params(min_samples_leaf, max_features, none_ok=False)
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = np.random.default_rng(self.random_state)
        n_samples = X.shape[0]
        self.estimators_: List[DecisionTreeRegressor] = []
        for index in range(self.n_estimators):
            sample = rng.integers(0, n_samples, size=n_samples)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=2 * self.min_samples_leaf,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[sample], y[sample])
            self.estimators_.append(tree)
        self.trees_ = stack_trees(self.estimators_)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return walk_trees(self.trees_, X).mean(axis=0)

    def _state(self) -> dict:
        return self.trees_.to_payload()

    def _restore(self, state: dict) -> None:
        self.trees_ = TreeArrays.from_payload(state)

    def predict_with_std(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Ensemble mean and member-disagreement standard deviation.

        The spread of the bagged trees is the forest's epistemic
        uncertainty: zero where every bootstrap replica agrees, large in
        regions they disagree on.  This is what feeds the EHVI acquisition
        in :mod:`repro.search.multifidelity` for forest-backed estimators.
        """
        X = self._check_input(X, "predict_with_std")
        predictions = walk_trees(self.trees_, X)
        return predictions.mean(axis=0), predictions.std(axis=0)


class GradientBoostingRegressor(Regressor):
    """Stage-wise boosting of shallow trees on squared-loss residuals."""

    def __init__(
        self,
        n_estimators: int = 120,
        learning_rate: float = 0.08,
        max_depth: int = 3,
        min_samples_leaf: int = 2,
        subsample: float = 1.0,
        random_state: int = 0,
    ):
        super().__init__()
        if not (0.0 < subsample <= 1.0):
            raise ValueError("subsample must be in (0, 1]")
        check_tree_params(min_samples_leaf)
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.random_state = random_state

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = np.random.default_rng(self.random_state)
        n_samples = X.shape[0]
        self.initial_prediction_ = float(y.mean())
        self.estimators_: List[DecisionTreeRegressor] = []

        current = np.full(n_samples, self.initial_prediction_)
        for _ in range(self.n_estimators):
            residual = y - current
            if self.subsample < 1.0:
                size = max(2, int(round(self.subsample * n_samples)))
                sample = rng.choice(n_samples, size=size, replace=False)
            else:
                sample = np.arange(n_samples)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=2 * self.min_samples_leaf,
                min_samples_leaf=self.min_samples_leaf,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[sample], residual[sample])
            update = tree.predict(X)
            current = current + self.learning_rate * update
            self.estimators_.append(tree)
        self.trees_ = stack_trees(self.estimators_)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        prediction = np.full(X.shape[0], self.initial_prediction_)
        for update in walk_trees(self.trees_, X):
            prediction += self.learning_rate * update
        return prediction


class AdaBoostRegressor(Regressor):
    """AdaBoost.R2 (Drucker, 1997) with regression-tree weak learners."""

    def __init__(
        self,
        n_estimators: int = 60,
        max_depth: int = 4,
        learning_rate: float = 1.0,
        random_state: int = 0,
    ):
        super().__init__()
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.random_state = random_state

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = np.random.default_rng(self.random_state)
        n_samples = X.shape[0]
        weights = np.full(n_samples, 1.0 / n_samples)
        self.estimators_: List[DecisionTreeRegressor] = []
        self.estimator_weights_: List[float] = []

        for _ in range(self.n_estimators):
            sample = rng.choice(n_samples, size=n_samples, replace=True, p=weights)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[sample], y[sample])
            predictions = tree.predict(X)

            error = np.abs(predictions - y)
            max_error = error.max()
            if max_error <= 1e-12:
                self.estimators_.append(tree)
                self.estimator_weights_.append(10.0)
                break
            relative_error = error / max_error
            weighted_error = float(np.sum(weights * relative_error))
            if weighted_error >= 0.5:
                # Weak learner no better than chance: stop early (standard R2 rule).
                if not self.estimators_:
                    self.estimators_.append(tree)
                    self.estimator_weights_.append(1.0)
                break
            beta = weighted_error / (1.0 - weighted_error)
            self.estimators_.append(tree)
            self.estimator_weights_.append(self.learning_rate * np.log(1.0 / max(beta, 1e-12)))
            weights = weights * beta ** ((1.0 - relative_error) * self.learning_rate)
            weights /= weights.sum()
        self.trees_ = stack_trees(self.estimators_)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        if not self.estimators_:
            return np.zeros(X.shape[0])
        predictions = walk_trees(self.trees_, X)
        weights = np.asarray(self.estimator_weights_)

        # Weighted median over estimators (the AdaBoost.R2 combination rule).
        order = np.argsort(predictions, axis=0)
        sorted_predictions = np.take_along_axis(predictions, order, axis=0)
        sorted_weights = weights[order]
        cumulative = np.cumsum(sorted_weights, axis=0)
        threshold = 0.5 * cumulative[-1]
        median_index = np.argmax(cumulative >= threshold, axis=0)
        return sorted_predictions[median_index, np.arange(X.shape[0])]
