"""The Table I model zoo: ML1 - ML18.

Each entry constructs a fresh, unfitted regressor.  The three "regression
w.r.t. ASIC-AC <parameter>" entries (ML1-ML3) are ordinary least squares fits
restricted to the corresponding single ASIC feature column, exactly as the
paper uses the ASIC reports as standalone predictors of the FPGA cost.
Models that are sensitive to feature scaling are wrapped in a
:class:`~repro.ml.preprocessing.ScaledRegressor`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..registry import Registry, RegistryError
from .base import Regressor
from .ensemble import AdaBoostRegressor, GradientBoostingRegressor, RandomForestRegressor
from .gaussian_process import GaussianProcessRegressor
from .kernel import KernelRidge
from .linear import (
    BayesianRidgeRegression,
    LassoRegression,
    LeastAngleRegression,
    LinearRegression,
    RidgeRegression,
    SGDRegressor,
)
from .mlp import MLPRegressor
from .neighbors import KNeighborsRegressor
from .pls import PLSRegression
from .preprocessing import FeatureSubsetRegressor, ScaledRegressor
from .symbolic import SymbolicRegressor
from .tree import DecisionTreeRegressor

#: Registry of model factories in the order of Table I of the paper.  Each
#: entry maps a model id to ``factory(feature_names, random_state) ->
#: Regressor``.  Custom models plug in with ``MODELS.register("my-model",
#: factory)`` and can then be listed in ``ApproxFpgasConfig.model_ids``.
MODELS = Registry("model")

#: Human-readable names matching Table I.
MODEL_DESCRIPTIONS: Dict[str, str] = {
    "ML1": "Regression w.r.t. ASIC-AC Power",
    "ML2": "Regression w.r.t. ASIC-AC Latency",
    "ML3": "Regression w.r.t. ASIC-AC Area",
    "ML4": "PLS Regression",
    "ML5": "Random Forest",
    "ML6": "Gradient Boosting",
    "ML7": "Adaptive Boosting (AdaBoost)",
    "ML8": "Gaussian Process",
    "ML9": "Symbolic Regression",
    "ML10": "Kernel Ridge",
    "ML11": "Bayesian Ridge",
    "ML12": "Coordinate Descent (Lasso)",
    "ML13": "Least Angle Regression",
    "ML14": "Ridge Regression",
    "ML15": "Stochastic Gradient Descent",
    "ML16": "K-Nearest Neighbours",
    "ML17": "Multi-Layer Perceptron (MLP)",
    "ML18": "Decision Tree",
}

#: ASIC feature column names consumed by ML1-ML3 (defined by repro.features).
ASIC_FEATURE_FOR_MODEL: Dict[str, str] = {
    "ML1": "asic_power_mw",
    "ML2": "asic_latency_ns",
    "ML3": "asic_area_um2",
}


class ModelZooError(RegistryError):
    """Raised when a model id is unknown or required features are missing."""


def _feature_index(feature_names: Sequence[str], name: str) -> int:
    try:
        return list(feature_names).index(name)
    except ValueError as error:
        raise ModelZooError(
            f"feature {name!r} is required by an ASIC-regression model but is not "
            f"present in the feature set {list(feature_names)}"
        ) from error


def _asic_regression_factory(model_id: str) -> Callable[[Sequence[str], int], Regressor]:
    """ML1-ML3: ordinary least squares on one ASIC feature column."""

    def factory(feature_names: Sequence[str], random_state: int) -> Regressor:
        index = _feature_index(feature_names, ASIC_FEATURE_FOR_MODEL[model_id])
        return FeatureSubsetRegressor(LinearRegression(), [index])

    return factory


def _register_builtin_models() -> None:
    for model_id in ASIC_FEATURE_FOR_MODEL:
        MODELS.register(model_id, _asic_regression_factory(model_id))
    builders: Dict[str, Callable[[Sequence[str], int], Regressor]] = {
        "ML4": lambda names, seed: PLSRegression(n_components=4),
        "ML5": lambda names, seed: RandomForestRegressor(
            n_estimators=60, max_depth=10, random_state=seed
        ),
        "ML6": lambda names, seed: GradientBoostingRegressor(
            n_estimators=120, learning_rate=0.08, max_depth=3, random_state=seed
        ),
        "ML7": lambda names, seed: AdaBoostRegressor(
            n_estimators=50, max_depth=4, random_state=seed
        ),
        "ML8": lambda names, seed: ScaledRegressor(
            GaussianProcessRegressor(noise=1e-2), scale_target=True
        ),
        "ML9": lambda names, seed: SymbolicRegressor(
            population_size=60, generations=20, random_state=seed
        ),
        "ML10": lambda names, seed: ScaledRegressor(
            KernelRidge(alpha=0.1, kernel="rbf"), scale_target=True
        ),
        "ML11": lambda names, seed: ScaledRegressor(BayesianRidgeRegression(), scale_target=False),
        "ML12": lambda names, seed: ScaledRegressor(LassoRegression(alpha=0.01), scale_target=False),
        "ML13": lambda names, seed: LeastAngleRegression(),
        "ML14": lambda names, seed: ScaledRegressor(RidgeRegression(alpha=1.0), scale_target=False),
        "ML15": lambda names, seed: ScaledRegressor(
            SGDRegressor(random_state=seed), scale_target=True
        ),
        "ML16": lambda names, seed: ScaledRegressor(
            KNeighborsRegressor(n_neighbors=5), scale_target=False
        ),
        "ML17": lambda names, seed: ScaledRegressor(
            MLPRegressor(hidden_layer_sizes=(32, 16), max_iter=200, random_state=seed),
            scale_target=True,
        ),
        "ML18": lambda names, seed: DecisionTreeRegressor(max_depth=8, random_state=seed),
    }
    for model_id, factory in builders.items():
        MODELS.register(model_id, factory)


_register_builtin_models()


def build_model(model_id: str, feature_names: Sequence[str], random_state: int = 0) -> Regressor:
    """Construct a fresh, unfitted instance of one registered model.

    Parameters
    ----------
    model_id:
        A key of :data:`MODELS` (the built-in Table I zoo registers
        ``"ML1"`` .. ``"ML18"``).
    feature_names:
        Column names of the feature matrix the model will be fitted on; used
        by ML1-ML3 to locate their ASIC feature column.
    random_state:
        Seed forwarded to the stochastic models.
    """
    try:
        factory = MODELS.get(model_id)
    except RegistryError:
        raise ModelZooError(
            f"unknown model id {model_id!r}; available: {MODELS.keys()}"
        ) from None
    return factory(feature_names, random_state)


def build_model_zoo(
    feature_names: Sequence[str],
    include: Optional[Iterable[str]] = None,
    random_state: int = 0,
) -> Dict[str, Regressor]:
    """Construct every requested registered model (all of Table I by default)."""
    ids: List[str] = list(include) if include is not None else list(MODELS)
    for model_id in ids:
        if model_id not in MODELS:
            raise ModelZooError(f"unknown model id {model_id!r}; available: {MODELS.keys()}")
    return {model_id: build_model(model_id, feature_names, random_state) for model_id in ids}
