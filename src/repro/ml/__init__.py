"""From-scratch statistical / machine-learning model library (Table I zoo)."""

from .base import MeanRegressor, Regressor, check_array, check_X_y
from .metrics import (
    mean_absolute_error,
    mean_absolute_percentage_error,
    mean_squared_error,
    pearson_correlation,
    r2_score,
    root_mean_squared_error,
    spearman_correlation,
)
from .preprocessing import FeatureSubsetRegressor, MinMaxScaler, ScaledRegressor, StandardScaler
from .linear import (
    BayesianRidgeRegression,
    LassoRegression,
    LeastAngleRegression,
    LinearRegression,
    RidgeRegression,
    SGDRegressor,
)
from .kernel import KernelRidge, linear_kernel, polynomial_kernel, rbf_kernel
from .gaussian_process import GaussianProcessRegressor
from .pls import PLSRegression
from .neighbors import KNeighborsRegressor
from .tree import DecisionTreeRegressor
from .ensemble import AdaBoostRegressor, GradientBoostingRegressor, RandomForestRegressor
from .mlp import MLPRegressor
from .symbolic import SymbolicRegressor
from .validation import cross_val_score, k_fold_indices, train_test_split
from .model_zoo import (
    ASIC_FEATURE_FOR_MODEL,
    MODEL_DESCRIPTIONS,
    MODELS,
    ModelZooError,
    build_model,
    build_model_zoo,
)

__all__ = [
    "MeanRegressor",
    "Regressor",
    "check_array",
    "check_X_y",
    "mean_absolute_error",
    "mean_absolute_percentage_error",
    "mean_squared_error",
    "pearson_correlation",
    "r2_score",
    "root_mean_squared_error",
    "spearman_correlation",
    "FeatureSubsetRegressor",
    "MinMaxScaler",
    "ScaledRegressor",
    "StandardScaler",
    "BayesianRidgeRegression",
    "LassoRegression",
    "LeastAngleRegression",
    "LinearRegression",
    "RidgeRegression",
    "SGDRegressor",
    "KernelRidge",
    "linear_kernel",
    "polynomial_kernel",
    "rbf_kernel",
    "GaussianProcessRegressor",
    "PLSRegression",
    "KNeighborsRegressor",
    "DecisionTreeRegressor",
    "AdaBoostRegressor",
    "GradientBoostingRegressor",
    "RandomForestRegressor",
    "MLPRegressor",
    "SymbolicRegressor",
    "cross_val_score",
    "k_fold_indices",
    "train_test_split",
    "ASIC_FEATURE_FOR_MODEL",
    "MODEL_DESCRIPTIONS",
    "MODELS",
    "ModelZooError",
    "build_model",
    "build_model_zoo",
]
