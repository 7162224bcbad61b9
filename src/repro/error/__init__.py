"""Error metrics and evaluation engines for approximate circuits."""

from .metrics import (
    ERROR_METRICS,
    ErrorMetrics,
    compute_error_metrics,
    mean_error_distance,
)
from .evaluation import ErrorEvaluator, ErrorReport, evaluate_error

__all__ = [
    "ERROR_METRICS",
    "ErrorMetrics",
    "compute_error_metrics",
    "mean_error_distance",
    "ErrorEvaluator",
    "ErrorReport",
    "evaluate_error",
]
