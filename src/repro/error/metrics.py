"""Error metrics for approximate arithmetic circuits.

The headline metric of the paper is the Mean Error Distance (MED), defined
there as "the average of the absolute error difference across all the input
combinations relative to the maximum number of outputs", i.e. the mean
absolute error normalised by the maximum representable output value.  The
other metrics are the standard companions used throughout the approximate
computing literature and by AutoAx.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..registry import Registry


def _as_output_words(values: np.ndarray) -> np.ndarray:
    """Validate and convert an output-word vector to ``int64``.

    Mirrors the operand validation of
    :func:`repro.circuits.simulate.words_to_bits`: floating-point vectors
    would truncate silently, so they are rejected.
    """
    array = np.asarray(values)
    if array.size and array.dtype != np.bool_ and (
        array.dtype == object or not np.issubdtype(array.dtype, np.integer)
    ):
        # Empty vectors are exempt (np.array([]) defaults to float64 and
        # nothing can truncate); the size check downstream rejects them.
        raise TypeError(
            f"output values must be integers, got dtype {array.dtype} "
            "(floating-point outputs would be truncated silently)"
        )
    return array.astype(np.int64, copy=False)


@dataclass(frozen=True)
class ErrorMetrics:
    """Error statistics of an approximate circuit against its golden reference."""

    med: float
    """Mean error distance: mean(|approx - exact|) / max_output."""

    mae: float
    """Mean absolute error (unnormalised)."""

    wce: float
    """Worst-case absolute error."""

    wce_relative: float
    """Worst-case absolute error normalised by the maximum output value."""

    mre: float
    """Mean relative error, with |exact| clamped to 1 to avoid division by zero."""

    error_probability: float
    """Fraction of input patterns on which the outputs differ."""

    mse: float
    """Mean squared error (unnormalised)."""

    def as_dict(self) -> Dict[str, float]:
        return {
            "med": self.med,
            "mae": self.mae,
            "wce": self.wce,
            "wce_relative": self.wce_relative,
            "mre": self.mre,
            "error_probability": self.error_probability,
            "mse": self.mse,
        }


def compute_error_metrics(
    exact_outputs: np.ndarray,
    approx_outputs: np.ndarray,
    max_output: int,
) -> ErrorMetrics:
    """Compute all error metrics from paired exact/approximate output vectors.

    The count-based metrics (``med``, ``mae``, ``wce``, ``wce_relative``,
    ``error_probability``) are exact ratios of integer sums; ``mse`` and
    ``mre`` divide float64 sums by the pattern count.

    Parameters
    ----------
    exact_outputs, approx_outputs:
        Integer output words of the reference and the approximate circuit for
        the same input patterns.  Mismatched shapes, empty vectors and
        non-integer dtypes raise.
    max_output:
        Maximum representable value of the output word, used for the
        normalised metrics (MED, relative WCE).
    """
    if max_output <= 0:
        raise ValueError("max_output must be positive")
    max_output = int(max_output)
    exact_outputs = _as_output_words(exact_outputs)
    approx_outputs = _as_output_words(approx_outputs)
    if exact_outputs.shape != approx_outputs.shape:
        raise ValueError("exact and approximate output vectors must have the same shape")
    if exact_outputs.size == 0:
        raise ValueError("cannot compute error metrics on an empty output vector")

    difference = np.abs(approx_outputs - exact_outputs)
    count = int(difference.size)
    mae = int(difference.sum(dtype=np.int64)) / count
    wce = float(int(difference.max()))
    float_difference = difference.astype(np.float64)
    denominator = np.maximum(np.abs(exact_outputs).astype(np.float64), 1.0)
    return ErrorMetrics(
        med=mae / max_output,
        mae=mae,
        wce=wce,
        wce_relative=wce / max_output,
        mre=float(np.sum(float_difference / denominator)) / count,
        error_probability=int(np.count_nonzero(difference)) / count,
        mse=float(np.sum(float_difference ** 2)) / count,
    )


def mean_error_distance(
    exact_outputs: np.ndarray, approx_outputs: np.ndarray, max_output: int
) -> float:
    """Shorthand for only the paper's MED metric."""
    return compute_error_metrics(exact_outputs, approx_outputs, max_output).med


#: Registry of error-metric extractors: key -> ``ErrorMetrics -> float``.
#: The ApproxFPGAs flow resolves ``ApproxFpgasConfig.error_metric`` here, so
#: custom metrics plug in by registering an extractor instead of editing the
#: flow.  The built-in keys mirror the :class:`ErrorMetrics` fields.
ERROR_METRICS = Registry(
    "error metric",
    {name: operator.attrgetter(name) for name in ErrorMetrics.__dataclass_fields__},
)
