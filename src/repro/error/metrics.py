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
        # nothing can truncate); the size checks downstream reject them.
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

    The one-shot form of :class:`ErrorAccumulator`: a single block folded
    into a fresh accumulator, so every metric formula exists once.

    Parameters
    ----------
    exact_outputs, approx_outputs:
        Integer output words of the reference and the approximate circuit for
        the same input patterns.
    max_output:
        Maximum representable value of the output word, used for the
        normalised metrics (MED, relative WCE).
    """
    return ErrorAccumulator(max_output).update(exact_outputs, approx_outputs).result()


def mean_error_distance(
    exact_outputs: np.ndarray, approx_outputs: np.ndarray, max_output: int
) -> float:
    """Shorthand for only the paper's MED metric."""
    return compute_error_metrics(exact_outputs, approx_outputs, max_output).med


class ErrorAccumulator:
    """Incremental :class:`ErrorMetrics` over a stream of output blocks.

    Feed paired exact/approximate output chunks through :meth:`update` and
    finalize with :meth:`result`; peak memory is bounded by the largest
    chunk, so exhaustive or Monte-Carlo evaluation of wide operands can
    stream fixed-size pattern blocks instead of materialising every output
    at once.

    Accumulation is partition-invariant: splitting a stream into blocks of
    any sizes yields the same metrics as a single :func:`compute_error_metrics`
    call on the concatenated vectors.  The count-based metrics (``med``,
    ``mae``, ``wce``, ``wce_relative``, ``error_probability``) are exact --
    the absolute-error sums are carried as arbitrary-precision integers --
    and ``mse``/``mre`` match the one-shot values exactly whenever their
    float64 partial sums stay integer-representable (always true for the
    operand widths in this project; ``mre`` sums quotients, so it matches to
    within last-ulp accumulation order).
    """

    def __init__(self, max_output: int):
        if max_output <= 0:
            raise ValueError("max_output must be positive")
        self.max_output = int(max_output)
        self._count = 0
        self._abs_sum = 0
        self._max_abs = 0
        self._num_wrong = 0
        self._sq_sum = 0.0
        self._rel_sum = 0.0

    @property
    def count(self) -> int:
        """Patterns accumulated so far."""
        return self._count

    def update(self, exact_outputs: np.ndarray, approx_outputs: np.ndarray) -> "ErrorAccumulator":
        """Fold one block of paired outputs into the running metrics.

        Empty blocks are no-ops; mismatched shapes or non-integer dtypes
        raise.  Returns ``self`` for chaining.
        """
        exact_outputs = _as_output_words(exact_outputs)
        approx_outputs = _as_output_words(approx_outputs)
        if exact_outputs.shape != approx_outputs.shape:
            raise ValueError("exact and approximate output vectors must have the same shape")
        if exact_outputs.size == 0:
            return self

        difference = np.abs(approx_outputs - exact_outputs)
        self._count += int(difference.size)
        self._abs_sum += int(difference.sum(dtype=np.int64))
        self._max_abs = max(self._max_abs, int(difference.max()))
        self._num_wrong += int(np.count_nonzero(difference))
        float_difference = difference.astype(np.float64)
        self._sq_sum += float(np.sum(float_difference ** 2))
        denominator = np.maximum(np.abs(exact_outputs).astype(np.float64), 1.0)
        self._rel_sum += float(np.sum(float_difference / denominator))
        return self

    def merge(self, other: "ErrorAccumulator") -> "ErrorAccumulator":
        """Fold another accumulator (e.g. from a parallel worker) into this one."""
        if other.max_output != self.max_output:
            raise ValueError(
                f"cannot merge accumulators with different max_output "
                f"({self.max_output} vs {other.max_output})"
            )
        self._count += other._count
        self._abs_sum += other._abs_sum
        self._max_abs = max(self._max_abs, other._max_abs)
        self._num_wrong += other._num_wrong
        self._sq_sum += other._sq_sum
        self._rel_sum += other._rel_sum
        return self

    def result(self) -> ErrorMetrics:
        """The metrics of everything accumulated so far."""
        if self._count == 0:
            raise ValueError("cannot compute error metrics on an empty output vector")
        mae = self._abs_sum / self._count
        wce = float(self._max_abs)
        return ErrorMetrics(
            med=mae / self.max_output,
            mae=mae,
            wce=wce,
            wce_relative=wce / self.max_output,
            mre=self._rel_sum / self._count,
            error_probability=self._num_wrong / self._count,
            mse=self._sq_sum / self._count,
        )


#: Registry of error-metric extractors: key -> ``ErrorMetrics -> float``.
#: The ApproxFPGAs flow resolves ``ApproxFpgasConfig.error_metric`` here, so
#: custom metrics plug in by registering an extractor instead of editing the
#: flow.  The built-in keys mirror the :class:`ErrorMetrics` fields.
ERROR_METRICS = Registry(
    "error metric",
    {name: operator.attrgetter(name) for name in ErrorMetrics.__dataclass_fields__},
)
