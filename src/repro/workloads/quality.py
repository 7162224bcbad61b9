"""Quality-of-result metrics for accelerator workloads.

Every workload judges the approximate accelerator's output against an
exact golden output with one *quality metric*: a callable
``(reference, test) -> float`` where larger is better and the value lies
in ``[0, 1]`` (``1.0`` means the outputs are identical).  Metrics are
registered in :data:`QUALITY_METRICS` under short string keys so a
workload declares its metric by name (``quality_metric = "ssim"``) and
new metrics plug in without touching the accelerator classes.

Built-in metrics
----------------
* ``"ssim"`` -- structural similarity (Wang et al.), the paper's metric
  for the Gaussian-filter case study;
* ``"psnr"`` -- :func:`psnr_score`, peak signal-to-noise ratio capped at
  ``cap_db`` and normalised to ``[0, 1]`` (raw :func:`psnr` is in dB and
  unbounded, which would break the search's ``1 - quality`` objective);
* ``"gms"`` -- :func:`gradient_similarity`, the mean gradient-magnitude
  similarity used by the Sobel edge-detection workload;
* ``"snr"`` -- :func:`snr_score`, signal-to-noise ratio capped at
  ``cap_db`` and normalised to ``[0, 1]``, the 1-D metric of the MVM /
  FIR / DCT signal workloads (raw :func:`snr` is in dB and unbounded).

Edge-case contract (pinned by ``tests/test_workloads.py`` and
``tests/test_workload_mvm_signal.py``):

* :func:`psnr` on identical images returns ``float("inf")`` explicitly --
  the zero-MSE case is tested *before* any division, so no
  ``RuntimeWarning`` is ever emitted;
* :func:`snr` mirrors that contract on both degenerate branches: zero
  noise returns ``float("inf")`` and an all-zero (flat-at-zero) reference
  with nonzero noise returns ``-inf`` explicitly, both tested before any
  division, so flat or silent signals never emit a ``RuntimeWarning``;
* :func:`ssim` validates the window size against the image size and
  raises a clear :class:`ValueError` instead of silently filtering with a
  window larger than the image.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.ndimage import uniform_filter

from ..registry import Registry

__all__ = [
    "QUALITY_METRICS",
    "gradient_similarity",
    "mean_ssim",
    "psnr",
    "psnr_score",
    "snr",
    "snr_score",
    "ssim",
]

#: Registry of quality metrics: ``key -> (reference, test) -> float`` with
#: larger-is-better values in ``[0, 1]``.  Workloads reference their metric
#: by key (:attr:`repro.workloads.ApproxAccelerator.quality_metric`).
QUALITY_METRICS = Registry("quality metric")


@QUALITY_METRICS.register("ssim")
def ssim(reference: np.ndarray, test: np.ndarray, window: int = 7, data_range: float = 255.0) -> float:
    """Structural similarity index between two grayscale images.

    Standard SSIM (Wang et al.) with a uniform local window, matching what
    the paper uses to judge the Gaussian filter's output quality.

    Raises
    ------
    ValueError
        When the images' shapes differ, are not 2-D, or when ``window`` is
        smaller than 1 or larger than the smallest image dimension (a
        window that does not fit the image would silently average over
        reflected padding only).
    """
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError("images must have the same shape")
    if reference.ndim != 2:
        raise ValueError("ssim expects 2-D grayscale images")
    if window < 1:
        raise ValueError(f"ssim window must be at least 1, got {window}")
    if window > min(reference.shape):
        raise ValueError(
            f"ssim window {window} exceeds the smallest image dimension "
            f"{min(reference.shape)}; pass a smaller window or larger images"
        )

    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2

    mu_x = uniform_filter(reference, size=window)
    mu_y = uniform_filter(test, size=window)
    mu_x_sq = mu_x ** 2
    mu_y_sq = mu_y ** 2
    mu_xy = mu_x * mu_y

    sigma_x = uniform_filter(reference ** 2, size=window) - mu_x_sq
    sigma_y = uniform_filter(test ** 2, size=window) - mu_y_sq
    sigma_xy = uniform_filter(reference * test, size=window) - mu_xy

    numerator = (2 * mu_xy + c1) * (2 * sigma_xy + c2)
    denominator = (mu_x_sq + mu_y_sq + c1) * (sigma_x + sigma_y + c2)
    ssim_map = numerator / denominator
    return float(ssim_map.mean())


def psnr(reference: np.ndarray, test: np.ndarray, data_range: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB.

    Identical images have zero mean-squared error; that case returns
    ``float("inf")`` *explicitly* -- the MSE is tested before the division,
    so no ``RuntimeWarning`` (divide-by-zero) is ever emitted.  Callers who
    need a bounded, normalised score (the search objectives do) should use
    :func:`psnr_score` instead.
    """
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError("images must have the same shape")
    mse = float(np.mean((reference - test) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(data_range ** 2 / mse)


@QUALITY_METRICS.register("psnr")
def psnr_score(
    reference: np.ndarray, test: np.ndarray, data_range: float = 255.0, cap_db: float = 60.0
) -> float:
    """PSNR capped at ``cap_db`` and normalised to ``[0, 1]``.

    Raw PSNR is unbounded (infinite for identical images), which would
    break the ``1 - quality`` loss convention of the search objectives;
    capping at 60 dB -- far beyond visually lossless -- and dividing by
    the cap maps identical images to exactly ``1.0`` while staying
    strictly monotone in MSE below the cap.
    """
    return float(min(psnr(reference, test, data_range), cap_db) / cap_db)


def snr(reference: np.ndarray, test: np.ndarray) -> float:
    """Signal-to-noise ratio in dB: signal power over error power.

    The 1-D counterpart of :func:`psnr` for the signal workloads, whose
    outputs have no fixed peak value (an MVM's dynamic range depends on
    the weight matrix).  Both degenerate branches are handled explicitly
    *before* any division, so no ``RuntimeWarning`` is ever emitted:

    * zero noise power (identical outputs -- including two identical
      all-zero signals) returns ``float("inf")``;
    * zero signal power (an all-zero reference) with nonzero noise
      returns ``float("-inf")`` -- there is no signal to have a ratio to.

    Callers who need a bounded, normalised score (the search objectives
    do) should use :func:`snr_score` instead.
    """
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError("signals must have the same shape")
    noise_power = float(np.mean((reference - test) ** 2))
    if noise_power == 0.0:
        return float("inf")
    signal_power = float(np.mean(reference ** 2))
    if signal_power == 0.0:
        return float("-inf")
    return 10.0 * np.log10(signal_power / noise_power)


@QUALITY_METRICS.register("snr")
def snr_score(reference: np.ndarray, test: np.ndarray, cap_db: float = 60.0) -> float:
    """SNR capped at ``cap_db`` and normalised to ``[0, 1]``.

    Raw SNR is unbounded in both directions (infinite for identical
    signals, ``-inf`` for an all-zero reference), which would break the
    ``1 - quality`` loss convention of the search objectives; clamping to
    ``[0, cap_db]`` and dividing by the cap maps identical signals to
    exactly ``1.0``, a silent reference with noise to ``0.0``, and stays
    strictly monotone in the error power in between.
    """
    return float(min(max(snr(reference, test), 0.0), cap_db) / cap_db)


@QUALITY_METRICS.register("gms")
def gradient_similarity(reference: np.ndarray, test: np.ndarray, c: float = 170.0) -> float:
    """Mean gradient-magnitude similarity between two gradient maps.

    The pointwise similarity ``(2*r*t + c) / (r**2 + t**2 + c)`` (the GMS
    kernel of Xue et al., with the standard ``c = 170`` stabiliser for
    8-bit ranges) is averaged over the image; identical maps score exactly
    ``1.0``.  The Sobel workload applies it directly to its outputs, which
    *are* gradient-magnitude maps.
    """
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError("gradient maps must have the same shape")
    similarity = (2.0 * reference * test + c) / (reference ** 2 + test ** 2 + c)
    return float(similarity.mean())


def mean_ssim(references: Sequence[np.ndarray], tests: Sequence[np.ndarray]) -> float:
    """Average SSIM over a workload of image pairs."""
    if len(references) != len(tests):
        raise ValueError("reference and test image lists must have the same length")
    if not references:
        raise ValueError("cannot average SSIM over an empty workload")
    return float(np.mean([ssim(ref, test) for ref, test in zip(references, tests)]))
