"""Pluggable accelerator workloads (the generic half of the case studies).

This package holds everything an approximate-accelerator case study needs
that is *not* specific to one accelerator: the
:class:`~repro.workloads.base.ApproxAccelerator` protocol and its
:data:`WORKLOADS` registry, the shared component machinery
(:class:`ApproxComponent`, :func:`components_from_library`), the
:data:`QUALITY_METRICS` registry with the built-in metrics
(SSIM / bounded PSNR / bounded SNR / gradient-magnitude similarity) and
the seeded synthetic input sets (2-D image sets for the convolution
workloads, 1-D signal sets for the MVM/signal family).

Built-in workloads (registered on import):

* ``"gaussian"`` -- :class:`GaussianFilterAccelerator`, the paper's 3x3
  Gaussian-filter AutoAx-FPGA case study (9 multipliers, 8 adders, SSIM);
* ``"sobel"`` -- :class:`SobelAccelerator`, 3x3 Sobel edge detection
  (12 multipliers, 8 adders, gradient-magnitude similarity);
* ``"sharpen"`` -- :class:`SharpenAccelerator`, a signed 3x3 sharpening
  kernel (5 multipliers, 3 adders, bounded PSNR);
* ``"mvm"`` -- :class:`BitSlicedMVMAccelerator`, a blocked 6x8
  matrix-vector multiply with sign-magnitude input bit slicing
  (``slice_width`` knob; 8 multipliers, 7 adders, bounded SNR);
* ``"dct"`` -- :class:`DctAccelerator`, the 8-point DCT-II through the
  same bit-sliced MVM datapath (8 multipliers, 7 adders, bounded SNR);
* ``"fir"`` -- :class:`FirAccelerator`, a 7-tap low-pass FIR filter
  (7 multipliers, 6 adders, bounded SNR);
* ``"fir_mixed"`` -- :class:`MixedWidthFirAccelerator`, the FIR at a
  swept 6-bit multiplier / 12-bit adder operand-width point.

Registering a custom workload::

    from repro.workloads import ConvolutionAccelerator, WORKLOADS

    @WORKLOADS.register("box")
    class BoxFilterAccelerator(ConvolutionAccelerator):
        workload_name = "box"
        kernel = ((28, 28, 28), (28, 32, 28), (28, 28, 28))
        shift = 8
        quality_metric = "ssim"
        input_seed = 900

    result = session.run_autoax(multipliers, adders,
                                AutoAxConfig(workload="box"))
"""

from .base import (
    ApproxAccelerator,
    ComponentSlot,
    SlotConfiguration,
    VectorAccelerator,
    WORKLOADS,
    build_workload,
    reduce_balanced,
)
from .components import ApproxComponent, components_from_library
from .convolution import (
    GAUSSIAN_KERNEL_3X3,
    KERNEL_SHIFT,
    NUM_ADDER_SLOTS,
    NUM_MULTIPLIER_SLOTS,
    SHARPEN_KERNEL_3X3,
    SHARPEN_SHIFT,
    ConvolutionAccelerator,
    GaussianFilterAccelerator,
    SharpenAccelerator,
)
from .inputs import (
    MIN_FIDELITY_LENGTH,
    MIN_FIDELITY_SIDE,
    blob_image,
    checkerboard_image,
    default_image_set,
    default_signal_set,
    fidelity_inputs,
    gradient_image,
    noise_image,
    texture_image,
)
from .mvm import (
    BitSlicedMVMAccelerator,
    convert_sliced,
    num_slices,
    recombine_slices,
)
from .quality import (
    QUALITY_METRICS,
    gradient_similarity,
    mean_ssim,
    psnr,
    psnr_score,
    snr,
    snr_score,
    ssim,
)
from .signal import (
    DCT_SCALE,
    FIR_SHIFT,
    FIR_TAPS,
    DctAccelerator,
    FirAccelerator,
    MixedWidthFirAccelerator,
    dct_matrix,
)
from .sobel import SOBEL_GX_KERNEL, SOBEL_GY_KERNEL, SOBEL_SHIFT, SobelAccelerator

__all__ = [
    "ApproxAccelerator",
    "ComponentSlot",
    "SlotConfiguration",
    "VectorAccelerator",
    "WORKLOADS",
    "build_workload",
    "reduce_balanced",
    "ApproxComponent",
    "components_from_library",
    "ConvolutionAccelerator",
    "GaussianFilterAccelerator",
    "SharpenAccelerator",
    "SobelAccelerator",
    "BitSlicedMVMAccelerator",
    "DctAccelerator",
    "FirAccelerator",
    "MixedWidthFirAccelerator",
    "convert_sliced",
    "num_slices",
    "recombine_slices",
    "dct_matrix",
    "GAUSSIAN_KERNEL_3X3",
    "KERNEL_SHIFT",
    "NUM_MULTIPLIER_SLOTS",
    "NUM_ADDER_SLOTS",
    "SHARPEN_KERNEL_3X3",
    "SHARPEN_SHIFT",
    "SOBEL_GX_KERNEL",
    "SOBEL_GY_KERNEL",
    "SOBEL_SHIFT",
    "DCT_SCALE",
    "FIR_SHIFT",
    "FIR_TAPS",
    "QUALITY_METRICS",
    "gradient_similarity",
    "mean_ssim",
    "psnr",
    "psnr_score",
    "snr",
    "snr_score",
    "ssim",
    "MIN_FIDELITY_LENGTH",
    "MIN_FIDELITY_SIDE",
    "blob_image",
    "checkerboard_image",
    "default_image_set",
    "default_signal_set",
    "fidelity_inputs",
    "gradient_image",
    "noise_image",
    "texture_image",
]
