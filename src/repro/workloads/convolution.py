"""Convolution-style accelerator workloads (Gaussian filter, sharpening).

:class:`ConvolutionAccelerator` models a single-kernel 2-D integer
convolution whose multiplications and accumulation additions are bound to
approximate components: one multiplier slot per non-zero kernel tap
(operating on the tap's coefficient magnitude) and one balanced
accumulation tree per coefficient sign, with the final
``positive - negative`` combination and the output shift/clip in exact
logic (documented substitution for the accelerator's output stage).

:class:`GaussianFilterAccelerator` -- the paper's AutoAx-FPGA case study
-- is the first registered workload (``"gaussian"``); its all-positive
3x3 kernel reduces the generic datapath to exactly the historical 9
multipliers + 8-adder tree, and its seeded behaviour is bit-identical to
the pre-refactor implementation (pinned by
``tests/test_search_regression.py``).  :class:`SharpenAccelerator`
(``"sharpen"``) is a signed 3x3 sharpening kernel judged by PSNR, with a
different slot shape (5 multipliers, 3 adders).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .base import ApproxAccelerator, SlotConfiguration, WORKLOADS

__all__ = [
    "ConvolutionAccelerator",
    "GaussianFilterAccelerator",
    "SharpenAccelerator",
    "GAUSSIAN_KERNEL_3X3",
    "KERNEL_SHIFT",
    "NUM_MULTIPLIER_SLOTS",
    "NUM_ADDER_SLOTS",
    "SHARPEN_KERNEL_3X3",
    "SHARPEN_SHIFT",
]

#: Integer 3x3 Gaussian kernel.  The classic 1-2-1 kernel is scaled by 16 so
#: the coefficients exercise the upper operand bits of the 8x8 multipliers
#: (sum = 256, i.e. an 8-bit right shift at the end), matching how fixed-point
#: filter coefficients are quantised in the AutoAx case study.
GAUSSIAN_KERNEL_3X3: Tuple[Tuple[int, ...], ...] = ((16, 32, 16), (32, 64, 32), (16, 32, 16))
KERNEL_SHIFT = 8

#: Slot counts of the Gaussian-filter datapath (legacy public constants).
NUM_MULTIPLIER_SLOTS = 9
NUM_ADDER_SLOTS = 8

#: Integer 3x3 sharpening kernel: ``5*center - neighbours`` scaled by 16
#: (coefficient sum = 16, i.e. a 4-bit right shift keeps unity DC gain).
SHARPEN_KERNEL_3X3: Tuple[Tuple[int, ...], ...] = ((0, -16, 0), (-16, 80, -16), (0, -16, 0))
SHARPEN_SHIFT = 4


class ConvolutionAccelerator(ApproxAccelerator):
    """Single-kernel 2-D convolution with configurable approximate operators.

    Subclasses (or ad-hoc instances) declare the integer ``kernel``, the
    output ``shift`` and the ``quality_metric``; the datapath is derived:
    one multiplier slot per non-zero tap (row-major order, coefficient
    magnitudes as the constant operand) and one balanced accumulation tree
    per coefficient sign, positive tree first, numbered breadth-first.
    The signed combination, right shift and 8-bit clip run in exact logic.
    """

    kernel: Tuple[Tuple[int, ...], ...] = GAUSSIAN_KERNEL_3X3
    shift: int = KERNEL_SHIFT

    def __init__(
        self,
        multipliers: Sequence,
        adders: Sequence,
        *,
        kernel: Optional[Tuple[Tuple[int, ...], ...]] = None,
        shift: Optional[int] = None,
        quality_metric: Optional[str] = None,
        workload_name: Optional[str] = None,
        input_seed: Optional[int] = None,
    ):
        # Instance overrides let tests and notebooks spin up ad-hoc
        # convolution workloads without declaring a subclass.
        if kernel is not None:
            self.kernel = tuple(tuple(int(c) for c in row) for row in kernel)
        if shift is not None:
            self.shift = int(shift)
        if quality_metric is not None:
            self.quality_metric = quality_metric
        if workload_name is not None:
            self.workload_name = workload_name
        if input_seed is not None:
            self.input_seed = int(input_seed)
        rows = len(self.kernel)
        if any(len(row) != rows for row in self.kernel):
            raise ValueError("convolution kernel must be square")
        self.window_size = rows
        self._taps: List[Tuple[int, int, int]] = [
            (dy, dx, self.kernel[dy][dx])
            for dy in range(rows)
            for dx in range(rows)
            if self.kernel[dy][dx] != 0
        ]
        if not self._taps:
            raise ValueError("convolution kernel has no non-zero taps")
        self._pos_slots = [i for i, (_, _, c) in enumerate(self._taps) if c > 0]
        self._neg_slots = [i for i, (_, _, c) in enumerate(self._taps) if c < 0]
        super().__init__(multipliers, adders)

    # ------------------------------------------------------------------ #
    # Slot declaration
    # ------------------------------------------------------------------ #
    @property
    def num_multiplier_slots(self) -> int:
        return len(self._taps)

    @property
    def num_adder_slots(self) -> int:
        pos = max(len(self._pos_slots) - 1, 0)
        neg = max(len(self._neg_slots) - 1, 0)
        return pos + neg

    # ------------------------------------------------------------------ #
    # Datapath
    # ------------------------------------------------------------------ #
    def _slot_groups(self) -> List[List[int]]:
        """Non-empty per-sign slot groups, positive tree first."""
        return [group for group in (self._pos_slots, self._neg_slots) if group]

    def _apply_planes(self, planes: List[np.ndarray], config: SlotConfiguration) -> np.ndarray:
        products = self._tap_products(planes, self._taps, config)
        sums = self._reduce_groups(products, self._slot_groups(), self._adder_combine(config))
        if not self._neg_slots:
            total = sums[0]
        elif not self._pos_slots:
            total = -sums[0]
        else:
            total = sums[0] - sums[1]

        return np.clip(total >> self.shift, 0, 255).astype(np.uint8)

    def _exact_from_planes(self, planes: List[np.ndarray]) -> np.ndarray:
        accumulator = np.zeros_like(planes[0])
        for dy, dx, coefficient in self._taps:
            accumulator += planes[dy * self.window_size + dx] * coefficient
        return np.clip(accumulator >> self.shift, 0, 255).astype(np.uint8)

    def _workload_signature(self) -> Tuple:
        return (self.kernel, self.shift)


@WORKLOADS.register("gaussian")
class GaussianFilterAccelerator(ConvolutionAccelerator):
    """3x3 Gaussian-filter accelerator with configurable approximate operators.

    The paper's AutoAx-FPGA case study: a 3x3 Gaussian filter whose nine
    constant-coefficient multiplications and eight accumulation additions
    are each bound to one approximate component from the
    ApproxFPGAs-produced libraries (8x8 multipliers and 16-bit adders).
    The behavioural model applies the filter to images through the
    components' gate-level behavioural models, and the hardware cost of a
    configuration is composed from the components' FPGA reports.

    ``input_seed=0`` keeps the historical image workload; every seeded
    trajectory through this class is bit-identical to the pre-workload
    implementation.
    """

    workload_name = "gaussian"
    kernel = GAUSSIAN_KERNEL_3X3
    shift = KERNEL_SHIFT
    quality_metric = "ssim"
    input_seed = 0


@WORKLOADS.register("sharpen")
class SharpenAccelerator(ConvolutionAccelerator):
    """3x3 sharpening (Laplacian-boost) accelerator judged by PSNR.

    The signed kernel exercises the generic convolution datapath with a
    slot shape different from the Gaussian case study: five multiplier
    slots (the non-zero taps) and three adder slots (the single positive
    product passes straight through; the four negative products reduce in
    a 2 + 1 tree), with the positive-minus-negative combination in exact
    logic.  Quality is the bounded PSNR score
    (:func:`repro.workloads.quality.psnr_score`), the standard metric for
    sharpening/denoising-style kernels where structural similarity is
    deliberately altered.
    """

    workload_name = "sharpen"
    kernel = SHARPEN_KERNEL_3X3
    shift = SHARPEN_SHIFT
    quality_metric = "psnr"
    input_seed = 202
