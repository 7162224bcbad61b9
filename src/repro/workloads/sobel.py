"""Sobel edge-detection accelerator workload.

The 3x3 Sobel operator computes two directional gradients (``Gx``, ``Gy``)
and reports the gradient magnitude ``|Gx| + |Gy|`` (the standard L1
approximation).  The datapath binds every non-zero tap of both kernels to
an approximate multiplier (twelve slots: six per direction, coefficient
magnitudes as the constant operand) and accumulates each direction's
positive and negative tap groups through approximate adder trees (eight
slots: a 2-adder tree per sign per direction).  The signed combination,
absolute values, shift and clip run in exact logic, like the output stage
of the convolution workloads.

Quality is judged with the gradient-magnitude similarity metric
(:func:`repro.workloads.quality.gradient_similarity`): the workload's
outputs *are* gradient-magnitude maps, so the GMS kernel applies to them
directly -- an edge-preservation score rather than the Gaussian case
study's structural similarity.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .base import ApproxAccelerator, SlotConfiguration, WORKLOADS

__all__ = ["SobelAccelerator", "SOBEL_GX_KERNEL", "SOBEL_GY_KERNEL", "SOBEL_SHIFT"]

#: The 1-2-1 Sobel kernels scaled by 32 so the coefficients exercise the
#: upper operand bits of the 8x8 multipliers, like the Gaussian kernel's
#: scaling in the paper's case study.
SOBEL_GX_KERNEL: Tuple[Tuple[int, ...], ...] = ((-32, 0, 32), (-64, 0, 64), (-32, 0, 32))
SOBEL_GY_KERNEL: Tuple[Tuple[int, ...], ...] = ((-32, -64, -32), (0, 0, 0), (32, 64, 32))
#: Right shift of ``|Gx| + |Gy|`` undoing the coefficient scaling.
SOBEL_SHIFT = 5


def _taps(kernel: Tuple[Tuple[int, ...], ...]) -> List[Tuple[int, int, int]]:
    return [
        (dy, dx, kernel[dy][dx])
        for dy in range(3)
        for dx in range(3)
        if kernel[dy][dx] != 0
    ]


@WORKLOADS.register("sobel")
class SobelAccelerator(ApproxAccelerator):
    """3x3 Sobel gradient-magnitude accelerator (twelve multipliers, eight adders)."""

    workload_name = "sobel"
    quality_metric = "gms"
    input_seed = 101
    window_size = 3

    def __init__(self, multipliers, adders):
        # Multiplier slots 0-5 are the Gx taps, 6-11 the Gy taps, both in
        # row-major kernel order; adder slots 0-7 are the four sign trees
        # in (Gx+, Gx-, Gy+, Gy-) order.
        self._gx_taps = _taps(SOBEL_GX_KERNEL)
        self._gy_taps = _taps(SOBEL_GY_KERNEL)
        self._taps = self._gx_taps + self._gy_taps
        self._groups: List[List[int]] = []
        for offset, taps in ((0, self._gx_taps), (len(self._gx_taps), self._gy_taps)):
            for sign in (1, -1):
                self._groups.append(
                    [offset + i for i, (_, _, c) in enumerate(taps) if np.sign(c) == sign]
                )
        super().__init__(multipliers, adders)

    # ------------------------------------------------------------------ #
    # Slot declaration
    # ------------------------------------------------------------------ #
    @property
    def num_multiplier_slots(self) -> int:
        return len(self._taps)

    @property
    def num_adder_slots(self) -> int:
        return sum(max(len(group) - 1, 0) for group in self._groups)

    # ------------------------------------------------------------------ #
    # Datapath (the tap-product, slot-group and latency machinery is
    # shared with the convolution workloads via ApproxAccelerator)
    # ------------------------------------------------------------------ #
    def _slot_groups(self) -> List[List[int]]:
        return self._groups

    def _apply_planes(self, planes: List[np.ndarray], config: SlotConfiguration) -> np.ndarray:
        products = self._tap_products(planes, self._taps, config)
        gx_pos, gx_neg, gy_pos, gy_neg = self._reduce_groups(
            products, self._slot_groups(), self._adder_combine(config)
        )
        magnitude = (np.abs(gx_pos - gx_neg) + np.abs(gy_pos - gy_neg)) >> SOBEL_SHIFT
        return np.clip(magnitude, 0, 255).astype(np.uint8)

    def _exact_from_planes(self, planes: List[np.ndarray]) -> np.ndarray:
        gx = np.zeros_like(planes[0])
        gy = np.zeros_like(planes[0])
        for dy, dx, coefficient in self._gx_taps:
            gx += planes[dy * 3 + dx] * coefficient
        for dy, dx, coefficient in self._gy_taps:
            gy += planes[dy * 3 + dx] * coefficient
        magnitude = (np.abs(gx) + np.abs(gy)) >> SOBEL_SHIFT
        return np.clip(magnitude, 0, 255).astype(np.uint8)

    def _workload_signature(self) -> Tuple:
        return (SOBEL_GX_KERNEL, SOBEL_GY_KERNEL, SOBEL_SHIFT)
