"""Slice packing.

Packs mapped LUTs into slices (CLB halves) of the target device.  The packer
is a greedy affinity packer: LUTs are processed in topological (level, root)
order and added to the currently open slice while capacity remains,
preferring LUTs that share inputs with the slice to reduce inter-slice
routing.  The result provides the slice count reported next to the LUT count
(the paper's Vivado reports list both) and a shared-input statistic used by
the routing-power model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from .device import FpgaDevice
from .lut_mapping import Lut, LutMapping


@dataclass
class Slice:
    """One occupied slice and the LUTs packed into it."""

    index: int
    luts: List[Lut]
    input_signals: Set[int]

    @property
    def occupancy(self) -> int:
        return len(self.luts)


@dataclass
class PackingResult:
    """Outcome of slice packing."""

    slices: List[Slice]
    num_luts: int

    @property
    def num_slices(self) -> int:
        return len(self.slices)


def pack_slices(mapping: LutMapping, device: FpgaDevice) -> PackingResult:
    """Pack the LUTs of ``mapping`` into slices of ``device``."""
    capacity = device.luts_per_slice
    pending = sorted(mapping.luts, key=lambda lut: (lut.level, lut.root))
    slices: List[Slice] = []

    current: List[Lut] = []
    current_inputs: Set[int] = set()

    def close_current() -> None:
        nonlocal current, current_inputs
        if current:
            slices.append(Slice(index=len(slices), luts=current, input_signals=current_inputs))
            current = []
            current_inputs = set()

    remaining = list(pending)
    while remaining:
        if not current:
            lut = remaining.pop(0)
            current = [lut]
            current_inputs = set(lut.leaves)
            continue
        # Pick the remaining LUT (within a short look-ahead window) that shares
        # the most inputs with the open slice.
        window = remaining[: 4 * capacity]
        best_index = 0
        best_shared = -1
        for index, lut in enumerate(window):
            shared = len(current_inputs & lut.leaves)
            if shared > best_shared:
                best_shared = shared
                best_index = index
        lut = remaining.pop(best_index)
        current.append(lut)
        current_inputs |= lut.leaves
        if len(current) >= capacity:
            close_current()
    close_current()

    return PackingResult(slices=slices, num_luts=mapping.num_luts)
