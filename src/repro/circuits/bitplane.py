"""Packed bit-plane layout and the one simulation entry point.

The oracle simulator (:func:`repro.circuits.simulate.simulate_bits`) spends
one NumPy byte per pattern per net.  Production simulation packs 64
patterns into each lane of a ``uint64`` *bit plane* per net -- the classic
bit-parallel trick behind EvoApproxLib's C models -- so every gate
evaluation processes 64 patterns per machine word.  :func:`simulate_planes`
runs the netlist's compiled op tape (:mod:`repro.circuits.compiled`) over
such planes, for every pattern count;
:func:`repro.circuits.simulate.expand_operands` packs operand words into
them.

Layout: a boolean vector of ``patterns`` values packs into
``num_planes(patterns)`` lanes; pattern ``p`` lives in lane ``p // 64``.
The bit position within a lane follows the platform's byte order (packing
and unpacking are always exact inverses, and the bitwise gate semantics are
position-independent, so simulation results never depend on endianness).
Padding bits beyond the real pattern count are unspecified -- inverting
gates turn zero padding into ones -- and are sliced off by
:func:`unpack_bits`.
"""

from __future__ import annotations

import numpy as np

from .compiled import compile_netlist
from .netlist import Netlist

__all__ = [
    "PLANE_WIDTH",
    "num_planes",
    "pack_bits",
    "unpack_bits",
    "simulate_planes",
]

#: Patterns carried per ``uint64`` lane.
PLANE_WIDTH = 64


def num_planes(num_patterns: int) -> int:
    """Lanes needed to hold ``num_patterns`` packed patterns."""
    if num_patterns < 0:
        raise ValueError("num_patterns must be non-negative")
    return -(-num_patterns // PLANE_WIDTH)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack boolean patterns along the last axis into ``uint64`` planes.

    A ``(..., patterns)`` boolean array becomes a
    ``(..., num_planes(patterns))`` ``uint64`` array; the tail of the last
    plane is zero-padded when ``patterns`` is not a multiple of 64.
    """
    bits = np.asarray(bits, dtype=bool)
    patterns = bits.shape[-1]
    padded = num_planes(patterns) * PLANE_WIDTH
    if padded != patterns:
        pad = np.zeros(bits.shape[:-1] + (padded - patterns,), dtype=bool)
        bits = np.concatenate([bits, pad], axis=-1)
    # ``np.packbits`` is ~2.5x slower on strided input; the common caller
    # packs a transposed (net, patterns) view, so make it contiguous first.
    packed_bytes = np.ascontiguousarray(
        np.packbits(np.ascontiguousarray(bits), axis=-1, bitorder="little")
    )
    return packed_bytes.view(np.uint64)


def unpack_bits(packed: np.ndarray, num_patterns: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: planes back to a boolean pattern axis.

    ``num_patterns`` selects how many patterns to keep from the last plane
    (packed arrays carry no pattern count of their own); it must fit the
    plane capacity.
    """
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    capacity = packed.shape[-1] * PLANE_WIDTH
    if not 0 <= num_patterns <= capacity:
        raise ValueError(
            f"num_patterns {num_patterns} does not fit the packed capacity of "
            f"{capacity} patterns"
        )
    bits = np.unpackbits(packed.view(np.uint8), axis=-1, bitorder="little")
    return bits[..., :num_patterns].astype(bool)


def simulate_planes(netlist: Netlist, input_planes: np.ndarray) -> np.ndarray:
    """Simulate on pre-packed input planes, returning packed output planes.

    ``input_planes`` is a ``(num_inputs, planes)`` ``uint64`` matrix (net
    major, as produced by ``pack_bits(input_bits.T)`` or
    :func:`~repro.circuits.simulate.expand_operands`); the result is the
    ``(num_outputs, planes)`` packed output.  This is the one simulation
    entry point: the netlist's op tape, compiled once per structural
    fingerprint, runs over the planes.  Callers that evaluate many circuits
    on the same operand set (the error evaluator) pack once and reuse the
    planes.
    """
    return compile_netlist(netlist).run(input_planes)
