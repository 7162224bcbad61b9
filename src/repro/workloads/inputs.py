"""Seeded synthetic input sets for the accelerator workloads.

The paper evaluates its accelerators on image-processing workloads; since
no image set ships with this reproduction, a deterministic set of synthetic
8-bit grayscale images with varied spatial statistics (smooth gradients,
edges, texture, blobs and noise) stands in for it.  The images exercise the
same code path: every pixel flows through the assigned approximate
multipliers and adders.

Every generator is size-parameterised and seeded.  ``seed=0`` reproduces
the historical Gaussian-filter image set bit for bit.  Any two distinct seeds
produce distinct *sets*: the blob/texture/noise images derive their RNG
streams from the seed, so two workloads with different
:attr:`~repro.workloads.ApproxAccelerator.input_seed` values can never
silently share identical inputs (and therefore never share image-set
cache tokens).  The structured gradient/checkerboard images also vary
orientation and tiling with the seed, but only modulo small factors (4
and 6), so individual structured images may coincide between far-apart
seeds -- set-level distinctness never depends on them.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "blob_image",
    "checkerboard_image",
    "default_image_set",
    "default_signal_set",
    "fidelity_inputs",
    "gradient_image",
    "noise_image",
    "texture_image",
]

#: Smallest side length :func:`fidelity_inputs` will crop to.  The largest
#: quality-metric window in the registry (SSIM's default 7x7) must still
#: fit, and below this size a quality estimate is statistically useless.
MIN_FIDELITY_SIDE = 8

#: Smallest length :func:`fidelity_inputs` will crop a 1-D signal to.  The
#: MVM/signal workloads consume whole blocks (matrix columns / FIR taps),
#: so a crop must keep at least one block's worth of samples.
MIN_FIDELITY_LENGTH = 32


def fidelity_inputs(
    images: Sequence[np.ndarray], budget: int
) -> Tuple[List[np.ndarray], bool]:
    """Reduce an input set to roughly ``budget`` total samples by centre-cropping.

    The multi-fidelity ladder's reduced-rung transform.  2-D images are
    cropped around their centre by the same linear factor
    ``sqrt(budget / total_pixels)``, preserving the set's content mix
    while cutting evaluation cost proportionally; sides never drop below
    :data:`MIN_FIDELITY_SIDE` (so windowed quality metrics keep working on
    tiny budgets -- the realised pixel count may then exceed ``budget``).
    1-D signals (the MVM / FIR / DCT workloads) crop their centre segment
    by the factor ``budget / total_samples`` directly, with
    :data:`MIN_FIDELITY_LENGTH` as the floor.

    Returns ``(inputs, reduced)``.  A budget at or above the full sample
    count is an identity: the *original* arrays come back with ``reduced``
    False, so full-fidelity rungs share exact-evaluation cache tokens
    bit for bit.
    """
    if budget < 1:
        raise ValueError("fidelity budget must be at least one pixel")
    images = [np.asarray(image) for image in images]
    total = sum(int(image.size) for image in images)
    if total <= budget:
        return images, False
    scale = math.sqrt(budget / total)
    linear_scale = budget / total
    cropped = []
    for image in images:
        if image.ndim == 1:
            length = image.shape[0]
            new_length = min(length, max(MIN_FIDELITY_LENGTH, int(length * linear_scale)))
            start = (length - new_length) // 2
            cropped.append(np.ascontiguousarray(image[start:start + new_length]))
            continue
        rows, cols = image.shape[:2]
        new_rows = min(rows, max(MIN_FIDELITY_SIDE, int(rows * scale)))
        new_cols = min(cols, max(MIN_FIDELITY_SIDE, int(cols * scale)))
        row0 = (rows - new_rows) // 2
        col0 = (cols - new_cols) // 2
        cropped.append(np.ascontiguousarray(image[row0:row0 + new_rows, col0:col0 + new_cols]))
    return cropped, True


def gradient_image(size: int, seed: int = 0) -> np.ndarray:
    """Smooth diagonal gradient; ``seed`` rotates the orientation."""
    row = np.linspace(0, 255, size)
    image = (row[:, None] + row[None, :]) / 2.0
    image = image.astype(np.uint8)
    if seed % 4:
        image = np.ascontiguousarray(np.rot90(image, k=seed % 4))
    return image


def checkerboard_image(size: int, tile: int = 6, seed: int = 0) -> np.ndarray:
    """High-frequency checkerboard (edge-heavy content).

    The seed varies the tile size and phase so differently-seeded sets get
    distinct edge placements; ``seed=0`` keeps the historical 6-pixel tiles.
    """
    tile = tile + seed % 3
    phase = seed % 2
    indices = np.arange(size)
    pattern = ((indices[:, None] // tile) + (indices[None, :] // tile) + phase) % 2
    return (pattern * 255).astype(np.uint8)


def blob_image(size: int, seed: int = 3) -> np.ndarray:
    """Sum of a few Gaussian blobs (smooth, non-monotone content)."""
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:size, 0:size]
    image = np.zeros((size, size), dtype=np.float64)
    for _ in range(5):
        cx, cy = rng.uniform(0, size, size=2)
        sigma = rng.uniform(size / 10, size / 4)
        amplitude = rng.uniform(80, 255)
        image += amplitude * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma ** 2))
    image = 255.0 * image / image.max()
    return image.astype(np.uint8)


def texture_image(size: int, seed: int = 7) -> np.ndarray:
    """Band-limited noise texture."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, 1.0, size=(size, size))
    # Cheap low-pass: repeated box blur via cumulative sums.
    kernel = np.ones((5, 5)) / 25.0
    padded = np.pad(noise, 2, mode="reflect")
    smoothed = np.zeros_like(noise)
    for dy in range(5):
        for dx in range(5):
            smoothed += kernel[dy, dx] * padded[dy:dy + size, dx:dx + size]
    smoothed -= smoothed.min()
    smoothed /= max(smoothed.max(), 1e-9)
    return (smoothed * 255).astype(np.uint8)


def noise_image(size: int, seed: int = 11) -> np.ndarray:
    """Uniform random noise (worst case for error attenuation)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(size, size), dtype=np.uint8)


def default_image_set(size: int = 48, seed: int = 0) -> List[np.ndarray]:
    """The five-image input set of one workload.

    ``seed`` is the workload's :attr:`~repro.workloads.ApproxAccelerator.input_seed`
    base; the per-image seeds are derived from it with the historical
    offsets (3, 7, 11), so ``seed=0`` is bit-identical to the image set the
    AutoAx-FPGA benchmarks have always used.
    """
    return [
        gradient_image(size, seed=seed),
        checkerboard_image(size, seed=seed),
        blob_image(size, seed=seed + 3),
        texture_image(size, seed=seed + 7),
        noise_image(size, seed=seed + 11),
    ]


def _tone_signal(length: int, seed: int) -> np.ndarray:
    """Sum of a few seeded sinusoids, quantised to 8-bit samples."""
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    signal = np.zeros(length, dtype=np.float64)
    for _ in range(3):
        period = rng.uniform(8.0, length / 2.0)
        amplitude = rng.uniform(30.0, 100.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        signal += amplitude * np.sin(2.0 * math.pi * t / period + phase)
    signal -= signal.min()
    signal *= 255.0 / max(signal.max(), 1e-9)
    return signal.astype(np.uint8).astype(np.int64)


def _chirp_signal(length: int, seed: int) -> np.ndarray:
    """Linear chirp sweeping low to high frequency (edge-dense tail)."""
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64) / length
    f0 = rng.uniform(1.0, 4.0)
    f1 = rng.uniform(length / 8.0, length / 4.0)
    signal = 127.5 * (1.0 + np.sin(2.0 * math.pi * (f0 + (f1 - f0) * t / 2.0) * t * length / length))
    return np.clip(signal, 0, 255).astype(np.uint8).astype(np.int64)


def _step_signal(length: int, seed: int) -> np.ndarray:
    """Piecewise-constant steps (the 1-D analogue of the checkerboard)."""
    rng = np.random.default_rng(seed)
    num_steps = int(rng.integers(4, 9))
    edges = np.sort(rng.choice(np.arange(1, length), size=num_steps - 1, replace=False))
    levels = rng.integers(0, 256, size=num_steps)
    signal = np.empty(length, dtype=np.int64)
    start = 0
    for edge, level in zip(list(edges) + [length], levels):
        signal[start:edge] = int(level)
        start = edge
    return signal


def _noise_signal(length: int, seed: int) -> np.ndarray:
    """Uniform random samples (worst case for error attenuation)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=length).astype(np.int64)


def default_signal_set(size: int = 48, seed: int = 0) -> List[np.ndarray]:
    """The four-signal 1-D input set of one signal-family workload.

    The 1-D counterpart of :func:`default_image_set` for the MVM / FIR /
    DCT workloads: tones, a chirp, steps and noise, each ``4 * size``
    samples long (so ``size`` stays comparable to the image workloads'
    side-length knob while giving block-based datapaths enough full
    blocks).  Samples are non-negative 8-bit values held in ``int64``
    arrays -- what the integer datapaths consume directly.  Per-signal
    seeds derive from ``seed`` with distinct offsets, so two workloads
    with different :attr:`~repro.workloads.ApproxAccelerator.input_seed`
    values never share an identical set (and therefore never share
    input-set cache tokens).
    """
    length = 4 * size
    return [
        _tone_signal(length, seed=seed + 1),
        _chirp_signal(length, seed=seed + 5),
        _step_signal(length, seed=seed + 9),
        _noise_signal(length, seed=seed + 13),
    ]
