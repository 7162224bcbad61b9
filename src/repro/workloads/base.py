"""The accelerator-workload protocol and the ``WORKLOADS`` registry.

A *workload* is one approximate-accelerator case study: a datapath whose
operator slots are bound to approximate arithmetic components, an input
set to run it on, and a quality metric judging the approximate output
against the exact one.  :class:`ApproxAccelerator` is the protocol every
workload implements (as an abstract base class so the slot bookkeeping,
configuration sampling and cost composition are shared); the string-keyed
:data:`WORKLOADS` registry is how flows, sessions and examples look
workloads up by name (``AutoAxConfig(workload="sobel")``).

The evaluation contract mirrors what the engine and the search layers
already consume:

* ``slots()`` declares the component slots by kind and operand width;
* ``prepare_inputs(inputs)`` precomputes the work every configuration
  shares: every input's operands, stacked along the datapath's pattern
  axis, and each input's golden reference output;
* ``evaluate_prepared(prepared, config)`` returns the ``(quality,
  hw_cost)`` pair of one configuration from one datapath pass over the
  stack, each input scored on its own slice of the output;
* ``quality_metric`` names the :data:`repro.workloads.QUALITY_METRICS`
  entry the workload judges quality with (larger is better, in
  ``[0, 1]``);
* ``workload_token()`` digests the workload's structural identity so
  engine cache keys (:func:`repro.engine.keys.accelerator_token`) can
  never alias two workloads built from the same component libraries.

Built-in workloads register themselves on import of
:mod:`repro.workloads`: the image-convolution trio ``"gaussian"`` (the
paper's 3x3 Gaussian-filter case study, SSIM quality), ``"sobel"`` (3x3
Sobel edge detection, gradient-magnitude-similarity quality) and
``"sharpen"`` (3x3 sharpening convolution, PSNR quality), plus the 1-D
signal family built on :class:`VectorAccelerator`: ``"mvm"`` (bit-sliced
matrix-vector multiply, SNR quality), ``"dct"`` (8-point DCT-II as a
bit-sliced MVM), ``"fir"`` (7-tap low-pass FIR) and ``"fir_mixed"``
(the FIR at swept 6-bit multiplier / 12-bit adder operand widths).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..engine.keys import blake_token
from ..registry import Registry
from .inputs import default_image_set, default_signal_set
from .quality import QUALITY_METRICS

__all__ = [
    "ApproxAccelerator",
    "ComponentSlot",
    "SlotConfiguration",
    "VectorAccelerator",
    "WORKLOADS",
    "build_workload",
    "reduce_balanced",
]

#: Registry of accelerator workloads.  Each entry is a factory
#: ``(multipliers, adders) -> ApproxAccelerator`` (the built-ins are the
#: accelerator classes themselves) carrying the class-level workload
#: declaration (``workload_name``, ``quality_metric``, ``input_seed``,
#: ``default_inputs``).  Flows resolve ``AutoAxConfig.workload`` here, so
#: a new case study plugs in by registering a key instead of editing the
#: flow, stage, engine or session layers.
WORKLOADS = Registry("workload")


def build_workload(key: str, multipliers: Sequence, adders: Sequence) -> "ApproxAccelerator":
    """Instantiate the registered workload ``key`` on the given components.

    Raises :class:`repro.registry.RegistryError` (listing the available
    keys) for unknown workloads.
    """
    return WORKLOADS.get(key)(multipliers, adders)


#: Sentinel distinguishing "no ``empty`` fallback supplied" from an
#: explicit ``empty=None`` (``None`` is a legitimate fallback value).
_NO_EMPTY = object()


def reduce_balanced(values, combine, slot: int = 0, *, empty=_NO_EMPTY):
    """Balanced pairwise reduction threading adder-slot numbers.

    ``combine(slot, left, right)`` merges two values through the adder
    assigned to ``slot``; slots are consumed in breadth-first tree order
    (level by level, left to right), which is exactly the accumulation-tree
    numbering the historical Gaussian-filter accelerator used -- for nine
    products the tree is 4 + 2 + 1 internal adders plus the final addition
    of the ninth product, on slots 0..7.  Returns ``(result, next_slot)``.

    Degenerate cases (contract pinned by ``tests/test_workload_mvm_signal.py``,
    hit by the 1-D MVM/signal workloads whose per-row sign groups can hold
    one or zero operands):

    * a **single value** passes through unchanged without consuming a slot
      and without calling ``combine``;
    * an **empty list** returns ``(empty, slot)`` when the ``empty``
      fallback is given (the group's additive identity -- slot counter
      untouched, ``combine`` never called) and raises the historical
      :class:`ValueError` otherwise, so callers that cannot provide an
      identity still fail loudly instead of crashing on ``values[0]``.
    """
    values = list(values)
    if not values:
        if empty is _NO_EMPTY:
            raise ValueError("cannot reduce an empty value list")
        return empty, slot
    while len(values) > 1:
        reduced = []
        for index in range(0, len(values) - 1, 2):
            reduced.append(combine(slot, values[index], values[index + 1]))
            slot += 1
        if len(values) % 2:
            reduced.append(values[-1])
        values = reduced
    return values[0], slot


def _concatenate(parts: Sequence):
    """Same-structure nested lists/tuples of arrays, concatenated leaf by leaf."""
    if isinstance(parts[0], np.ndarray):
        return np.concatenate(parts)
    return type(parts[0])(_concatenate(leaves) for leaves in zip(*parts))


@dataclass(frozen=True)
class ComponentSlot:
    """One group of operator slots of an accelerator datapath.

    ``kind`` matches the component kind that may be bound to the slots
    (``"multiplier"`` / ``"adder"``), ``count`` is how many such slots the
    datapath has, and ``operand_width`` is the case study's declared
    operand width in bits.  Narrower components are accepted at
    construction time (operands are masked to the component's own width),
    which keeps small test libraries usable; the declared width documents
    the paper's configuration.
    """

    kind: str
    count: int
    operand_width: int


@dataclass(frozen=True)
class SlotConfiguration:
    """Assignment of component indices to an accelerator's operator slots.

    The generic, workload-shape-agnostic configuration: slot counts are
    validated by the accelerator that creates it
    (:meth:`ApproxAccelerator.make_configuration`), not by the class.
    """

    multiplier_indices: Tuple[int, ...]
    adder_indices: Tuple[int, ...]


class ApproxAccelerator(abc.ABC):
    """Base class / protocol of one approximate-accelerator workload.

    Subclasses declare the workload identity as class attributes
    (:attr:`workload_name`, :attr:`quality_metric`, :attr:`input_seed`)
    and implement the datapath (:meth:`_exact_from_planes` for images or
    :meth:`_prepare_input`, :meth:`_apply_planes`).  Everything the search and
    engine layers consume -- configuration sampling and mutation, design
    space size, composed cost, ``(quality, cost)`` evaluation against
    prepared inputs -- is provided here, generic over the slot counts.

    The constructor contract is shared by every workload:
    ``cls(multipliers, adders)`` with components of the matching kinds.
    """

    #: Registry key / human-readable identity of the workload.
    workload_name: str = "workload"
    #: :data:`repro.workloads.QUALITY_METRICS` key judging output quality.
    quality_metric: str = "ssim"
    #: Base seed of :meth:`default_inputs`; unique per workload so no two
    #: workloads silently share identical input sets.
    input_seed: int = 0

    def __init__(self, multipliers: Sequence, adders: Sequence):
        if not multipliers or not adders:
            raise ValueError("at least one multiplier and one adder component are required")
        for component in multipliers:
            if component.kind != "multiplier":
                raise ValueError(f"component {component.name!r} is not a multiplier")
        for component in adders:
            if component.kind != "adder":
                raise ValueError(f"component {component.name!r} is not an adder")
        self.multipliers = list(multipliers)
        self.adders = list(adders)
        # Resolve the metric once; unknown keys fail at construction time
        # with the registry's available-keys message.
        self._quality_fn = QUALITY_METRICS.get(self.quality_metric)

    # ------------------------------------------------------------------ #
    # Slot declaration
    # ------------------------------------------------------------------ #
    @property
    @abc.abstractmethod
    def num_multiplier_slots(self) -> int:
        """Number of multiplier slots of the datapath."""

    @property
    @abc.abstractmethod
    def num_adder_slots(self) -> int:
        """Number of adder slots of the datapath."""

    #: Declared operand widths of the case study (see :class:`ComponentSlot`).
    multiplier_width: int = 8
    adder_width: int = 16

    def slots(self) -> Tuple[ComponentSlot, ...]:
        """The component slots of the datapath, declared by kind and width."""
        return (
            ComponentSlot("multiplier", self.num_multiplier_slots, self.multiplier_width),
            ComponentSlot("adder", self.num_adder_slots, self.adder_width),
        )

    @property
    def design_space_size(self) -> int:
        """Number of distinct component assignments."""
        return (
            len(self.multipliers) ** self.num_multiplier_slots
            * len(self.adders) ** self.num_adder_slots
        )

    # ------------------------------------------------------------------ #
    # Configuration handling (shared by every workload; the RNG call
    # sequence is identical to the historical Gaussian implementation, so
    # seeded Gaussian runs stay bit-identical)
    # ------------------------------------------------------------------ #
    def make_configuration(
        self, multiplier_indices: Sequence[int], adder_indices: Sequence[int]
    ) -> SlotConfiguration:
        """A validated configuration for this workload's slot shape."""
        config = SlotConfiguration(
            tuple(int(i) for i in multiplier_indices),
            tuple(int(i) for i in adder_indices),
        )
        self.validate_configuration(config)
        return config

    def validate_configuration(self, config: SlotConfiguration) -> None:
        if len(config.multiplier_indices) != self.num_multiplier_slots:
            raise ValueError(
                f"{self.workload_name}: expected {self.num_multiplier_slots} "
                f"multiplier slots, got {len(config.multiplier_indices)}"
            )
        if len(config.adder_indices) != self.num_adder_slots:
            raise ValueError(
                f"{self.workload_name}: expected {self.num_adder_slots} "
                f"adder slots, got {len(config.adder_indices)}"
            )

    def exact_configuration(self) -> SlotConfiguration:
        """Configuration using the most accurate available component everywhere."""
        best_multiplier = int(np.argmin([c.error.med for c in self.multipliers]))
        best_adder = int(np.argmin([c.error.med for c in self.adders]))
        return SlotConfiguration(
            multiplier_indices=(best_multiplier,) * self.num_multiplier_slots,
            adder_indices=(best_adder,) * self.num_adder_slots,
        )

    def random_configuration(self, rng: np.random.Generator) -> SlotConfiguration:
        return SlotConfiguration(
            multiplier_indices=tuple(
                int(i)
                for i in rng.integers(0, len(self.multipliers), self.num_multiplier_slots)
            ),
            adder_indices=tuple(
                int(i) for i in rng.integers(0, len(self.adders), self.num_adder_slots)
            ),
        )

    def mutate_configuration(
        self, config: SlotConfiguration, rng: np.random.Generator
    ) -> SlotConfiguration:
        """Change the component of one randomly chosen slot (hill-climbing move)."""
        multiplier_indices = list(config.multiplier_indices)
        adder_indices = list(config.adder_indices)
        num_m = self.num_multiplier_slots
        num_a = self.num_adder_slots
        if rng.random() < num_m / (num_m + num_a):
            slot = int(rng.integers(0, num_m))
            multiplier_indices[slot] = int(rng.integers(0, len(self.multipliers)))
        else:
            slot = int(rng.integers(0, num_a))
            adder_indices[slot] = int(rng.integers(0, len(self.adders)))
        return SlotConfiguration(tuple(multiplier_indices), tuple(adder_indices))

    # ------------------------------------------------------------------ #
    # Inputs
    # ------------------------------------------------------------------ #
    def default_inputs(self, size: int = 48) -> List[np.ndarray]:
        """The workload's default seeded input set.

        Derived from :attr:`input_seed` (including instance-level
        overrides on ad-hoc workloads), so two workloads never share
        identical inputs unless they explicitly share a seed.
        """
        return default_image_set(size, seed=self.input_seed)

    # ------------------------------------------------------------------ #
    # Behavioural execution
    # ------------------------------------------------------------------ #
    #: Side length of the sliding window the datapath consumes (3 for the
    #: built-in 3x3 convolution-style workloads).
    window_size: int = 3

    def _shifted_planes(self, image: np.ndarray) -> List[np.ndarray]:
        """The window's neighbourhood planes of the image (reflect padding)."""
        pad = self.window_size // 2
        padded = np.pad(image.astype(np.int64), pad, mode="reflect")
        height, width = image.shape
        planes = []
        for dy in range(self.window_size):
            for dx in range(self.window_size):
                planes.append(padded[dy:dy + height, dx:dx + width])
        return planes

    def _exact_from_planes(self, planes: List[np.ndarray]) -> np.ndarray:
        """Golden output of one image's window planes, in exact integer arithmetic."""
        raise NotImplementedError

    @abc.abstractmethod
    def _apply_planes(self, planes: List[np.ndarray], config: SlotConfiguration) -> np.ndarray:
        """Configured datapath output over prepared operands.

        Elementwise along the operands' leading (pattern or block) axis, so
        stacked inputs each get the output they would get alone.
        """

    def _prepare_input(self, image: np.ndarray) -> Tuple[List[np.ndarray], np.ndarray]:
        """One image's flattened window planes and its exact reference output."""
        image = np.asarray(image)
        if image.ndim != 2:
            raise ValueError("expected a 2-D grayscale image")
        planes = self._shifted_planes(image)
        return [plane.ravel() for plane in planes], self._exact_from_planes(planes)

    def exact_filter(self, image: np.ndarray) -> np.ndarray:
        """Golden output of the datapath with exact integer arithmetic."""
        return self._prepare_input(image)[1]

    def apply(self, image: np.ndarray, config: SlotConfiguration) -> np.ndarray:
        """Output of the datapath when executed with the configured components."""
        return self._outputs(self.prepare_inputs([image]), config)[0]

    def prepare_inputs(self, inputs: Sequence[np.ndarray]) -> Tuple:
        """Precompute the work every configuration shares.

        Returns ``(operands, references, stops)``: every input's operands
        (:meth:`_prepare_input`) concatenated along the datapath's leading
        axis, each input's exact reference output, and the end offset of
        each input's output in the stacked datapath output.  Preparing once
        and evaluating a whole population against it is what makes
        generation-batched evaluation
        (:meth:`repro.engine.BatchEvaluator.evaluate_configurations`) pay
        the per-input work once instead of once per configuration.
        """
        items = [self._prepare_input(item) for item in inputs]
        if not items:
            raise ValueError("cannot prepare an empty input set")
        references = tuple(reference for _, reference in items)
        stops = tuple(np.cumsum([reference.size for reference in references]).tolist())
        return _concatenate([operands for operands, _ in items]), references, stops

    def _outputs(self, prepared: Tuple, config: SlotConfiguration) -> List[np.ndarray]:
        """Each prepared input's configured output, from one datapath pass."""
        operands, references, stops = prepared
        parts = np.split(self._apply_planes(operands, config), stops[:-1])
        return [part.reshape(reference.shape) for part, reference in zip(parts, references)]

    def _tap_products(
        self, planes: List[np.ndarray], taps: Sequence[Tuple[int, int, int]],
        config: SlotConfiguration,
    ) -> List[np.ndarray]:
        """Per-tap approximate products (multiplier slot ``i`` <-> tap ``i``).

        Each ``(dy, dx, coefficient)`` tap multiplies its window plane by
        the coefficient *magnitude* through the slot's assigned component;
        signs are applied by the caller's combination stage.
        """
        products: List[np.ndarray] = []
        for slot, (dy, dx, coefficient) in enumerate(taps):
            plane = planes[dy * self.window_size + dx]
            multiplier = self.multipliers[config.multiplier_indices[slot]]
            coefficients = np.full(plane.size, abs(coefficient), dtype=np.int64)
            products.append(multiplier.compute(plane, coefficients))
        return products

    def _reduce_groups(self, values: Sequence, groups: Sequence[Sequence[int]], combine) -> List:
        """One balanced :func:`reduce_balanced` tree per slot group.

        Groups are reduced in order with a single running adder-slot
        counter, so the group layout fully determines the slot numbering
        (and with it both the datapath wiring and the latency model).
        """
        slot = 0
        reduced = []
        for group in groups:
            total, slot = reduce_balanced([values[i] for i in group], combine, slot)
            reduced.append(total)
        return reduced

    def _slot_groups(self) -> List[List[int]]:
        """Adder-tree product groups of the datapath, in slot-numbering order.

        The single hook the shared accumulation and latency machinery needs:
        each group of product indices reduces through one balanced adder
        tree, groups in order sharing one running adder-slot counter.
        """
        raise NotImplementedError

    def _adder_combine(self, config: SlotConfiguration):
        """``(slot, left, right) -> sum`` through the slot's assigned adder."""

        def add(slot: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
            adder = self.adders[config.adder_indices[slot]]
            return adder.compute(left, right)

        return add

    def quality_prepared(self, prepared: Tuple, config: SlotConfiguration) -> float:
        """Mean of each prepared input's quality score, in input order."""
        _, references, _ = prepared
        outputs = self._outputs(prepared, config)
        return float(np.mean([self._quality_fn(r, o) for r, o in zip(references, outputs)]))

    def quality(self, inputs: Sequence[np.ndarray], config: SlotConfiguration) -> float:
        """Mean quality of the configured datapath against the exact one."""
        return self.quality_prepared(self.prepare_inputs(inputs), config)

    def evaluate_prepared(
        self, prepared: Tuple, config: SlotConfiguration
    ) -> Tuple[float, Dict[str, float]]:
        """(quality, hw cost) of one configuration against prepared inputs."""
        return self.quality_prepared(prepared, config), self.hw_cost(config)

    # ------------------------------------------------------------------ #
    # Cost model
    # ------------------------------------------------------------------ #
    def _latency(self, multiplier_latency: List[float], adder_latency: List[float]) -> float:
        """Critical-path latency through the workload's datapath topology.

        Mirrors the accumulation wiring of :meth:`_slot_groups` exactly:
        every group contributes its tree's critical path, and the slowest
        group bounds the datapath (the exact-logic combination stage is
        excluded, like the historical Gaussian model).  Workloads with a
        topology the group hook cannot express override this.
        """
        def combine(slot: int, left: float, right: float) -> float:
            return max(left, right) + adder_latency[slot]

        return max(self._reduce_groups(multiplier_latency, self._slot_groups(), combine))

    def hw_cost(self, config: SlotConfiguration) -> Dict[str, float]:
        """Composed FPGA cost of a configuration.

        Area and power add up over the component instances; latency follows
        the workload's datapath topology (documented substitution for
        re-synthesising the flat accelerator in Vivado).
        """
        multipliers = [self.multipliers[i] for i in config.multiplier_indices]
        adders = [self.adders[i] for i in config.adder_indices]
        area = sum(c.fpga.area_luts for c in multipliers) + sum(c.fpga.area_luts for c in adders)
        power = sum(c.fpga.total_power_mw for c in multipliers) + sum(
            c.fpga.total_power_mw for c in adders
        )
        latency = self._latency(
            [c.fpga.latency_ns for c in multipliers], [c.fpga.latency_ns for c in adders]
        )
        return {"area": float(area), "power": float(power), "latency": float(latency)}

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    def _workload_signature(self) -> Tuple:
        """Structural parameters distinguishing this workload's computation."""
        return ()

    def workload_token(self) -> str:
        """Digest of the workload's structural identity.

        Mixed into :func:`repro.engine.keys.accelerator_token`, so two
        workloads built from the same component libraries -- which would
        produce *different* quality values for the same slot assignment --
        can never alias each other's engine cache entries.
        """
        return blake_token(
            type(self).__name__, self.workload_name, self.quality_metric,
            *self._workload_signature(),
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(workload={self.workload_name!r}, "
            f"multipliers={len(self.multipliers)}, adders={len(self.adders)})"
        )


class VectorAccelerator(ApproxAccelerator):
    """Base class of 1-D signal workloads (MVM, FIR, DCT).

    The image-free half of the protocol: inputs are 1-D sample vectors
    (:func:`repro.workloads.inputs.default_signal_set`), an input's
    operands are whatever the subclass's :meth:`_prepare_signal` returns
    (shifted tap planes for FIR, sign/slice/block triples for the
    bit-sliced MVM, each leaf led by its sample or block axis), and the
    golden reference comes from :meth:`_exact_from_prepared`.  Everything
    downstream -- stacking a signal set in :meth:`prepare_inputs`, one
    datapath pass per configuration in ``evaluate_prepared``, cost
    composition, cache-key identity -- is the shared
    :class:`ApproxAccelerator` machinery, so the engine, search strategies
    and service treat 1-D workloads identically to the image trio.
    """

    def default_inputs(self, size: int = 48) -> List[np.ndarray]:
        """The workload's seeded 1-D signal set (``4 * size`` samples each)."""
        return default_signal_set(size, seed=self.input_seed)

    @abc.abstractmethod
    def _prepare_signal(self, signal: np.ndarray):
        """Per-input precomputation shared by every configuration."""

    @abc.abstractmethod
    def _exact_from_prepared(self, prepared) -> np.ndarray:
        """Golden output computed with exact integer arithmetic."""

    def _prepare_input(self, signal: np.ndarray) -> Tuple:
        """One signal's operands and its exact reference output."""
        signal = np.asarray(signal)
        if signal.ndim != 1:
            raise ValueError("expected a 1-D signal vector")
        operands = self._prepare_signal(signal.astype(np.int64))
        return operands, self._exact_from_prepared(operands)
