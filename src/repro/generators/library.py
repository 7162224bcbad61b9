"""Circuit-library construction.

A :class:`CircuitLibrary` is the reproduction's stand-in for EvoApproxLib: a
named collection of gate-level approximate circuits of a single kind and
bit-width, always containing the exact reference circuit, with a seeded
generator that can scale the library to an arbitrary size by combining every
parametric family with random functional perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..circuits import Netlist
from . import adders, exact, multipliers
from .perturbation import perturbation_sweep


@dataclass
class CircuitLibrary:
    """A collection of approximate circuits of one kind and bit-width."""

    name: str
    kind: str
    bitwidth: int
    circuits: List[Netlist] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._reference: Optional[Netlist] = None
        self._by_name: Dict[str, Netlist] = {}
        for circuit in self.circuits:
            self._register(circuit)

    def _register(self, circuit: Netlist) -> None:
        if circuit.name in self._by_name:
            raise ValueError(f"duplicate circuit name {circuit.name!r} in library {self.name!r}")
        self._by_name[circuit.name] = circuit

    # ------------------------------------------------------------------ #
    def add(self, circuit: Netlist) -> None:
        """Add a circuit (names must be unique within the library)."""
        self._register(circuit)
        self.circuits.append(circuit)

    def __len__(self) -> int:
        return len(self.circuits)

    def __iter__(self) -> Iterator[Netlist]:
        return iter(self.circuits)

    def __getitem__(self, index: int) -> Netlist:
        return self.circuits[index]

    def get(self, name: str) -> Netlist:
        """Look a circuit up by name."""
        return self._by_name[name]

    def names(self) -> List[str]:
        return [circuit.name for circuit in self.circuits]

    @property
    def exact_circuits(self) -> List[Netlist]:
        """Circuits flagged as exact by their generator."""
        return [circuit for circuit in self.circuits if circuit.meta.get("exact")]

    def reference(self) -> Netlist:
        """Golden reference used for error evaluation, built on first use.

        The same netlist is returned on every call, so its fingerprint and
        structure are derived once per library.
        """
        if self._reference is None:
            self._reference = exact.exact_reference(self.kind, self.bitwidth)
        return self._reference

    def random_subset(self, fraction: float, seed: int) -> List[Netlist]:
        """Uniformly random subset of the library (at least one circuit)."""
        if not (0.0 < fraction <= 1.0):
            raise ValueError("fraction must be in (0, 1]")
        rng = np.random.default_rng(seed)
        count = max(1, int(round(fraction * len(self.circuits))))
        indices = rng.choice(len(self.circuits), size=count, replace=False)
        return [self.circuits[i] for i in sorted(indices)]

    def families(self) -> Dict[str, int]:
        """Number of circuits per generator family."""
        counts: Dict[str, int] = {}
        for circuit in self.circuits:
            family = str(circuit.meta.get("family", "unknown"))
            counts[family] = counts.get(family, 0) + 1
        return counts


# ---------------------------------------------------------------------- #
# Library builders
# ---------------------------------------------------------------------- #
def _unique_extend(library: CircuitLibrary, candidates: Sequence[Netlist], limit: int) -> None:
    """Add candidates until the library reaches ``limit`` circuits."""
    for circuit in candidates:
        if len(library) >= limit:
            return
        if circuit.name in set(library.names()):
            continue
        library.add(circuit)


#: Fraction of a library drawn from the hand-designed parametric families; the
#: remainder comes from seeded perturbations.  EvoApproxLib is dominated by
#: CGP-evolved (frequently dominated) circuits, and the Pareto machinery needs
#: that long tail of dominated designs to be exercised realistically.
_PARAMETRIC_FRACTION = 0.55


def _parametric_budget(size: int) -> int:
    return max(2, min(size, int(round(_PARAMETRIC_FRACTION * size)) + 1))


def build_adder_library(width: int, size: int = 120, seed: int = 7) -> CircuitLibrary:
    """Build a library of ``width``-bit approximate adders with ``size`` members.

    The parametric families (truncation, LOA, approximate-full-adder
    substitution, carry-cut) are enumerated first (up to ~55% of the library);
    the remainder is filled with seeded perturbations of the exact adder,
    mirroring the CGP-derived portion of EvoApproxLib.
    """
    if size < 1:
        raise ValueError("library size must be at least 1")
    library = CircuitLibrary(name=f"adders_{width}bit", kind="adder", bitwidth=width)

    parametric: List[Netlist] = [exact.ripple_carry_adder(width)]
    if width >= 4:
        parametric.append(exact.carry_select_adder(width, block=max(2, width // 4)))
    for cut in range(1, width):
        parametric.append(adders.truncated_adder(width, cut))
    for cut in range(1, width):
        parametric.append(adders.lower_or_adder(width, cut, speculate_carry=True))
    for cut in range(2, width, 2):
        parametric.append(adders.lower_or_adder(width, cut, speculate_carry=False))
    for variant in (1, 2, 3, 4):
        for cut in range(1, width, 1 if width <= 8 else 2):
            parametric.append(adders.approximate_fa_adder(width, cut, variant))
    for segment in (2, 4, max(2, width // 2)):
        for lookback in (0, 1, 2, 4):
            if segment < width:
                parametric.append(adders.carry_cut_adder(width, segment, lookback))

    _unique_extend(library, parametric, _parametric_budget(size))

    if len(library) < size:
        base = exact.ripple_carry_adder(width, name=f"add{width}_rca_seed")
        extra = perturbation_sweep(
            base,
            count=size - len(library),
            seed=seed,
            min_mutations=1,
            max_mutations=max(4, width),
        )
        _unique_extend(library, extra, size)
    return library


def build_multiplier_library(width: int, size: int = 200, seed: int = 11) -> CircuitLibrary:
    """Build a library of ``width x width`` approximate multipliers.

    Mirrors :func:`build_adder_library`; the parametric families are
    truncation, broken-array, OR partial products, approximate reduction
    cells and (for power-of-two widths) Kulkarni-style recursive multipliers.
    """
    if size < 1:
        raise ValueError("library size must be at least 1")
    library = CircuitLibrary(name=f"multipliers_{width}x{width}", kind="multiplier", bitwidth=width)

    parametric: List[Netlist] = [exact.array_multiplier(width), exact.wallace_multiplier(width)]
    for cut in range(1, width + width // 2):
        parametric.append(multipliers.truncated_multiplier(width, cut))
    for horizontal in range(0, width, max(1, width // 8)):
        for vertical in range(0, width + 1, max(1, width // 4)):
            if horizontal == 0 and vertical == 0:
                continue
            parametric.append(multipliers.broken_array_multiplier(width, horizontal, vertical))
    for cut in range(1, width + 1):
        parametric.append(multipliers.or_partial_product_multiplier(width, cut))
    for variant in (1, 2, 3, 4):
        for cut in range(1, width, 1 if width <= 8 else 2):
            parametric.append(multipliers.approximate_cell_multiplier(width, cut, variant))
    if width >= 4 and width & (width - 1) == 0:
        for level in range(0, width + 1, 2):
            parametric.append(multipliers.recursive_multiplier(width, level))

    _unique_extend(library, parametric, _parametric_budget(size))

    if len(library) < size:
        base = exact.array_multiplier(width)
        base = base.copy(name=f"mul{width}x{width}_seed")
        extra = perturbation_sweep(
            base,
            count=size - len(library),
            seed=seed,
            min_mutations=2,
            max_mutations=max(6, 2 * width),
        )
        _unique_extend(library, extra, size)
    return library


def build_library(kind: str, width: int, size: int, seed: int = 7) -> CircuitLibrary:
    """Dispatch helper used by the methodology and the benchmarks."""
    if kind == "adder":
        return build_adder_library(width, size=size, seed=seed)
    if kind == "multiplier":
        return build_multiplier_library(width, size=size, seed=seed)
    raise ValueError(f"unknown circuit kind {kind!r}")


def default_library_plan() -> List[Dict[str, object]]:
    """The six libraries evaluated in the paper (Fig. 3 / Fig. 8).

    Sizes are scaled down from EvoApproxLib so the full reproduction runs on
    a laptop; the ratios between adder and multiplier library sizes follow
    the paper (the multiplier libraries are much larger).
    """
    return [
        {"kind": "adder", "width": 8, "size": 96},
        {"kind": "adder", "width": 12, "size": 80},
        {"kind": "adder", "width": 16, "size": 72},
        {"kind": "multiplier", "width": 8, "size": 180},
        {"kind": "multiplier", "width": 12, "size": 96},
        {"kind": "multiplier", "width": 16, "size": 64},
    ]
