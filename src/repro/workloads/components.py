"""Approximate arithmetic components that accelerator workloads bind to slots.

An :class:`ApproxComponent` wraps one library circuit (an ApproxFPGAs
product) together with its FPGA cost report and error report -- everything
a workload needs to execute behaviourally and compose costs.  The helpers
here are workload-agnostic: any :class:`repro.workloads.ApproxAccelerator`
consumes the same component objects, so one Pareto-spread component pick
(:func:`components_from_library`) can feed several workloads through a
shared engine cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..circuits import Netlist
from ..error import ErrorReport
from ..fpga import FpgaReport, FpgaSynthesizer

__all__ = ["ApproxComponent", "components_from_library"]


@dataclass
class ApproxComponent:
    """One approximate arithmetic component available to an accelerator."""

    name: str
    kind: str
    netlist: Netlist
    fpga: FpgaReport
    error: ErrorReport
    _table: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def operand_width(self) -> int:
        return self.netlist.word_width("a")

    def _lookup_table(self) -> np.ndarray:
        """Exhaustive output table (built lazily, only for narrow operands)."""
        if self._table is None:
            self._table = self.netlist.exhaustive_outputs()
        return self._table

    def compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Behaviourally evaluate the component, each operand masked to its port's width."""
        width_a = self.operand_width
        width_b = self.netlist.word_width("b")
        a = np.asarray(a, dtype=np.int64) & ((1 << width_a) - 1)
        b = np.asarray(b, dtype=np.int64) & ((1 << width_b) - 1)
        if width_a + width_b <= 20:
            return self._lookup_table()[a * (1 << width_b) + b]
        return self.netlist.evaluate_words({"a": a, "b": b})


def components_from_library(
    library,
    count: int,
    fpga_synthesizer: Optional[FpgaSynthesizer] = None,
    parameter: str = "area",
    max_error: float = 0.1,
    seed: int = 5,
    engine: Optional["BatchEvaluator"] = None,  # noqa: F821
) -> List[ApproxComponent]:
    """Pick ``count`` Pareto-spread components from a library.

    The circuits are synthesized, circuits whose MED exceeds ``max_error``
    are discarded (an accelerator built from arbitrarily wrong arithmetic is
    useless, and the paper feeds AutoAx-FPGA only Pareto-optimal components),
    the (error, cost) Pareto front of the remainder is computed and ``count``
    components are taken spread along the front.  If the front is shorter
    than ``count`` the least-error dominated circuits fill in.

    Evaluation is batched through :class:`repro.engine.BatchEvaluator`; pass
    an ``engine`` (e.g. one shared with an ApproxFPGAs flow over the same
    library) to reuse its cached error metrics and FPGA reports.
    """
    from ..core.pareto import pareto_front_indices
    from ..engine import BatchEvaluator

    if engine is None:
        engine = BatchEvaluator(
            library.reference(), fpga_synthesizer=fpga_synthesizer or FpgaSynthesizer()
        )
    elif fpga_synthesizer is not None:
        if engine.fpga_synthesizer is None:
            engine.fpga_synthesizer = fpga_synthesizer
        elif engine.fpga_synthesizer is not fpga_synthesizer:
            raise ValueError(
                "conflicting fpga_synthesizer: the provided engine already has "
                "its own; pass one or the other"
            )
    all_circuits = list(library)
    all_errors = engine.evaluate_errors(all_circuits)
    keep = [i for i, e in enumerate(all_errors) if e.med <= max_error]
    if len(keep) < count:
        # Not enough accurate circuits: fall back to the lowest-error ones.
        keep = sorted(range(len(all_circuits)), key=lambda i: all_errors[i].med)[: max(count, 1)]
    circuits = [all_circuits[i] for i in keep]
    errors = [all_errors[i] for i in keep]
    reports = engine.evaluate_fpga(circuits)

    points = np.column_stack(
        [[e.med for e in errors], [r.parameter(parameter) for r in reports]]
    )
    front = pareto_front_indices(points)
    if len(front) >= count:
        chosen = [front[i] for i in np.linspace(0, len(front) - 1, count).round().astype(int)]
        # linspace rounding may duplicate for short fronts; de-duplicate then top up.
        chosen = list(dict.fromkeys(chosen))
    else:
        chosen = list(front)
    remaining = sorted(
        (i for i in range(len(circuits)) if i not in set(chosen)),
        key=lambda i: errors[i].med,
    )
    while len(chosen) < count and remaining:
        chosen.append(remaining.pop(0))

    return [
        ApproxComponent(
            name=circuits[i].name,
            kind=circuits[i].kind,
            netlist=circuits[i],
            fpga=reports[i],
            error=errors[i],
        )
        for i in chosen[:count]
    ]
