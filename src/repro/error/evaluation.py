"""Error evaluation engines.

Small circuits (up to ~20 input bits) are evaluated exhaustively, exactly as
the paper does for 8-bit operands.  Larger circuits (12x12 and 16x16
multipliers would need 2^24 and 2^32 patterns) are evaluated with a seeded
Monte-Carlo sample, which is the standard practice when exhaustive
enumeration is infeasible.

:meth:`ErrorEvaluator.evaluate` is the one way an error report is computed
(the batch engine, its pool workers and every direct caller use it).  An
evaluator simulates every circuit on one shared operand set, so it packs
those operands into the input planes of each input-bit layout it meets
once, through :func:`repro.circuits.simulate.expand_operands`, and keeps
the planes.  The reference shares that memo with the circuits evaluated
after it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..circuits import Netlist
from ..circuits.simulate import (
    ExpandedOperands,
    exhaustive_operands,
    expand_operands,
    random_operands,
    simulate_expanded,
)
from .metrics import ErrorMetrics, compute_error_metrics


@dataclass(frozen=True)
class ErrorReport:
    """Error metrics plus provenance of how they were measured."""

    circuit_name: str
    metrics: ErrorMetrics
    num_patterns: int
    method: str
    """Either ``"exhaustive"`` or ``"monte_carlo"``."""

    @property
    def med(self) -> float:
        return self.metrics.med


class ErrorEvaluator:
    """Evaluates approximate circuits against a golden reference.

    Parameters
    ----------
    reference:
        The exact circuit defining correct behaviour.  Its input words must
        match (names and widths) those of every evaluated circuit.
    max_exhaustive_inputs:
        Exhaustive enumeration is used when the total input width does not
        exceed this limit; otherwise Monte-Carlo sampling is used.  A limit
        that admits a reference wider than
        :data:`~repro.circuits.simulate.MAX_EXHAUSTIVE_INPUTS` raises
        :class:`ValueError`.
    num_samples:
        Sample count for Monte-Carlo evaluation.
    seed:
        Seed for the Monte-Carlo operand generator (the same operands are
        reused for every circuit so results are comparable).
    """

    def __init__(
        self,
        reference: Netlist,
        max_exhaustive_inputs: int = 18,
        num_samples: int = 8192,
        seed: int = 1234,
    ):
        self.reference = reference
        self.max_exhaustive_inputs = max_exhaustive_inputs
        self.num_samples = num_samples
        self.seed = seed

        if reference.num_inputs <= max_exhaustive_inputs:
            self._operands = exhaustive_operands(reference)
            self._method = "exhaustive"
        else:
            rng = np.random.default_rng(seed)
            self._operands = random_operands(reference, num_samples, rng)
            self._method = "monte_carlo"
        self._max_output = (1 << reference.num_outputs) - 1
        self._layout_inputs: Dict[Tuple, ExpandedOperands] = {}
        self._exact_outputs = self._outputs(reference)

    def __reduce__(self):
        # Pickles as its constructor arguments (process-pool workers rebuild
        # the operands and reference outputs instead of receiving them).
        return (
            type(self),
            (self.reference, self.max_exhaustive_inputs, self.num_samples, self.seed),
        )

    # ------------------------------------------------------------------ #
    def _outputs(self, circuit: Netlist) -> np.ndarray:
        """Output words of ``circuit`` on the shared operands.

        The operands are packed into input planes once per input-bit layout.
        """
        layout = tuple(sorted((name, tuple(bits)) for name, bits in circuit.input_words.items()))
        inputs = self._layout_inputs.get(layout)
        if inputs is None:
            inputs = self._layout_inputs[layout] = expand_operands(circuit, self._operands)
        return simulate_expanded(circuit, inputs)

    @property
    def method(self) -> str:
        return self._method

    @property
    def num_patterns(self) -> int:
        return int(len(self._exact_outputs))

    @property
    def operands(self):
        """The shared operand vectors every circuit is evaluated on."""
        return self._operands

    @property
    def exact_outputs(self) -> np.ndarray:
        """Reference output word for the shared operands."""
        return self._exact_outputs

    @property
    def max_output(self) -> int:
        """Maximum representable output value (normalises MED / relative WCE)."""
        return self._max_output

    def _check_interface(self, circuit: Netlist) -> None:
        """Validate that ``circuit`` has the reference's word-level interface."""
        if set(circuit.input_words) != set(self.reference.input_words):
            raise ValueError(
                f"circuit {circuit.name!r} input words {sorted(circuit.input_words)} do not "
                f"match the reference {sorted(self.reference.input_words)}"
            )
        for name, bits in circuit.input_words.items():
            if len(bits) != len(self.reference.input_words[name]):
                raise ValueError(
                    f"circuit {circuit.name!r} word {name!r} is {len(bits)} bits wide, "
                    f"reference expects {len(self.reference.input_words[name])}"
                )

    def evaluate(self, circuit: Netlist) -> ErrorReport:
        """Error metrics of ``circuit`` against the reference."""
        self._check_interface(circuit)
        return ErrorReport(
            circuit_name=circuit.name,
            metrics=compute_error_metrics(
                self._exact_outputs, self._outputs(circuit), self._max_output
            ),
            num_patterns=self.num_patterns,
            method=self._method,
        )


def evaluate_error(
    circuit: Netlist,
    reference: Netlist,
    max_exhaustive_inputs: int = 18,
    num_samples: int = 8192,
    seed: int = 1234,
) -> ErrorReport:
    """One-shot convenience wrapper around :class:`ErrorEvaluator`."""
    evaluator = ErrorEvaluator(
        reference,
        max_exhaustive_inputs=max_exhaustive_inputs,
        num_samples=num_samples,
        seed=seed,
    )
    return evaluator.evaluate(circuit)
