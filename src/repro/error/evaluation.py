"""Error evaluation engines.

Small circuits (up to ~20 input bits) are evaluated exhaustively, exactly as
the paper does for 8-bit operands.  Larger circuits (12x12 and 16x16
multipliers would need 2^24 and 2^32 patterns) are evaluated with a seeded
Monte-Carlo sample, which is the standard practice when exhaustive
enumeration is infeasible.

:meth:`ErrorEvaluator.evaluate` is the one way an error report is computed
(the batch engine, its pool workers and every direct caller use it).  An
evaluator simulates every circuit on one shared operand set, so it expands
those operands into each input-bit layout it meets once and keeps only the
form the simulation path consumes: packed planes from
:data:`~repro.circuits.simulate.PACKED_MIN_PATTERNS` patterns up, the
boolean matrix below (:func:`~repro.circuits.simulate.use_packed_path`
picks; both paths are bit-identical, so the choice only affects speed).
The reference shares that memo with the circuits evaluated after it.  For
wide operands, ``chunk_patterns`` streams the evaluation over fixed-size
pattern blocks through :func:`repro.circuits.simulate_words` and an
:class:`~repro.error.metrics.ErrorAccumulator`, keeping peak memory flat
regardless of the pattern count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..circuits import (
    Netlist,
    bits_to_words,
    pack_bits,
    simulate_bits,
    simulate_planes,
    unpack_bits,
)
from ..circuits.simulate import (
    exhaustive_operands,
    expand_operand_bits,
    random_operands,
    simulate_words,
    use_packed_path,
)
from .metrics import ErrorAccumulator, ErrorMetrics, compute_error_metrics


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
        exceed this limit; otherwise Monte-Carlo sampling is used.
    num_samples:
        Sample count for Monte-Carlo evaluation.
    seed:
        Seed for the Monte-Carlo operand generator (the same operands are
        reused for every circuit so results are comparable).
    chunk_patterns:
        When set, simulation and metric computation stream over pattern
        blocks of at most this size (via :class:`ErrorAccumulator`), so
        peak memory is bounded by the block size instead of the full
        pattern count.  ``None`` (the default) evaluates in one shot.
    fidelity:
        Explicit pattern-budget rung for multi-fidelity search ladders.
        ``None`` (the default) keeps the standard behaviour above.  A
        positive integer caps the evaluation at that many patterns: if the
        budget covers the full exhaustive sweep (``2^num_inputs <=
        fidelity`` within ``max_exhaustive_inputs``) the rung *is* exact
        evaluation; otherwise the circuit is evaluated on a seeded
        Monte-Carlo sample of exactly ``fidelity`` patterns, even when it
        is small enough for exhaustive enumeration.  The method/pattern
        count are part of the engine's cache context, so a low-fidelity
        screen can never alias an exact result.
    """

    def __init__(
        self,
        reference: Netlist,
        max_exhaustive_inputs: int = 18,
        num_samples: int = 8192,
        seed: int = 1234,
        chunk_patterns: Optional[int] = None,
        fidelity: Optional[int] = None,
    ):
        if chunk_patterns is not None and chunk_patterns <= 0:
            raise ValueError("chunk_patterns must be positive (or None for one-shot)")
        if fidelity is not None and int(fidelity) < 1:
            raise ValueError("fidelity must be a positive pattern budget (or None)")
        self.reference = reference
        self.max_exhaustive_inputs = max_exhaustive_inputs
        self.num_samples = num_samples
        self.seed = seed
        self.chunk_patterns = chunk_patterns
        self.fidelity = None if fidelity is None else int(fidelity)

        exhaustive_ok = reference.num_inputs <= max_exhaustive_inputs
        if self.fidelity is not None:
            budget_covers_exact = (
                exhaustive_ok
                and reference.num_inputs < 63
                and (1 << reference.num_inputs) <= self.fidelity
            )
            if budget_covers_exact:
                self._operands = exhaustive_operands(reference)
                self._method = "exhaustive"
            else:
                rng = np.random.default_rng(seed)
                self._operands = random_operands(reference, self.fidelity, rng)
                self._method = "monte_carlo"
        elif exhaustive_ok:
            self._operands = exhaustive_operands(reference)
            self._method = "exhaustive"
        else:
            rng = np.random.default_rng(seed)
            self._operands = random_operands(reference, num_samples, rng)
            self._method = "monte_carlo"
        self._num_patterns = int(len(next(iter(self._operands.values()))))
        self._max_output = (1 << reference.num_outputs) - 1
        self._layout_inputs: Dict[Tuple, np.ndarray] = {}
        self._exact_outputs = self._outputs(reference)

    def __reduce__(self):
        # Pickles as its constructor arguments (process-pool workers rebuild
        # the operands and reference outputs instead of receiving them).
        return (
            type(self),
            (
                self.reference,
                self.max_exhaustive_inputs,
                self.num_samples,
                self.seed,
                self.chunk_patterns,
                self.fidelity,
            ),
        )

    # ------------------------------------------------------------------ #
    @property
    def streaming(self) -> bool:
        """Whether evaluation actually streams over pattern blocks.

        A ``chunk_patterns`` at or above the pattern count degenerates to
        the one-shot path (and produces literally the same computation), so
        it does not count as streaming -- the engine keys its cache off this
        property.
        """
        return self.chunk_patterns is not None and self.chunk_patterns < self._num_patterns

    def _blocks(self) -> Iterator[Tuple[int, int]]:
        """(start, stop) pattern ranges of at most ``chunk_patterns`` each."""
        step = self.chunk_patterns or self._num_patterns
        for start in range(0, self._num_patterns, step):
            yield start, min(start + step, self._num_patterns)

    def _block_operands(self, start: int, stop: int) -> Dict[str, np.ndarray]:
        return {name: values[start:stop] for name, values in self._operands.items()}

    def _layout_input(self, circuit: Netlist, packed: bool) -> np.ndarray:
        """The shared operands in ``circuit``'s input-bit layout, expanded once.

        Kept only in the form the simulation path consumes (packed planes
        or the boolean matrix); the path is part of the key, so a patched
        ``PACKED_MIN_PATTERNS`` still finds the form it needs.
        """
        words = tuple(sorted((name, tuple(bits)) for name, bits in circuit.input_words.items()))
        layout = (packed, words)
        inputs = self._layout_inputs.get(layout)
        if inputs is None:
            inputs = expand_operand_bits(circuit, self._operands)
            if packed:
                inputs = pack_bits(inputs.T)
            self._layout_inputs[layout] = inputs
        return inputs

    def _outputs(self, circuit: Netlist) -> np.ndarray:
        """Output word on the shared operands, chunked when configured."""
        if self.streaming:
            return np.concatenate(
                [
                    simulate_words(circuit, self._block_operands(start, stop))
                    for start, stop in self._blocks()
                ]
            )
        packed = use_packed_path(self._num_patterns)
        inputs = self._layout_input(circuit, packed)
        if packed:
            output_bits = unpack_bits(simulate_planes(circuit, inputs), self._num_patterns).T
        else:
            output_bits = simulate_bits(circuit, inputs)
        return bits_to_words(output_bits)

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
        if not self.streaming:
            metrics = compute_error_metrics(
                self._exact_outputs, self._outputs(circuit), self._max_output
            )
        else:
            accumulator = ErrorAccumulator(self._max_output)
            for start, stop in self._blocks():
                approx_block = simulate_words(circuit, self._block_operands(start, stop))
                accumulator.update(self._exact_outputs[start:stop], approx_block)
            metrics = accumulator.result()
        return ErrorReport(
            circuit_name=circuit.name,
            metrics=metrics,
            num_patterns=self.num_patterns,
            method=self._method,
        )


def evaluate_error(
    circuit: Netlist,
    reference: Netlist,
    max_exhaustive_inputs: int = 18,
    num_samples: int = 8192,
    seed: int = 1234,
    chunk_patterns: Optional[int] = None,
    fidelity: Optional[int] = None,
) -> ErrorReport:
    """One-shot convenience wrapper around :class:`ErrorEvaluator`."""
    evaluator = ErrorEvaluator(
        reference,
        max_exhaustive_inputs=max_exhaustive_inputs,
        num_samples=num_samples,
        seed=seed,
        chunk_patterns=chunk_patterns,
        fidelity=fidelity,
    )
    return evaluator.evaluate(circuit)
