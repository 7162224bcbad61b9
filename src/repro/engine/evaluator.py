"""Batched, cached evaluation of circuit libraries and accelerator configurations.

:class:`BatchEvaluator` is the single entry point through which the
methodology, the exploration accounting and the AutoAx search evaluate
circuits (error metrics, ASIC and FPGA reports) and accelerator
configurations, through which AutoAx fits its estimators and through
which the methodology scores its Table I models.  Every domain (``err``,
``asic``, ``fpga``, ``axq``, ``fit`` and ``zoo``) runs through one loop,
:meth:`BatchEvaluator._evaluate`, which combines four mechanisms:

* **Caching** -- every result is stored in an :class:`~repro.engine.cache.EvalCache`
  under a key derived from the item (a circuit's structural fingerprint, a
  configuration's slot indices) and the full evaluation context, so repeated
  evaluations (flow stages, coverage passes, later sessions via the disk
  backend) are served without recomputation.
* **Dedupe** -- items with the same key within one call are computed once
  and fanned back out to every requesting index.
* **Batching** -- the misses of a call share one state: the
  :class:`~repro.error.ErrorEvaluator` (operands expanded once per input
  layout, reference outputs simulated once), a synthesizer, a model zoo's
  training, validation and library rows, or an accelerator's prepared
  inputs, which are prepared only when a batch has misses.
* **Fan-out** -- large miss sets can be dispatched to a
  :class:`~concurrent.futures.ProcessPoolExecutor`; one pool worker serves
  every domain, and results are reassembled in input order, so serial and
  parallel modes are bit-identical.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..asic import AsicReport, AsicSynthesizer
from ..circuits import Netlist
from ..error import ErrorEvaluator, ErrorReport
from ..error.metrics import ErrorMetrics
from ..fpga import FpgaReport, FpgaSynthesizer
from ..ml.base import Regressor, check_array, check_X_y
from ..ml.metrics import pearson_correlation, r2_score
from .cache import EvalCache
from .keys import accelerator_context, blake_token, cache_key, configuration_token, model_token

__all__ = [
    "BatchEvaluator",
    "error_report_to_payload",
    "error_report_from_payload",
    "asic_report_to_payload",
    "asic_report_from_payload",
    "fpga_report_to_payload",
    "fpga_report_from_payload",
]

#: In ``mode="auto"``, a batch fans out over the process pool from this many
#: misses up (and only when more than one CPU is available).
PARALLEL_THRESHOLD = 32


# --------------------------------------------------------------------- #
# Report <-> JSON-able payload conversion.  The cache stores payloads so a
# disk backend can serialise them; the stage pipelines (repro.api)
# checkpoint their artifacts with the same encoding.  ASIC and FPGA
# reports are frozen dataclasses of scalars, so their ``__dict__`` is their
# field dict in field order: what ``dataclasses.asdict`` returns, without
# its deep copy of every value.
# --------------------------------------------------------------------- #
def error_report_to_payload(report: ErrorReport) -> dict:
    return {
        "circuit_name": report.circuit_name,
        "metrics": report.metrics.as_dict(),
        "num_patterns": report.num_patterns,
        "method": report.method,
    }


def error_report_from_payload(payload: dict, circuit_name: str) -> ErrorReport:
    return ErrorReport(
        circuit_name=circuit_name,
        metrics=ErrorMetrics(**payload["metrics"]),
        num_patterns=int(payload["num_patterns"]),
        method=str(payload["method"]),
    )


def asic_report_to_payload(report: AsicReport) -> dict:
    return dict(vars(report))


def asic_report_from_payload(payload: dict, circuit_name: str) -> AsicReport:
    fields = dict(payload)
    fields["circuit_name"] = circuit_name
    return AsicReport(**fields)


def fpga_report_to_payload(report: FpgaReport) -> dict:
    return dict(vars(report))


def fpga_report_from_payload(payload: dict, circuit_name: str) -> FpgaReport:
    fields = dict(payload)
    fields["circuit_name"] = circuit_name
    return FpgaReport(**fields)


# --------------------------------------------------------------------- #
# Per-item computations, ``(state, item) -> payload``.  Module-level so
# the process pool can pickle them.
# --------------------------------------------------------------------- #
def _error_payload(evaluator: ErrorEvaluator, circuit: Netlist) -> dict:
    return error_report_to_payload(evaluator.evaluate(circuit))


def _synthesis_payload(synthesizer, circuit: Netlist) -> dict:
    # ASIC and FPGA reports both encode as their dataclass fields.
    return dict(vars(synthesizer.synthesize(circuit)))


def _configuration_payload(state, configuration) -> dict:
    accelerator, prepared = state
    quality, cost = accelerator.evaluate_prepared(prepared, configuration)
    return {"quality": float(quality), "cost": {name: float(v) for name, v in cost.items()}}


def _fit_payload(model: Regressor, data) -> dict:
    # A clone, so the caller's model stays unfitted.
    return model.clone().fit(*data).to_payload()


def _zoo_payload(data, model: Regressor) -> dict:
    # Imported here: repro.core imports this module through its stages.
    from ..core.fidelity import fidelity

    X_train, y_train, X_val, y_val, X_library = data
    fitted = model.clone()
    start = time.perf_counter()
    estimates = fitted.fit(X_train, y_train).predict(X_val)
    train_time_s = time.perf_counter() - start
    return {
        "fidelity": float(fidelity(y_val, estimates)),
        "pearson": float(pearson_correlation(y_val, estimates)),
        "r2": float(r2_score(y_val, estimates)),
        "train_time_s": float(train_time_s),
        "estimates": fitted.predict(X_library).tolist(),
    }


_WORKER_STATE: Dict[str, object] = {}


def _worker(task) -> List[dict]:
    """Compute one chunk of misses in a pool process.

    The state is kept per context token, so a process that receives several
    chunks of one batch reuses the first copy (and, for an error evaluator,
    its expanded operands).
    """
    context, state, compute, items = task
    state = _WORKER_STATE.setdefault(context, state)
    return [compute(state, item) for item in items]


def _chunk(items: List, num_chunks: int) -> List[List]:
    num_chunks = max(1, min(num_chunks, len(items)))
    bounds = np.linspace(0, len(items), num_chunks + 1).round().astype(int)
    return [items[bounds[i]:bounds[i + 1]] for i in range(num_chunks) if bounds[i] < bounds[i + 1]]


class BatchEvaluator:
    """Evaluates libraries of circuits with shared operands, caching and fan-out.

    Parameters
    ----------
    reference:
        Golden reference circuit for error evaluation, evaluated by a
        default :class:`~repro.error.ErrorEvaluator`.
    error_evaluator:
        A pre-built :class:`~repro.error.ErrorEvaluator` instead of
        ``reference`` (it carries its own reference), for non-default
        pattern budgets: ``max_exhaustive_inputs``, ``num_samples`` or
        ``seed``.  All three, with the evaluator's method and pattern
        count, are part of the ``err`` cache context, so sampled results
        are namespaced away from exhaustive ones.
        One of the two must be given before calling :meth:`evaluate_errors`.
    asic_synthesizer / fpga_synthesizer:
        Cost-model substrates; built with defaults on first use when omitted.
    cache:
        Shared :class:`EvalCache`; a private in-memory cache is created when
        omitted.  Pass an explicit cache to share hits across flows.
    mode:
        ``"serial"``, ``"process"`` or ``"auto"``.  ``auto`` uses a process
        pool only when the miss set is at least :data:`PARALLEL_THRESHOLD`
        and more than one CPU is available; anything else runs serially.
        Both modes produce bit-identical, input-ordered results.
    max_workers:
        Process-pool width (defaults to the CPU count).
    """

    def __init__(
        self,
        reference: Optional[Netlist] = None,
        *,
        error_evaluator: Optional[ErrorEvaluator] = None,
        asic_synthesizer: Optional[AsicSynthesizer] = None,
        fpga_synthesizer: Optional[FpgaSynthesizer] = None,
        cache: Optional[EvalCache] = None,
        mode: str = "auto",
        max_workers: Optional[int] = None,
    ):
        if mode not in ("auto", "serial", "process"):
            raise ValueError(f"unknown engine mode {mode!r}")
        if reference is not None and error_evaluator is not None:
            raise ValueError(
                "pass either a reference circuit or an error_evaluator (which "
                "carries its own reference), not both"
            )
        self.mode = mode
        self.max_workers = max_workers
        self.cache = cache if cache is not None else EvalCache()
        self.error_evaluator = (
            ErrorEvaluator(reference) if reference is not None else error_evaluator
        )
        self.asic_synthesizer = asic_synthesizer
        self.fpga_synthesizer = fpga_synthesizer

        self._prepared_images: Dict[str, object] = {}
        self._error_context: Optional[str] = None
        self._asic_context: Optional[str] = None
        self._fpga_context: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Contexts (everything a cached result depends on besides the circuit)
    # ------------------------------------------------------------------ #
    def _require_error_evaluator(self) -> ErrorEvaluator:
        if self.error_evaluator is None:
            raise ValueError(
                "BatchEvaluator needs a reference circuit or an error_evaluator "
                "to evaluate error metrics"
            )
        return self.error_evaluator

    def _error_ctx(self) -> str:
        # No simulation detail is part of the context: the op tape and the
        # bool oracle are bit-identical by contract (enforced by the
        # differential suite), whichever executor runs the tape.
        if self._error_context is None:
            evaluator = self._require_error_evaluator()
            self._error_context = blake_token(
                evaluator.reference.fingerprint(),
                evaluator.method,
                evaluator.num_patterns,
                evaluator.max_exhaustive_inputs,
                evaluator.num_samples,
                evaluator.seed,
                evaluator.max_output,
            )
        return self._error_context

    def _asic_ctx(self) -> str:
        if self._asic_context is None:
            if self.asic_synthesizer is None:
                self.asic_synthesizer = AsicSynthesizer()
            synth = self.asic_synthesizer
            self._asic_context = blake_token(
                synth.cell_library,
                synth.clock_period_ns,
                synth.activity_samples,
                synth.activity_seed,
            )
        return self._asic_context

    def _fpga_ctx(self) -> str:
        if self._fpga_context is None:
            if self.fpga_synthesizer is None:
                self.fpga_synthesizer = FpgaSynthesizer()
            synth = self.fpga_synthesizer
            self._fpga_context = blake_token(
                synth.device,
                synth.clock_period_ns,
                synth.activity_samples,
                synth.activity_seed,
            )
        return self._fpga_context

    # ------------------------------------------------------------------ #
    # The one cached / deduplicated / fanned-out loop
    # ------------------------------------------------------------------ #
    def _resolve_workers(self, num_misses: int) -> int:
        if self.mode == "serial" or num_misses == 0:
            return 0
        cpus = os.cpu_count() or 1
        workers = self.max_workers or cpus
        if self.mode == "process":
            return max(1, workers)
        if num_misses >= PARALLEL_THRESHOLD and cpus > 1 and workers > 1:
            return workers
        return 0

    def _evaluate(
        self,
        items: Sequence[object],
        keys: Sequence[str],
        context: str,
        state: Callable[[], object],
        compute: Callable[[object, object], dict],
    ) -> List[dict]:
        """Payloads for ``items`` (cache key ``keys[i]`` each), in input order.

        Misses are computed as ``compute(state(), item)``; ``state`` is
        called only when the batch has a miss, and ``compute`` must be a
        module-level function so the pool can pickle it.  Items sharing a
        key are computed once and served to every requesting index.
        """
        results: List[Optional[dict]] = [None] * len(items)
        pending: Dict[str, List[int]] = {}
        for index, key in enumerate(keys):
            if key in pending:
                pending[key].append(index)
                continue
            hit = self.cache.get(key)
            if hit is not None:
                results[index] = hit
            else:
                pending[key] = [index]
        if not pending:
            return results  # type: ignore[return-value]

        misses = [items[indices[0]] for indices in pending.values()]
        shared = state()
        payloads = None
        workers = self._resolve_workers(len(misses))
        if workers:
            chunks = _chunk(misses, workers)
            tasks = [(context, shared, compute, chunk) for chunk in chunks]
            try:
                with ProcessPoolExecutor(max_workers=len(chunks)) as executor:
                    payloads = [
                        payload
                        for chunk_result in executor.map(_worker, tasks)
                        for payload in chunk_result
                    ]
            except (OSError, BrokenExecutor, pickle.PicklingError, TypeError):
                # Sandboxed / fork-restricted environments, a worker dying
                # mid-run (OOM kill => BrokenProcessPool) or unpicklable
                # state: degrade to the serial loop below.
                pass
        if payloads is None:
            payloads = [compute(shared, item) for item in misses]

        for (key, indices), payload in zip(pending.items(), payloads):
            self.cache.put(key, payload)
            for index in indices:
                results[index] = payload
        return results  # type: ignore[return-value]

    def _evaluate_circuits(
        self,
        circuits: Sequence[Netlist],
        domain: str,
        context: str,
        state: object,
        compute: Callable[[object, Netlist], dict],
        decode: Callable[[dict, str], object],
    ) -> List[object]:
        circuits = list(circuits)
        keys = [cache_key(domain, context, circuit.fingerprint()) for circuit in circuits]
        payloads = self._evaluate(circuits, keys, context, lambda: state, compute)
        return [decode(payload, circuit.name) for payload, circuit in zip(payloads, circuits)]

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def evaluate_errors(self, circuits: Sequence[Netlist]) -> List[ErrorReport]:
        """Error reports for ``circuits`` (:meth:`ErrorEvaluator.evaluate` per miss)."""
        evaluator = self._require_error_evaluator()
        return self._evaluate_circuits(
            circuits, "err", self._error_ctx(), evaluator, _error_payload,
            error_report_from_payload,
        )

    def evaluate_asic(self, circuits: Sequence[Netlist]) -> List[AsicReport]:
        """ASIC area / timing / power reports for ``circuits``."""
        context = self._asic_ctx()
        return self._evaluate_circuits(
            circuits, "asic", context, self.asic_synthesizer, _synthesis_payload,
            asic_report_from_payload,
        )

    def evaluate_fpga(self, circuits: Sequence[Netlist]) -> List[FpgaReport]:
        """FPGA reports (#LUTs, latency, power) for ``circuits``."""
        context = self._fpga_ctx()
        return self._evaluate_circuits(
            circuits, "fpga", context, self.fpga_synthesizer, _synthesis_payload,
            fpga_report_from_payload,
        )

    def evaluate_configurations(
        self, accelerator, images, configurations, fidelity: Optional[int] = None
    ) -> List[dict]:
        """Exact ``{"quality", "cost"}`` payloads for accelerator configurations.

        The one exact-evaluation path of accelerator configurations (the
        AutoAx flow and its search strategies reach it through
        :meth:`repro.autoax.SearchContext.evaluate`): the input set is
        prepared once (every input's operands stacked into one datapath
        input, plus the golden reference outputs), only when the batch has
        a miss, and shared by the whole batch, so each configuration is one
        datapath pass over all inputs; the ``axq`` context digests the raw
        input set, not the prepared form.  Repeated configurations within
        one call are computed once, and
        large miss sets fan out over the process pool.  Results are cached
        under ``axq`` keys (:func:`repro.engine.keys.accelerator_context`,
        which namespaces by workload identity), so repeated studies and
        scenarios share them.

        ``fidelity`` is the multi-fidelity ladder rung: a total-pixel
        budget applied by centre-cropping the input images
        (:func:`repro.workloads.fidelity_inputs`) before evaluation.  A
        budget at or above the full pixel count is an identity -- the call
        is *exactly* a full-fidelity evaluation, sharing its cache keys --
        while a reduced budget namespaces the ``axq`` context by both the
        cropped image set and the rung, so screens never alias exact
        results.

        The accelerator only needs ``multipliers``/``adders`` component
        lists plus ``prepare_inputs`` and ``evaluate_prepared`` -- the
        engine stays decoupled from the concrete workload classes in
        :mod:`repro.workloads`.
        """
        configurations = list(configurations)
        images = list(images)
        reduced = False
        if fidelity is not None:
            from ..workloads.inputs import fidelity_inputs

            images, reduced = fidelity_inputs(images, int(fidelity))
        context = accelerator_context(
            accelerator, images, fidelity=int(fidelity) if reduced else None
        )
        keys = [
            cache_key(
                "axq",
                context,
                configuration_token(config.multiplier_indices, config.adder_indices),
            )
            for config in configurations
        ]

        def prepared_inputs():
            prepared = self._prepared_images.get(context)
            if prepared is None:
                prepared = accelerator.prepare_inputs(images)
                # Keep the memo tiny: a prepared set holds stacked copies
                # of its inputs' operands, and sessions rarely juggle more
                # than a few input sets.
                if len(self._prepared_images) >= 4:
                    self._prepared_images.clear()
                self._prepared_images[context] = prepared
            return accelerator, prepared

        return self._evaluate(
            configurations, keys, context, prepared_inputs, _configuration_payload
        )

    def fit(self, model: Regressor, X: np.ndarray, y: np.ndarray) -> Regressor:
        """``model`` fitted on ``(X, y)``, as restored from its ``fit`` payload.

        A fit is a pure function of the model's class and hyperparameters
        (its seed included) and of the training data, so it is cached like
        an exact evaluation: under ``fit`` keys whose context is
        :func:`~repro.engine.keys.model_token` and whose subject is a digest
        of ``X`` and ``y``.  A repeated fit -- a later scenario of the same
        study, a warm study, another tenant or a resumed service job --
        restores the fitted state instead of growing it again.  ``model``
        itself stays unfitted, and the returned model is always the one
        restored from the payload (:meth:`repro.ml.Regressor.to_payload`),
        so a fresh fit and a cache hit predict byte for byte alike.
        """
        X, y = check_X_y(X, y)
        context = model_token(model)
        key = cache_key("fit", context, blake_token(X, y))
        [payload] = self._evaluate([(X, y)], [key], context, lambda: model, _fit_payload)
        return model.restored(payload)

    def evaluate_models(
        self, models: Sequence[Regressor], X_train, y_train, X_val, y_val, X_library
    ) -> List[dict]:
        """One ``zoo`` entry per model: its validation scores and library estimates.

        A miss fits a clone of the model on ``(X_train, y_train)`` and
        predicts ``X_val``, timing both as ``train_time_s``; it scores those
        predictions against ``y_val`` (``fidelity``, ``pearson``, ``r2``)
        and predicts every row of ``X_library`` (``estimates``).  Entries
        are keyed by :func:`~repro.engine.keys.model_token` and one digest
        of the five arrays, so a repeated study fits nothing.  A hit serves
        the ``train_time_s`` of the run that computed it; no key includes
        timings.
        """
        X_train, y_train = check_X_y(X_train, y_train)
        X_val, y_val = check_X_y(X_val, y_val)
        data = (X_train, y_train, X_val, y_val, check_array(X_library))
        subject = blake_token(*data)
        keys = [cache_key("zoo", model_token(model), subject) for model in models]
        return self._evaluate(models, keys, subject, lambda: data, _zoo_payload)

    def stats(self):
        """Shortcut to the underlying cache statistics."""
        return self.cache.stats()
