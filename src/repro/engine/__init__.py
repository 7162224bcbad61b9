"""Parallel, content-addressed evaluation engine.

The engine is the shared hot path of the whole reproduction: the
ApproxFPGAs flow, the exploration-time accounting and the AutoAx-FPGA
search all route their circuit evaluations through a
:class:`BatchEvaluator` backed by an :class:`EvalCache`, so any circuit
(or accelerator configuration) is simulated and costed at most once per
evaluation context -- per process when the cache is in-memory, ever when
the disk backend is attached.
"""

from .cache import CacheStats, EvalCache
from .evaluator import (
    BatchEvaluator,
    asic_report_from_payload,
    error_report_from_payload,
    error_report_to_payload,
    fpga_report_from_payload,
)
from .keys import (
    accelerator_context,
    accelerator_token,
    blake_token,
    cache_key,
    configuration_token,
    images_token,
)

__all__ = [
    "CacheStats",
    "EvalCache",
    "BatchEvaluator",
    "asic_report_from_payload",
    "error_report_from_payload",
    "error_report_to_payload",
    "fpga_report_from_payload",
    "accelerator_context",
    "accelerator_token",
    "blake_token",
    "cache_key",
    "configuration_token",
    "images_token",
]
