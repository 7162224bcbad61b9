"""Cache-key construction for the evaluation engine.

Every cached value is addressed by ``"<domain>:<context>:<subject>"``:

* the *domain* names what was computed (``err``, ``asic``, ``fpga``,
  ``axq`` for exact accelerator evaluations, ``fit`` for fitted
  surrogate models and ``zoo`` for a Table I model's validation scores
  and library estimates),
* the *context* is a digest of everything the computation depends on besides
  the subject itself (the golden reference, sampling seeds, synthesizer
  settings, image sets, a model's class and hyperparameters, ...),
* the *subject* identifies what was evaluated (a netlist fingerprint, an
  accelerator configuration or a digest of a model's training data and,
  for ``zoo``, its validation and library rows).

Keeping the context explicit makes the cache safe to share across whole
flows and across processes: two evaluations collide only when they would
genuinely produce the same bits.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable, Sequence

import numpy as np


def blake_token(*parts: object) -> str:
    """Short stable digest of a heterogeneous tuple of hashable-ish parts.

    Parts are rendered to bytes: ``bytes`` pass through, ``numpy`` arrays
    contribute shape + dtype + raw data, everything else goes through
    ``repr``.  A type marker and a separator are mixed in per part so that
    e.g. ``("ab", "c")`` and ``("a", "bc")`` cannot collide.
    """
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, bytes):
            digest.update(b"b")
            digest.update(part)
        elif isinstance(part, np.ndarray):
            digest.update(b"a")
            digest.update(repr((part.shape, str(part.dtype))).encode("utf-8"))
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(b"r")
            digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()


def cache_key(domain: str, context: str, subject: str) -> str:
    """Assemble the canonical three-part cache key."""
    return f"{domain}:{context}:{subject}"


def model_token(model) -> str:
    """Digest of a regressor's class and hyperparameters, its seed included.

    The cache context of ``fit`` and ``zoo`` entries: a fit is a pure
    function of this and its training data.  Duck-typed over
    ``get_params()`` (see :meth:`repro.ml.Regressor.get_params`); nested
    models, such as the regressor a :class:`repro.ml.ScaledRegressor`
    wraps, contribute their own token.
    """
    parts = [type(model).__module__, type(model).__qualname__]
    for name, value in sorted(model.get_params().items()):
        parts += [name, model_token(value) if hasattr(value, "get_params") else value]
    return blake_token(*parts)


def images_token(images: Iterable[np.ndarray]) -> str:
    """Digest of an image set (used to contextualise accelerator quality)."""
    return blake_token(*[np.asarray(image) for image in images])


def configuration_token(multiplier_indices: Sequence[int], adder_indices: Sequence[int]) -> str:
    """Compact subject token for an accelerator configuration."""
    m = ",".join(str(int(i)) for i in multiplier_indices)
    a = ",".join(str(int(i)) for i in adder_indices)
    return f"m{m}|a{a}"


def accelerator_token(accelerator) -> str:
    """Digest of an accelerator's component sets and workload identity.

    Duck-typed over anything exposing ``multipliers``/``adders`` sequences of
    components with a ``netlist.fingerprint()``; shared by
    :mod:`repro.autoax.search` and the engine's batched configuration
    evaluation so their ``axq`` cache keys can never drift apart.

    The components' FPGA reports (``component.fpga``, less the circuit
    name) are mixed in: an ``axq`` result holds the configuration's
    hardware cost, which is composed from them, so the same netlists
    synthesised for another device must not share entries.  Component
    sets without reports keep the fingerprint-only token.

    When the accelerator exposes a ``workload_token`` (every
    :class:`repro.workloads.ApproxAccelerator` does), it is mixed in: two
    workloads built from the *same* component libraries compute different
    qualities for the same slot assignment, so their cache entries must
    never alias.  Foreign duck-typed accelerators without the attribute
    keep the historical component-only token.
    """
    parts = [
        [component.netlist.fingerprint() for component in accelerator.multipliers],
        [component.netlist.fingerprint() for component in accelerator.adders],
    ]
    components = (*accelerator.multipliers, *accelerator.adders)
    reports = [getattr(component, "fpga", None) for component in components]
    if reports and all(report is not None for report in reports):
        # The reports' numbers packed as float64s, which digests ~5x faster
        # than their ``repr``.
        values = [
            value for report in reports
            for name, value in vars(report).items() if name != "circuit_name"
        ]
        parts.append(struct.pack(f"<{len(values)}d", *values))
    workload = getattr(accelerator, "workload_token", None)
    if workload is not None:
        parts.append(workload() if callable(workload) else workload)
    return blake_token(*parts)


def accelerator_context(accelerator, images, fidelity=None) -> str:
    """Cache context of exact accelerator evaluations on one input set.

    Inherits the workload namespacing of :func:`accelerator_token`, so
    ``axq`` entries are scoped to (workload, components, inputs).

    ``fidelity`` namespaces reduced-budget evaluations on a multi-fidelity
    ladder rung: the rung's pixel budget is mixed into the context on top
    of the (already reduced) image set, so a low-fidelity screen can never
    be served for a full-fidelity request even if an unrelated input set
    happened to hash identically.  Full-fidelity evaluations pass ``None``
    and keep the historical token."""
    if fidelity is None:
        return blake_token(accelerator_token(accelerator), images_token(images))
    return blake_token(
        accelerator_token(accelerator), images_token(images), f"fidelity={int(fidelity)}"
    )
