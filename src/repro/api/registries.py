"""The package's plugin registries, collected in one place.

Six string-keyed extension points cover the axes along which scenarios
vary:

* :data:`repro.ml.MODELS` -- cost-model regressors (Table I zoo built in),
* :data:`repro.error.ERROR_METRICS` -- error-metric extractors,
* :data:`SYNTHESIZERS` (here) -- synthesis substrates,
* :data:`repro.workloads.WORKLOADS` -- accelerator case studies: the image
  filters ``"gaussian"``, ``"sobel"``, ``"sharpen"`` and the 1-D signal
  workloads ``"mvm"``, ``"dct"``, ``"fir"``, ``"fir_mixed"``; re-exported
  here,
* :data:`repro.workloads.QUALITY_METRICS` -- workload quality metrics
  (``"ssim"``, ``"psnr"``, ``"snr"``, ``"gms"``), re-exported here,
* :data:`repro.autoax.SEARCH_STRATEGIES` -- configuration-space searches
  (``"hill_climb"``, ``"random_archive"``, the population-based
  ``"nsga2"`` built on :mod:`repro.search` and the multi-fidelity
  ``"sh_ehvi"``); it is not re-exported here because :mod:`repro.autoax`
  builds on :mod:`repro.api` -- import it from :mod:`repro.autoax` instead.

Each is a :class:`repro.registry.Registry`; unknown keys raise
:class:`repro.registry.RegistryError` listing the available keys.
"""

from __future__ import annotations

from ..asic import AsicSynthesizer
from ..error.metrics import ERROR_METRICS
from ..fpga import FpgaSynthesizer
from ..ml.model_zoo import MODELS
from ..registry import Registry, RegistryError
from ..workloads import QUALITY_METRICS, WORKLOADS

__all__ = [
    "Registry",
    "RegistryError",
    "MODELS",
    "ERROR_METRICS",
    "SYNTHESIZERS",
    "WORKLOADS",
    "QUALITY_METRICS",
    "resolve_synthesizer",
]

#: Registry of synthesis-substrate factories (no-argument callables).  The
#: built-in keys are ``"fpga"`` (the paper's target substrate) and
#: ``"asic"`` (the cheap ASIC cost model); alternative devices or external
#: tool adapters plug in by registering a new key.
SYNTHESIZERS = Registry(
    "synthesizer",
    {"fpga": FpgaSynthesizer, "asic": AsicSynthesizer},
)


def resolve_synthesizer(spec):
    """A synthesizer instance from a registry key or a ready-made object."""
    if isinstance(spec, str):
        return SYNTHESIZERS.get(spec)()
    return spec
