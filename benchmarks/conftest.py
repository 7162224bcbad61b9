"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The circuit
libraries and the main ApproxFPGAs flow result are session-scoped because
they are shared by several figures (Fig. 1, 3, 5, 7, 8 and Table II all draw
on the 8x8 multiplier library).

Library sizes are scaled down from EvoApproxLib (tens of thousands of
circuits) to laptop scale (tens to hundreds); EXPERIMENTS.md discusses how
this affects the absolute speedup numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExplorationSession
from repro.asic import AsicSynthesizer
from repro.core import ApproxFpgasConfig
from repro.error import ErrorEvaluator
from repro.fpga import FpgaSynthesizer
from repro.generators import build_adder_library, build_multiplier_library
from repro.workloads import components_from_library


@pytest.fixture(scope="session")
def fpga_synth() -> FpgaSynthesizer:
    return FpgaSynthesizer()


@pytest.fixture(scope="session")
def asic_synth() -> AsicSynthesizer:
    return AsicSynthesizer()


# --------------------------------------------------------------------- #
# Circuit libraries (the paper's six libraries, at reduced scale)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def mult8_library():
    return build_multiplier_library(8, size=280, seed=11)


@pytest.fixture(scope="session")
def mult12_library():
    return build_multiplier_library(12, size=90, seed=13)


@pytest.fixture(scope="session")
def mult16_library():
    return build_multiplier_library(16, size=80, seed=17)


@pytest.fixture(scope="session")
def adder8_library():
    return build_adder_library(8, size=150, seed=19)


@pytest.fixture(scope="session")
def adder12_library():
    return build_adder_library(12, size=110, seed=23)


@pytest.fixture(scope="session")
def adder16_library():
    return build_adder_library(16, size=110, seed=29)


# --------------------------------------------------------------------- #
# Measured data for the 8x8 multiplier library (Fig. 1)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def mult8_measurements(mult8_library, fpga_synth, asic_synth):
    """(errors, asic reports, fpga reports) for every 8x8 multiplier."""
    evaluator = ErrorEvaluator(mult8_library.reference())
    errors = [evaluator.evaluate(circuit).med for circuit in mult8_library]
    asic_reports = [asic_synth.synthesize(circuit) for circuit in mult8_library]
    fpga_reports = [fpga_synth.synthesize(circuit) for circuit in mult8_library]
    return np.array(errors), asic_reports, fpga_reports


# --------------------------------------------------------------------- #
# The main ApproxFPGAs flow result on the 8x8 multiplier library
# (Fig. 5, Table II, Fig. 7, Fig. 8 column, exploration accounting)
# --------------------------------------------------------------------- #
def _flow_config(**overrides) -> ApproxFpgasConfig:
    base = dict(
        training_fraction=0.12,
        min_training_circuits=14,
        validation_fraction=0.25,
        num_pseudo_fronts=2,
        top_k_models=2,
        seed=42,
        evaluate_coverage=True,
    )
    base.update(overrides)
    return ApproxFpgasConfig(**base)


@pytest.fixture(scope="session")
def flow_config_factory():
    return _flow_config


@pytest.fixture(scope="session")
def mult8_flow_result(mult8_library):
    return ExplorationSession().run_approxfpgas(mult8_library, _flow_config())


# --------------------------------------------------------------------- #
# AutoAx-FPGA components (Fig. 9): 9 multipliers + 8 adders, as in the paper
# --------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def autoax_components(fpga_synth):
    multiplier_library = build_multiplier_library(8, size=60, seed=31)
    adder_library = build_adder_library(16, size=40, seed=37)
    multipliers = components_from_library(
        multiplier_library, 9, fpga_synthesizer=fpga_synth, max_error=0.05
    )
    adders = components_from_library(
        adder_library, 8, fpga_synthesizer=fpga_synth, max_error=0.02
    )
    return multipliers, adders
