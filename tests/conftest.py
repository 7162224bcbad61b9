"""Shared fixtures for the test suite.

Small circuit libraries and synthesizers are session-scoped because building
them is the dominant cost of many tests; every test treats them as
read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.asic import AsicSynthesizer
from repro.circuits import CompiledProgram, bits_to_words, simulate_bits
from repro.circuits import simulate as simulate_module
from repro.circuits.simulate import expand_operand_bits
from repro.error import ErrorEvaluator
from repro.error import evaluation as evaluation_module
from repro.fpga import FpgaSynthesizer
from repro.generators import (
    array_multiplier,
    build_adder_library,
    build_multiplier_library,
    ripple_carry_adder,
)


def _oracle_words(netlist, operands):
    return bits_to_words(simulate_bits(netlist, expand_operand_bits(netlist, operands)))


def _tape_forbidden(program, input_planes):
    raise AssertionError("the op tape ran while simulation was routed through the oracle")


def _route_through_oracle(patch) -> None:
    # Where production binds its simulation entry points: ``simulate_words``
    # (``Netlist.evaluate_words``, ``exhaustive_simulate``, component
    # lookup tables) and the error evaluator's expand/simulate pair.
    patch.setattr(simulate_module, "simulate_words", _oracle_words)
    patch.setattr(evaluation_module, "expand_operands", lambda netlist, operands: operands)
    patch.setattr(evaluation_module, "simulate_expanded", _oracle_words)
    patch.setattr(CompiledProgram, "run", _tape_forbidden)


@pytest.fixture(scope="session")
def oracle_words():
    """``words(netlist, operands)`` on the reference oracle: the ``bool``
    input matrix, ``simulate_bits`` and ``bits_to_words``."""
    return _oracle_words


@pytest.fixture(scope="session")
def oracle_route():
    """``route(patch)`` sends every production simulation through the
    ``oracle_words`` composition on the ``MonkeyPatch`` ``patch``; a
    simulation that still reaches the op tape fails the test."""
    return _route_through_oracle


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def adder8():
    return ripple_carry_adder(8)


@pytest.fixture(scope="session")
def multiplier4():
    return array_multiplier(4)


@pytest.fixture(scope="session")
def multiplier8():
    return array_multiplier(8)


@pytest.fixture(scope="session")
def small_multiplier_library():
    """A 4x4 multiplier library: fast enough for end-to-end flow tests."""
    return build_multiplier_library(4, size=60, seed=3)


@pytest.fixture(scope="session")
def small_adder_library():
    return build_adder_library(8, size=50, seed=5)


@pytest.fixture(scope="session")
def fpga_synth():
    return FpgaSynthesizer()


@pytest.fixture(scope="session")
def asic_synth():
    return AsicSynthesizer()


@pytest.fixture(scope="session")
def multiplier4_evaluator(small_multiplier_library):
    return ErrorEvaluator(small_multiplier_library.reference())


@pytest.fixture(scope="session")
def autoax_searchables():
    """A small accelerator plus fitted estimators for search-level tests.

    Narrow (4-bit multiplier / 8-bit adder) components keep the behavioural
    evaluation fast; the search machinery is width-agnostic.  ``ctx(**fields)``
    builds a :class:`repro.autoax.SearchContext` over them with a fresh
    serial engine (override any field, e.g. ``engine=...``).
    """
    from types import SimpleNamespace

    from repro.autoax import HwCostEstimator, QorEstimator, SearchContext, random_search
    from repro.engine import BatchEvaluator, EvalCache
    from repro.workloads import GaussianFilterAccelerator, components_from_library, default_image_set

    multipliers = components_from_library(
        build_multiplier_library(4, size=20, seed=2), 4, max_error=0.2
    )
    adders = components_from_library(
        build_adder_library(8, size=16, seed=4), 3, max_error=0.1
    )
    accelerator = GaussianFilterAccelerator(multipliers, adders)
    images = default_image_set(24)[:2]
    engine = BatchEvaluator(mode="serial")
    samples = random_search(accelerator, images, 12, seed=17, engine=engine)
    qor = QorEstimator().fit(accelerator, samples, engine=engine)
    hw = HwCostEstimator("area").fit(accelerator, samples, engine=engine)

    def ctx(**fields):
        fields.setdefault("engine", BatchEvaluator(cache=EvalCache(), mode="serial"))
        base = dict(accelerator=accelerator, qor=qor, hw=hw, images=images)
        return SearchContext(**dict(base, **fields))

    return SimpleNamespace(accelerator=accelerator, images=images, qor=qor, hw=hw, ctx=ctx)
