"""Cache-key completeness for the engine's ``err``, ``asic`` and ``fpga`` domains.

Every knob that changes a report must change its domain's context, and
the knobs declared result-invariant (the engine's ``mode``,
``max_workers`` and cache instance) must keep it.  The default contexts
are pinned, so disk stores written by earlier versions stay warm.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.asic import AsicSynthesizer
from repro.asic.cell_library import default_cell_library
from repro.circuits import GateType
from repro.engine import BatchEvaluator, EvalCache
from repro.error import ErrorEvaluator
from repro.fpga import FpgaSynthesizer
from repro.fpga.device import default_device
from repro.generators import array_multiplier, perturb_netlist, ripple_carry_adder
from repro.io import ShardedJsonStore

#: method -> (reference builder, its default ``err`` context).
PINNED_CONTEXTS = {
    "exhaustive": (lambda: array_multiplier(4), "d8b8f957621b46e69d0d56f1c26dca43"),
    "monte_carlo": (lambda: ripple_carry_adder(16), "48dd7868ec390740ed596ff9d7ed9383"),
}

#: A Monte-Carlo evaluator of a 4x4 multiplier, so every knob is live.
BASE_KNOBS = {
    "reference": array_multiplier(4),
    "max_exhaustive_inputs": 4,
    "num_samples": 200,
    "seed": 1,
}

#: One knob moved at a time; each changes the reports.
KNOB_CHANGES = {
    "reference": {"reference": perturb_netlist(array_multiplier(4), seed=3)},
    "max_exhaustive_inputs": {"max_exhaustive_inputs": 8},
    "num_samples": {"num_samples": 300},
    "seed": {"seed": 2},
}


#: domain -> (synthesizer class, engine keyword, context method, evaluate
#: method, default context).
SYNTHESIS_DOMAINS = {
    "asic": (
        AsicSynthesizer, "asic_synthesizer", "_asic_ctx", "evaluate_asic",
        "537ee0b53fe73d734455622e3621fa1f",
    ),
    "fpga": (
        FpgaSynthesizer, "fpga_synthesizer", "_fpga_ctx", "evaluate_fpga",
        "1bd5146898b021c533fa716a55bb948a",
    ),
}


def _library_with_wider_and_cell():
    library = default_cell_library()
    and_cell = dataclasses.replace(library.cells[GateType.AND], area_um2=2.0)
    return dataclasses.replace(library, cells={**library.cells, GateType.AND: and_cell})


#: domain -> knob -> synthesizer arguments moving that one knob; each
#: changes the probe's report.
SYNTHESIS_KNOB_CHANGES = {
    "asic": {
        "cell_library": {"cell_library": _library_with_wider_and_cell()},
        "clock_period_ns": {"clock_period_ns": 5.0},
        "activity_samples": {"activity_samples": 300},
        "activity_seed": {"activity_seed": 100},
    },
    "fpga": {
        "device": {"device": dataclasses.replace(default_device(), lut_delay_ns=0.2)},
        "clock_period_ns": {"clock_period_ns": 5.0},
        "activity_samples": {"activity_samples": 300},
        "activity_seed": {"activity_seed": 100},
    },
}

#: Engine knobs declared result-invariant.
ENGINE_KNOBS = {
    "mode": lambda tmp_path: {"mode": "process"},
    "max_workers": lambda tmp_path: {"max_workers": 4},
    "cache": lambda tmp_path: {"cache": EvalCache(store=ShardedJsonStore(tmp_path, shards=2))},
}


def synthesis_engine(domain, engine_knobs=None, **synthesizer_knobs):
    synthesizer, keyword = SYNTHESIS_DOMAINS[domain][:2]
    knobs = dict({"mode": "serial"}, **(engine_knobs or {}))
    return BatchEvaluator(**{keyword: synthesizer(**synthesizer_knobs)}, **knobs)


def error_engine(**overrides):
    evaluator = ErrorEvaluator(**dict(BASE_KNOBS, **overrides))
    return BatchEvaluator(error_evaluator=evaluator, mode="serial")


@pytest.mark.parametrize("method", sorted(PINNED_CONTEXTS))
def test_default_contexts_are_pinned(method):
    build, context = PINNED_CONTEXTS[method]
    engine = BatchEvaluator(build())
    assert engine.error_evaluator.method == method
    assert engine._error_ctx() == context


@pytest.mark.parametrize("knob", sorted(KNOB_CHANGES))
def test_each_result_knob_changes_the_key(knob):
    probe = [perturb_netlist(array_multiplier(4), seed=11)]
    base = error_engine()
    moved = error_engine(**KNOB_CHANGES[knob])
    assert moved.evaluate_errors(probe) != base.evaluate_errors(probe)
    assert moved._error_ctx() != base._error_ctx()


@pytest.mark.parametrize("engine_knob", sorted(ENGINE_KNOBS))
def test_engine_knobs_keep_the_key(engine_knob, tmp_path):
    evaluator = ErrorEvaluator(**BASE_KNOBS)
    base = BatchEvaluator(error_evaluator=evaluator, mode="serial")
    other = BatchEvaluator(error_evaluator=evaluator, **ENGINE_KNOBS[engine_knob](tmp_path))
    assert other._error_ctx() == base._error_ctx()


@pytest.mark.parametrize("domain", sorted(SYNTHESIS_DOMAINS))
def test_default_synthesis_contexts_are_pinned(domain):
    context_method, context = SYNTHESIS_DOMAINS[domain][2], SYNTHESIS_DOMAINS[domain][4]
    assert getattr(BatchEvaluator(), context_method)() == context
    assert getattr(synthesis_engine(domain), context_method)() == context


@pytest.mark.parametrize(
    "domain,knob",
    [(domain, knob) for domain in sorted(SYNTHESIS_KNOB_CHANGES)
     for knob in sorted(SYNTHESIS_KNOB_CHANGES[domain])],
)
def test_each_synthesis_knob_changes_the_key(domain, knob):
    context_method, evaluate = SYNTHESIS_DOMAINS[domain][2:4]
    probe = [perturb_netlist(array_multiplier(4), seed=11)]
    base = synthesis_engine(domain)
    moved = synthesis_engine(domain, **SYNTHESIS_KNOB_CHANGES[domain][knob])
    assert getattr(moved, evaluate)(probe) != getattr(base, evaluate)(probe)
    assert getattr(moved, context_method)() != getattr(base, context_method)()


@pytest.mark.parametrize("engine_knob", sorted(ENGINE_KNOBS))
@pytest.mark.parametrize("domain", sorted(SYNTHESIS_DOMAINS))
def test_engine_knobs_keep_the_synthesis_keys(domain, engine_knob, tmp_path):
    context_method = SYNTHESIS_DOMAINS[domain][2]
    base = synthesis_engine(domain)
    other = synthesis_engine(domain, ENGINE_KNOBS[engine_knob](tmp_path))
    assert getattr(other, context_method)() == getattr(base, context_method)()
