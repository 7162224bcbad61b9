"""Cache-key completeness for the engine's ``err`` domain.

Every knob that changes an error report must change the ``err`` context,
and the knobs declared result-invariant (the engine's ``mode``,
``max_workers`` and cache instance) must keep it.  The default contexts
are pinned, so disk stores written by earlier versions stay warm.
"""

from __future__ import annotations

import pytest

from repro.engine import BatchEvaluator, EvalCache
from repro.error import ErrorEvaluator
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


@pytest.mark.parametrize(
    "engine_knobs",
    [
        lambda tmp_path: {"mode": "process"},
        lambda tmp_path: {"max_workers": 4},
        lambda tmp_path: {"cache": EvalCache(store=ShardedJsonStore(tmp_path, shards=2))},
    ],
    ids=["mode", "max_workers", "cache"],
)
def test_engine_knobs_keep_the_key(engine_knobs, tmp_path):
    evaluator = ErrorEvaluator(**BASE_KNOBS)
    base = BatchEvaluator(error_evaluator=evaluator, mode="serial")
    other = BatchEvaluator(error_evaluator=evaluator, **engine_knobs(tmp_path))
    assert other._error_ctx() == base._error_ctx()
