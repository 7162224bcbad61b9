"""Regression pins for the shared-archive search refactor.

``tests/fixtures/search_golden.json`` was generated from the pre-refactor
list-based strategy implementations; these tests rebuild the identical
seeded setup and assert the strategies -- called through a
:class:`~repro.autoax.SearchContext` over a serial engine -- still produce
**bit-identical** results now that archives, memoisation and batched
evaluation sit underneath.  The dedupe tests pin the fix for the hill
climber's duplicate re-evaluation of unchanged configurations, and the one
surrogate-scoring path (one shared feature row per computed score, no
engine-cache traffic).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.autoax import QorEstimator, random_search
from repro.autoax import search as search_module
from repro.autoax.search import SEARCH_STRATEGIES, _estimated_evaluator
from repro.engine import BatchEvaluator, EvalCache

pytestmark = pytest.mark.search

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "search_golden.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def setup(autoax_searchables):
    """The exact setup the golden fixture was generated with."""
    return autoax_searchables


def signature(entries):
    return [
        {
            "multipliers": list(entry.config.multiplier_indices),
            "adders": list(entry.config.adder_indices),
            "quality": repr(entry.quality),
            "cost": {name: repr(value) for name, value in sorted(entry.cost.items())},
        }
        for entry in entries
    ]


def digest(entries) -> str:
    blob = json.dumps(signature(entries), sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


# --------------------------------------------------------------------- #
# Golden pins: seeded strategies are bit-identical to the pre-refactor code
# --------------------------------------------------------------------- #
class TestGoldenPins:
    def test_random_search_bit_identical(self, setup, golden):
        engine = BatchEvaluator(cache=EvalCache(), mode="serial")
        results = random_search(setup.accelerator, setup.images, 10, seed=23, engine=engine)
        assert digest(results) == golden["random_search"]

    @pytest.mark.parametrize("key", ["hill_climb", "random_archive"])
    def test_strategy_bit_identical(self, setup, golden, key):
        ctx = setup.ctx(iterations=60, seed=31)
        archive = SEARCH_STRATEGIES.get(key)(ctx)
        assert digest(archive) == golden[key]
        reevaluated = ctx.evaluate([entry.config for entry in archive])
        assert digest(reevaluated) == golden[f"{key}_reevaluated"]

    @pytest.mark.parametrize("key", ["hill_climb", "random_archive"])
    def test_strategy_bit_identical_with_cache(self, setup, golden, key):
        """Re-running over the same engine cache never changes results."""
        strategy = SEARCH_STRATEGIES.get(key)
        ctx = setup.ctx(iterations=60, seed=31)
        cold = strategy(ctx)
        warm = strategy(ctx)
        assert digest(cold) == golden[key]
        assert digest(warm) == golden[key]


# --------------------------------------------------------------------- #
# Engine-batched exact evaluation
# --------------------------------------------------------------------- #
class TestBatchedExactEvaluation:
    def test_process_mode_configurations_bit_identical(self, setup):
        """Process-pool fan-out (or its fallback) matches serial bits."""
        serial_engine = BatchEvaluator(cache=EvalCache(), mode="serial")
        process_engine = BatchEvaluator(cache=EvalCache(), mode="process", max_workers=2)
        rng = np.random.default_rng(41)
        configs = [setup.accelerator.random_configuration(rng) for _ in range(6)]
        serial = serial_engine.evaluate_configurations(setup.accelerator, setup.images, configs)
        parallel = process_engine.evaluate_configurations(setup.accelerator, setup.images, configs)
        assert serial == parallel

    def test_training_sample_bit_identical_on_a_warm_engine(self, setup):
        engine = BatchEvaluator(cache=EvalCache(), mode="serial")
        cold = random_search(setup.accelerator, setup.images, 8, seed=3, engine=engine)
        before = engine.stats()
        warm = random_search(setup.accelerator, setup.images, 8, seed=3, engine=engine)
        assert engine.stats().since(before).misses == 0
        for a, b in zip(cold, warm):
            assert (a.config, a.quality, a.cost) == (b.config, b.quality, b.cost)

    def test_inputs_prepared_only_for_misses_and_memoised(self, setup, monkeypatch):
        """A fully cached batch prepares no inputs; the first batch with a
        miss prepares them, and later batches in the same context reuse
        them."""
        accelerator, images = setup.accelerator, setup.images
        prepared = []

        def spy(inputs):
            prepared.append(len(inputs))
            return type(accelerator).prepare_inputs(accelerator, inputs)

        monkeypatch.setattr(accelerator, "prepare_inputs", spy)
        rng = np.random.default_rng(7)
        configs = []
        while len(configs) < 4:
            config = accelerator.random_configuration(rng)
            if config not in configs:
                configs.append(config)
        cache = EvalCache()
        BatchEvaluator(cache=cache, mode="serial").evaluate_configurations(
            accelerator, images, configs[:2]
        )
        assert prepared == [len(images)]

        engine = BatchEvaluator(cache=cache, mode="serial")
        prepared.clear()
        engine.evaluate_configurations(accelerator, images, configs[:2])
        assert prepared == []
        engine.evaluate_configurations(accelerator, images, configs[1:3])
        engine.evaluate_configurations(accelerator, images, configs[3:])
        assert prepared == [len(images)]
        assert cache.stats().misses == 4

    def test_duplicate_configurations_computed_once(self, setup):
        engine = BatchEvaluator(cache=EvalCache(), mode="serial")
        rng = np.random.default_rng(12)
        config = setup.accelerator.random_configuration(rng)
        payloads = engine.evaluate_configurations(
            setup.accelerator, setup.images, [config, config, config]
        )
        assert payloads[0] == payloads[1] == payloads[2]
        assert engine.stats().size == 1  # one cache entry for three requests
        # ctx.evaluate keeps request order and repeats, with exact values.
        other = setup.accelerator.random_configuration(rng)
        entries = setup.ctx(engine=engine).evaluate([config, other, config])
        assert [entry.config for entry in entries] == [config, other, config]
        for entry in entries:
            assert entry.quality == setup.accelerator.quality(setup.images, entry.config)
            assert entry.cost == setup.accelerator.hw_cost(entry.config)
        assert engine.stats().size == 2


# --------------------------------------------------------------------- #
# Hill-climb dedupe: unchanged configurations are never re-scored
# --------------------------------------------------------------------- #
class TestEstimatorDedupe:
    def test_memo_serves_revisited_configurations(self, setup):
        evaluate = _estimated_evaluator(setup.ctx())
        rng = np.random.default_rng(3)
        config = setup.accelerator.random_configuration(rng)
        first = evaluate(config)
        second = evaluate(config)
        assert second.quality == first.quality and second.cost == first.cost
        stats = evaluate.stats
        assert stats.evaluations == 2
        assert stats.computed == 1
        assert stats.memo_hits == 1
        assert stats.memo_hit_rate == pytest.approx(0.5)

    def test_hill_climb_computes_each_distinct_config_once(self, setup):
        """The latent-bug fix: the climber used to re-run the estimators on
        every revisit (mutating a slot back to the same component is a
        frequent move in a 4x3-component space)."""

        class CountingQor(QorEstimator):
            def __init__(self, inner):
                super().__init__()
                self.model = inner.model
                self.calls = 0

            def estimate_batch(self, *args, **kwargs):
                self.calls += 1
                return super().estimate_batch(*args, **kwargs)

        counting = CountingQor(setup.qor)
        iterations = 120
        archive = SEARCH_STRATEGIES.get("hill_climb")(
            setup.ctx(qor=counting, iterations=iterations, seed=31)
        )
        assert archive
        total_evaluations = iterations + 8  # iterations + initial archive
        # With only 4*3 components across 17 slots, revisits are guaranteed;
        # the memo must convert them into hits instead of recomputation.
        assert 0 < counting.calls < total_evaluations
        # And the memo never changes seeded results.
        plain = SEARCH_STRATEGIES.get("hill_climb")(setup.ctx(iterations=iterations, seed=31))
        assert digest(archive) == digest(plain)

    def test_hill_climb_builds_one_feature_row_per_computed_score(self, setup, monkeypatch):
        """Both estimators share one feature matrix per score."""
        rows = []
        evaluators = []
        build_matrix = search_module.configuration_feature_matrix
        make_evaluator = search_module._estimated_evaluator

        def counting_matrix(accelerator, configs):
            rows.append(len(configs))
            return build_matrix(accelerator, configs)

        def capturing_evaluator(ctx):
            evaluators.append(make_evaluator(ctx))
            return evaluators[-1]

        monkeypatch.setattr(search_module, "configuration_feature_matrix", counting_matrix)
        monkeypatch.setattr(search_module, "_estimated_evaluator", capturing_evaluator)
        SEARCH_STRATEGIES.get("hill_climb")(setup.ctx(iterations=120, seed=31))
        (evaluate,) = evaluators
        assert set(rows) == {1}
        assert len(rows) == evaluate.stats.computed
        assert evaluate.stats.memo_hits > 0

    def test_estimated_strategies_make_no_cache_lookups(self, setup):
        """Surrogate estimates never go through the engine cache: the
        in-run memo is their only reuse."""
        for key in ("hill_climb", "random_archive", "nsga2"):
            ctx = setup.ctx(iterations=120, seed=31)
            SEARCH_STRATEGIES.get(key)(ctx)
            assert ctx.engine.stats().lookups == 0, key
