"""The search-strategy contract.

Every strategy is called as ``strategy(ctx, **tuning)`` with one frozen
:class:`~repro.autoax.SearchContext`; every exact value comes from the
context's engine; and the flow re-evaluates each strategy's candidates in
one exact pass, so study results carry exact measurements whatever the
strategy returned.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExplorationSession
from repro.autoax import (
    SEARCH_STRATEGIES,
    AutoAxConfig,
    SearchContext,
    random_search,
)
from repro.workloads import fidelity_inputs

pytestmark = pytest.mark.search

STRATEGIES = ("hill_climb", "random_archive", "nsga2", "sh_ehvi")


def _signature(entries):
    return [
        (e.config.multiplier_indices, e.config.adder_indices, e.quality, sorted(e.cost.items()))
        for e in entries
    ]


class TestSearchContext:
    def test_engine_is_required_for_exact_values(self, autoax_searchables):
        s = autoax_searchables
        with pytest.raises(TypeError, match="engine"):
            SearchContext(s.accelerator, s.qor, s.hw, s.images)
        with pytest.raises(TypeError, match="engine"):
            random_search(s.accelerator, s.images, 3)

    def test_evaluate_empty_batch_touches_nothing(self, autoax_searchables):
        ctx = autoax_searchables.ctx()
        assert ctx.evaluate([]) == []
        assert ctx.engine.stats().lookups == 0

    def test_reduced_rung_evaluates_the_centre_crop(self, autoax_searchables):
        s = autoax_searchables
        budget = sum(image.size for image in s.images) // 4
        cropped, reduced = fidelity_inputs(s.images, budget)
        assert reduced
        config = s.accelerator.random_configuration(np.random.default_rng(2))
        (entry,) = s.ctx().evaluate([config], fidelity=budget)
        assert entry.quality == s.accelerator.quality(cropped, config)


class TestStrategyContract:
    @pytest.mark.parametrize("key", STRATEGIES)
    def test_only_a_context_and_keyword_tuning_are_accepted(self, autoax_searchables, key):
        """The pre-context positional convention and flow inputs passed as
        tuning both fail loudly at the call, before any search work."""
        s = autoax_searchables
        strategy = SEARCH_STRATEGIES.get(key)
        with pytest.raises(TypeError):
            strategy(s.accelerator, s.qor, s.hw)
        with pytest.raises(TypeError):
            strategy(s.ctx(), images=s.images)
        with pytest.raises(TypeError):
            strategy(s.ctx(), 3)  # archive_limit is keyword-only

    def test_sh_ehvi_reports_rungs_not_surrogate_generations(self, autoax_searchables):
        """sh_ehvi's inner NSGA-II run reports no generations: the
        strategy's callback belongs to its rungs."""
        s = autoax_searchables
        fired, telemetry = [], {}
        ctx = s.ctx(iterations=40, on_generation=fired.append)
        SEARCH_STRATEGIES.get("sh_ehvi")(ctx, telemetry=telemetry)
        assert [stats["rung"] for stats in fired] == list(range(len(telemetry["rungs"])))
        assert all("generation" not in stats for stats in fired)


# --------------------------------------------------------------------- #
# The flow's one exact pass, per strategy
# --------------------------------------------------------------------- #
def _study(searchables, key, session):
    config = AutoAxConfig(
        parameters=("area",),
        num_training_samples=6,
        num_random_baseline=2,
        hill_climb_iterations=24,
        seed=5,
        search_strategy=key,
    )
    accelerator = searchables.accelerator
    return session.run_autoax(
        accelerator.multipliers, accelerator.adders, config, images=searchables.images
    )


class TestFlowExactPass:
    @pytest.mark.parametrize("key", STRATEGIES)
    def test_candidates_carry_exact_measurements(self, autoax_searchables, key):
        """Estimated candidates (hill_climb, random_archive, nsga2) leave the
        flow exactly re-evaluated, like sh_ehvi's already exact ones."""
        s = autoax_searchables
        scenario = _study(s, key, ExplorationSession(engine_mode="serial")).scenarios["area"]
        assert scenario.candidates and scenario.front
        for entry in scenario.candidates:
            assert entry.quality == s.accelerator.quality(s.images, entry.config)
            assert entry.cost == s.accelerator.hw_cost(entry.config)

    @pytest.mark.parametrize("key", STRATEGIES)
    def test_second_workspace_session_makes_no_miss(self, autoax_searchables, tmp_path, key):
        """A second session on the workspace returns the first session's
        candidates, fronts and baseline, served wholly from the disk cache."""
        s = autoax_searchables
        sessions = [
            ExplorationSession(workspace=tmp_path, engine_mode="serial") for _ in range(2)
        ]
        first, second = (_study(s, key, session) for session in sessions)
        assert sessions[1].stats().misses == 0 and sessions[1].stats().disk_hits > 0
        for parameter, scenario in first.scenarios.items():
            again = second.scenarios[parameter]
            assert _signature(again.candidates) == _signature(scenario.candidates)
            assert _signature(again.front) == _signature(scenario.front)
        assert _signature(second.baseline) == _signature(first.baseline)
