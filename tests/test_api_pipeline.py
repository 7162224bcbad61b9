"""Tests of the public API layer: registries, pipelines, sessions, reruns
served from the engine cache, and the search-strategy calling convention."""

from __future__ import annotations

import dataclasses
import importlib
import json
import re
from pathlib import Path

import pytest

from repro.api import (
    ERROR_METRICS,
    MODELS,
    SYNTHESIZERS,
    ExplorationSession,
    Pipeline,
    PipelineError,
    Registry,
    RegistryError,
    Stage,
)
from repro.autoax import SEARCH_STRATEGIES
from repro.core import ApproxFpgasConfig
from repro.io import ShardedJsonStore, result_to_dict
from repro.ml import ModelZooError, Regressor, build_model

# --------------------------------------------------------------------- #
# Registry semantics
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_register_get_and_order(self):
        registry = Registry("thing")
        registry.register("b", 2)
        registry.register("a", 1)
        assert registry.get("a") == 1
        assert registry["b"] == 2
        assert registry.keys() == ["b", "a"]  # insertion order, not sorted

    def test_register_decorator(self):
        registry = Registry("thing")

        @registry.register("fn")
        def fn():
            return 42

        assert registry.get("fn") is fn

    def test_unknown_key_lists_available(self):
        registry = Registry("widget", {"left": 1, "right": 2})
        with pytest.raises(RegistryError) as excinfo:
            registry.get("middle")
        message = str(excinfo.value)
        assert "unknown widget 'middle'" in message
        assert "left" in message and "right" in message

    def test_duplicate_registration_rejected_unless_overwrite(self):
        registry = Registry("thing", {"a": 1})
        with pytest.raises(RegistryError):
            registry.register("a", 2)
        registry.register("a", 2, overwrite=True)
        assert registry.get("a") == 2

    def test_unregister(self):
        registry = Registry("thing", {"a": 1})
        registry.unregister("a")
        assert "a" not in registry
        with pytest.raises(RegistryError):
            registry.unregister("a")

    def test_iteration_size_and_membership(self):
        registry = Registry("thing", {"a": 1, "b": 2})
        assert list(registry) == ["a", "b"]
        assert len(registry) == 2
        assert "a" in registry and "c" not in registry


# --------------------------------------------------------------------- #
# The built-in registries and their error paths
# --------------------------------------------------------------------- #
class TestBuiltinRegistries:
    def test_unknown_model_lists_available(self):
        with pytest.raises(ModelZooError) as excinfo:
            build_model("ML99", ["x"], random_state=0)
        assert "ML1" in str(excinfo.value)
        assert isinstance(excinfo.value, RegistryError)

    def test_custom_model_pluggable(self):
        from repro.ml import MeanRegressor

        MODELS.register("test-mean", lambda names, seed: MeanRegressor())
        try:
            model = build_model("test-mean", ["x"])
            assert isinstance(model, MeanRegressor)
        finally:
            MODELS.unregister("test-mean")

    def test_error_metric_keys_cover_metrics_fields(self):
        assert set(ERROR_METRICS.keys()) == {
            "med", "mae", "wce", "wce_relative", "mre", "error_probability", "mse",
        }
        with pytest.raises(RegistryError) as excinfo:
            ERROR_METRICS.get("nope")
        assert "med" in str(excinfo.value)

    def test_unknown_error_metric_rejected_by_config(self):
        with pytest.raises(ValueError) as excinfo:
            ApproxFpgasConfig(error_metric="typo")
        assert "med" in str(excinfo.value)

    def test_unknown_search_strategy_rejected_by_config(self):
        from repro.autoax import AutoAxConfig

        with pytest.raises(ValueError) as excinfo:
            AutoAxConfig(search_strategy="simulated-annealing")
        assert "hill_climb" in str(excinfo.value)
        assert "hill_climb" in SEARCH_STRATEGIES and "random_archive" in SEARCH_STRATEGIES

    def test_search_strategy_receives_one_context(self, tmp_path):
        """Every strategy is called as ``strategy(ctx)`` by the flow: one
        positional SearchContext carrying the session's engine and the
        study inputs -- and no keywords."""
        from repro.autoax import AutoAxConfig, SearchContext, hill_climb_pareto
        from repro.generators import build_adder_library, build_multiplier_library
        from repro.workloads import components_from_library, default_image_set

        multipliers = components_from_library(build_multiplier_library(4, size=12, seed=2), 3)
        adders = components_from_library(build_adder_library(8, size=10, seed=4), 3)
        images = default_image_set(12)[:2]
        calls = []

        def probe(*args, **kwargs):
            calls.append((args, kwargs))
            return hill_climb_pareto(*args, **kwargs)

        SEARCH_STRATEGIES.register("test-probe", probe)
        try:
            session = ExplorationSession(workspace=tmp_path, engine_mode="serial")
            config = AutoAxConfig(
                parameters=("area",),
                num_training_samples=4,
                num_random_baseline=2,
                hill_climb_iterations=6,
                search_strategy="test-probe",
            )
            session.run_autoax(multipliers, adders, config, images=images)
        finally:
            SEARCH_STRATEGIES.unregister("test-probe")
        ((args, kwargs),) = calls
        assert kwargs == {} and len(args) == 1 and isinstance(args[0], SearchContext)
        ctx = args[0]
        assert ctx.engine is session.accelerator_engine()
        assert len(ctx.images) == len(images)
        assert all(used is given for used, given in zip(ctx.images, images))

    def test_unknown_synthesizer_rejected_by_session(self):
        with pytest.raises(RegistryError) as excinfo:
            ExplorationSession(fpga_synthesizer="quantum")
        assert "fpga" in str(excinfo.value)

    def test_config_validates_min_training_circuits(self):
        with pytest.raises(ValueError):
            ApproxFpgasConfig(min_training_circuits=1)
        assert ApproxFpgasConfig(min_training_circuits=2).min_training_circuits == 2

    def test_readme_registry_table_lists_every_builtin_key(self):
        """Each row of the README "Plugin registries" table names exactly the
        live registry's keys (``ML1`` … ``ML18`` spelled as a range)."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Plugin registries", 1)[1]
        table = section[section.index("| Registry |"):].split("\n\n", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| `([\w.]+)` \| (.+) \|$", table, re.MULTILINE)
        assert len(rows) == 7
        for name, module, cell in rows:
            keys = re.findall(r"`(\w+?)(\d*)`", cell)
            if "…" in cell:
                (prefix, first), (_, last) = keys
                keys = [(prefix, str(i)) for i in range(int(first), int(last) + 1)]
            keys = ["".join(key) for key in keys]
            registry = getattr(importlib.import_module(module), name)
            assert sorted(keys) == sorted(registry.keys()), name
            assert len(set(keys)) == len(keys), name


# --------------------------------------------------------------------- #
# Pipeline machinery on synthetic stages
# --------------------------------------------------------------------- #
class _CounterStage(Stage):
    """A stage that appends to ``calls`` on compute and sums into the state."""

    def __init__(self, name, calls):
        self.name = name
        self.calls = calls

    def compute(self, state):
        self.calls.append(self.name)
        state[self.name] = state["base"] + len(self.name)



class TestPipeline:
    def test_duplicate_stage_names_rejected(self):
        calls = []
        with pytest.raises(PipelineError):
            Pipeline([_CounterStage("a", calls), _CounterStage("a", calls)])

    def test_runs_stages_in_order_with_timings(self):
        calls = []
        pipeline = Pipeline([_CounterStage("a", calls), _CounterStage("bb", calls)])
        run = pipeline.run({"base": 1})
        assert calls == ["a", "bb"]
        assert run.state["a"] == 2 and run.state["bb"] == 3
        assert set(run.timings()) == {"a", "bb"}

    def test_progress_events(self):
        events = []
        pipeline = Pipeline([_CounterStage("a", [])], progress=events.append)
        pipeline.run({"base": 0})
        assert [(e.stage, e.status) for e in events] == [("a", "started"), ("a", "completed")]

    def test_empty_stage_name_rejected(self):
        with pytest.raises(PipelineError):
            Pipeline([_CounterStage("", [])])

    def test_failing_stage_stops_the_run(self):
        """A stage that raises ends the run: it reports no completion and
        the stages after it never run."""

        class Failing(_CounterStage):
            def compute(self, state):
                super().compute(state)
                raise RuntimeError("stage failed")

        calls, events = [], []
        pipeline = Pipeline(
            [_CounterStage("a", calls), Failing("b", calls), _CounterStage("c", calls)],
            progress=events.append,
        )
        with pytest.raises(RuntimeError, match="stage failed"):
            pipeline.run({"base": 0})
        assert calls == ["a", "b"]
        assert [(e.stage, e.status) for e in events] == [
            ("a", "started"),
            ("a", "completed"),
            ("b", "started"),
        ]


# --------------------------------------------------------------------- #
# Reruns of the real ApproxFPGAs pipeline, served from the engine cache
# --------------------------------------------------------------------- #
DETERMINISTIC_COST_FIELDS = (
    "num_circuits",
    "exhaustive_time_s",
    "training_time_s",
    "resynthesis_time_s",
)


def canonical_result(result) -> str:
    """JSON dump of a flow result with the wall-clock fields removed."""
    payload = result_to_dict(result)
    payload["exploration_cost"] = {
        key: payload["exploration_cost"][key] for key in DETERMINISTIC_COST_FIELDS
    }
    for evaluation in payload["model_evaluations"]:
        evaluation.pop("train_time_s", None)
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module")
def api_config():
    return ApproxFpgasConfig(
        training_fraction=0.25,
        min_training_circuits=12,
        num_pseudo_fronts=2,
        top_k_models=2,
        model_ids=["ML2", "ML14", "ML18"],
        seed=11,
        evaluate_coverage=True,
    )


class _InterruptAfter(Exception):
    pass


def _count_model_calls(monkeypatch) -> dict:
    """Count every ``Regressor.fit`` and ``Regressor.predict`` call (no model overrides them)."""
    calls = {"fit": 0, "predict": 0}
    for method in calls:
        original = getattr(Regressor, method)

        def counted(self, *args, _method=method, _original=original, **kwargs):
            calls[_method] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Regressor, method, counted)
    return calls


def _model_results(result):
    """What the fit-and-select stage decides, timings included."""
    return (
        [dataclasses.asdict(evaluation) for evaluation in result.model_evaluations],
        {name: dataclasses.asdict(outcome) for name, outcome in result.parameter_outcomes.items()},
        {name: dict(record.estimated) for name, record in result.records.items()},
        result.exploration_cost.model_time_s,
    )


class TestApproxFpgasZooCache:
    """A repeated study reads every (FPGA parameter, model) evaluation from
    the engine's ``zoo`` entries: it fits and predicts nothing and returns
    the first study's model results, its measured fit times included."""

    def test_second_study_in_a_session_fits_nothing(
        self, monkeypatch, small_multiplier_library, api_config
    ):
        calls = _count_model_calls(monkeypatch)
        session = ExplorationSession(seed=11, engine_mode="serial")
        first = session.run_approxfpgas(small_multiplier_library, api_config)
        assert calls["fit"] > 0 and calls["predict"] > 0
        calls.update(fit=0, predict=0)
        second = session.run_approxfpgas(small_multiplier_library, api_config)
        assert calls == {"fit": 0, "predict": 0}
        assert _model_results(second) == _model_results(first)

    def test_fresh_session_on_the_workspace_fits_nothing(
        self, monkeypatch, tmp_path, small_multiplier_library, api_config
    ):
        calls = _count_model_calls(monkeypatch)
        workspace = tmp_path / "ws"
        first = ExplorationSession(seed=11, workspace=workspace).run_approxfpgas(
            small_multiplier_library, api_config
        )
        calls.update(fit=0, predict=0)
        session = ExplorationSession(seed=11, workspace=workspace)
        assert isinstance(session.cache.store, ShardedJsonStore)
        second = session.run_approxfpgas(small_multiplier_library, api_config)
        assert calls == {"fit": 0, "predict": 0}
        assert session.stats().misses == 0 and session.stats().disk_hits > 0
        assert _model_results(second) == _model_results(first)
        assert canonical_result(second) == canonical_result(first)


class TestApproxFpgasResume:
    def test_interrupted_run_resumes_identically(
        self, tmp_path, small_multiplier_library, api_config
    ):
        """A run killed after stage 3 of 6 and run again by a fresh session
        on the same workspace returns the uninterrupted result, and the two
        sessions together miss the cache exactly as often as one
        uninterrupted run: nothing the interrupted run stored is computed
        twice."""
        uninterrupted = ExplorationSession(seed=11)
        reference = uninterrupted.run_approxfpgas(small_multiplier_library, api_config)

        def interrupt(event):
            if event.status == "completed" and event.stage == "fit-and-select":
                raise _InterruptAfter(event.stage)

        workspace = tmp_path / "ws"
        interrupted = ExplorationSession(seed=11, workspace=workspace)
        with pytest.raises(_InterruptAfter):
            interrupted.run_approxfpgas(
                small_multiplier_library, api_config, progress=interrupt
            )

        rerun_session = ExplorationSession(seed=11, workspace=workspace)
        rerun = rerun_session.run_approxfpgas(small_multiplier_library, api_config)
        assert canonical_result(rerun) == canonical_result(reference)
        assert rerun_session.stats().disk_hits > 0
        assert (
            interrupted.stats().misses + rerun_session.stats().misses
            == uninterrupted.stats().misses
        )

    def test_changed_fpga_device_on_the_same_workspace_is_not_served_stale(self, tmp_path):
        """A second session on a workspace whose FPGA device differs gets
        the reports and fronts a workspace-free session computes on that
        device, not the first device's."""
        from repro.fpga import FpgaSynthesizer, default_device
        from repro.generators import build_multiplier_library

        library = build_multiplier_library(4, size=24, seed=5)
        config = ApproxFpgasConfig(
            min_training_circuits=8, model_ids=["ML2", "ML4"], top_k_models=1, seed=42
        )
        slow = dataclasses.replace(default_device(), lut_delay_ns=0.372)

        ExplorationSession(workspace=tmp_path).run_approxfpgas(library, config)
        served = ExplorationSession(
            workspace=tmp_path, fpga_synthesizer=FpgaSynthesizer(device=slow)
        ).run_approxfpgas(library, config)
        fresh = ExplorationSession(
            fpga_synthesizer=FpgaSynthesizer(device=slow)
        ).run_approxfpgas(library, config)

        def reports(result):
            return {
                name: dataclasses.asdict(record.fpga)
                for name, record in result.records.items()
                if record.fpga is not None
            }

        def fronts(result):
            return {
                parameter: (outcome.final_front_names, outcome.true_front_names)
                for parameter, outcome in result.parameter_outcomes.items()
            }

        assert reports(served) == reports(fresh)
        assert fronts(served) == fronts(fresh)
        assert canonical_result(served) == canonical_result(fresh)


# --------------------------------------------------------------------- #
# Session plumbing
# --------------------------------------------------------------------- #
class TestExplorationSession:
    def test_engines_are_shared_per_reference(self, small_multiplier_library):
        session = ExplorationSession(seed=3)
        reference = small_multiplier_library.reference()
        assert session.engine_for(reference) is session.engine_for(reference)
        assert session.engine_for(reference).cache is session.cache

    def test_session_seed_seeds_default_configs(self):
        session = ExplorationSession(seed=123)
        assert session.rng(0).integers(0, 100) == session.rng(0).integers(0, 100)

    def test_synthesizer_instances_accepted(self):
        from repro.fpga import FpgaSynthesizer

        synthesizer = FpgaSynthesizer()
        session = ExplorationSession(fpga_synthesizer=synthesizer)
        assert session.fpga_synthesizer is synthesizer
        assert "fpga" in SYNTHESIZERS and "asic" in SYNTHESIZERS

    def test_workspace_holds_only_the_cache(self, tmp_path, small_multiplier_library, api_config):
        """The engine cache is all a session persists: a finished run leaves
        nothing else under its workspace."""
        workspace = tmp_path / "ws"
        ExplorationSession(seed=11, workspace=workspace).run_approxfpgas(
            small_multiplier_library, api_config
        )
        assert sorted(path.name for path in workspace.iterdir()) == ["cache"]

    def test_cache_shared_across_flows(self, tmp_path, small_multiplier_library, api_config):
        session = ExplorationSession(seed=11)
        session.run_approxfpgas(small_multiplier_library, api_config)
        first_stats = session.stats()
        session.run_approxfpgas(small_multiplier_library, api_config)
        second_stats = session.stats()
        # The second run is served from the shared cache: no new misses.
        assert second_stats.misses == first_stats.misses
        assert second_stats.hits > first_stats.hits
