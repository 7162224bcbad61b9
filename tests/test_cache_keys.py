"""Cache-key completeness for the engine's ``err``, ``asic``, ``fpga``,
``axq`` and ``zoo`` domains.

Every knob that changes a result must change its domain's key, and the
knobs declared result-invariant (the engine's ``mode``, ``max_workers``
and cache instance) must keep it.  The default contexts are pinned, so
disk stores written by earlier versions stay warm.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro.asic import AsicSynthesizer
from repro.asic.cell_library import default_cell_library
from repro.circuits import GateType
from repro.engine import BatchEvaluator, EvalCache, accelerator_context
from repro.error import ErrorEvaluator
from repro.fpga import FpgaSynthesizer
from repro.fpga.device import default_device
from repro.generators import (
    array_multiplier,
    build_adder_library,
    build_multiplier_library,
    perturb_netlist,
    ripple_carry_adder,
)
from repro.io import ShardedJsonStore
from repro.ml import (
    BayesianRidgeRegression,
    PLSRegression,
    RidgeRegression,
    ScaledRegressor,
    build_model,
)
from repro.workloads import GaussianFilterAccelerator, components_from_library, default_image_set

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


# --------------------------------------------------------------------- #
# ``axq``: exact accelerator evaluations
# --------------------------------------------------------------------- #
#: The probe accelerator's default ``axq`` context.
PINNED_AXQ_CONTEXT = "adb74c93115f82108d18f9c01200c768"


class KeyLog(dict):
    """An in-memory cache backend that keeps every entry written through it."""

    def put(self, key, value):
        self[key] = value


def logged_engine(engine_knobs=None) -> BatchEvaluator:
    knobs = dict({"mode": "serial", "cache": EvalCache(store=KeyLog())}, **(engine_knobs or {}))
    return BatchEvaluator(**knobs)


def written_keys(engine, domain):
    return sorted(key for key in engine.cache.store.keys() if key.startswith(f"{domain}:"))


@pytest.fixture(scope="module")
def axq_libraries():
    return build_multiplier_library(8, size=12, seed=31), build_adder_library(16, size=10, seed=37)


def axq_probe(libraries, fpga_synthesizer=None):
    """A Gaussian accelerator, its inputs and one configuration of it."""
    multipliers, adders = (
        components_from_library(library, count, max_error=error, fpga_synthesizer=fpga_synthesizer)
        for library, count, error in zip(libraries, (4, 3), (0.1, 0.02))
    )
    accelerator = GaussianFilterAccelerator(multipliers, adders)
    configuration = accelerator.make_configuration([1, 2, 3, 1, 2, 3, 1, 2, 3], [1, 2] * 4)
    return accelerator, default_image_set(24)[:2], configuration


def _moved_netlist(accelerator, images, libraries):
    moved = copy.copy(accelerator)
    component = accelerator.multipliers[1]
    netlist = perturb_netlist(component.netlist, seed=5)
    moved.multipliers = list(accelerator.multipliers)
    moved.multipliers[1] = dataclasses.replace(component, netlist=netlist, _table=None)
    return moved, images, None


def _moved_fpga_report(accelerator, images, libraries):
    device = default_device()
    slow = dataclasses.replace(device, lut_delay_ns=3 * device.lut_delay_ns)
    return axq_probe(libraries, FpgaSynthesizer(device=slow))[0], images, None


def _moved_workload_signature(accelerator, images, libraries):
    moved = copy.copy(accelerator)
    moved.shift = accelerator.shift + 1
    return moved, images, None


def _moved_input_pixel(accelerator, images, libraries):
    moved = [image.copy() for image in images]
    moved[1][5, 7] ^= 1
    return accelerator, moved, None


def _moved_fidelity_rung(accelerator, images, libraries):
    return accelerator, images, 256


#: One knob moved at a time: ``(accelerator, images, libraries) ->
#: (accelerator, images, fidelity)``; each changes the probe's result.
AXQ_KNOB_CHANGES = {
    "component netlist": _moved_netlist,
    "component fpga report": _moved_fpga_report,
    "workload signature": _moved_workload_signature,
    "input pixel": _moved_input_pixel,
    "fidelity rung": _moved_fidelity_rung,
}


def test_default_axq_context_is_pinned(axq_libraries):
    accelerator, images, _ = axq_probe(axq_libraries)
    assert accelerator_context(accelerator, images) == PINNED_AXQ_CONTEXT


@pytest.mark.parametrize("knob", sorted(AXQ_KNOB_CHANGES))
def test_each_axq_knob_changes_the_key(knob, axq_libraries):
    accelerator, images, configuration = axq_probe(axq_libraries)
    moved, moved_images, fidelity = AXQ_KNOB_CHANGES[knob](accelerator, images, axq_libraries)
    # One engine serves both: the moved probe must not be served the
    # base probe's entry.
    engine = logged_engine()
    [base] = engine.evaluate_configurations(accelerator, images, [configuration])
    [served] = engine.evaluate_configurations(moved, moved_images, [configuration], fidelity)
    [fresh] = logged_engine().evaluate_configurations(
        moved, moved_images, [configuration], fidelity
    )
    assert served == fresh != base
    assert len(written_keys(engine, "axq")) == 2


@pytest.mark.parametrize("engine_knob", sorted(ENGINE_KNOBS))
def test_engine_knobs_keep_the_axq_key(engine_knob, axq_libraries, tmp_path):
    accelerator, images, configuration = axq_probe(axq_libraries)
    keys = []
    for engine in (logged_engine(), logged_engine(ENGINE_KNOBS[engine_knob](tmp_path))):
        engine.evaluate_configurations(accelerator, images, [configuration])
        keys.append(written_keys(engine, "axq"))
    assert keys[0] == keys[1] and len(keys[0]) == 1


# --------------------------------------------------------------------- #
# ``zoo``: Table I model evaluations
# --------------------------------------------------------------------- #
#: Feature columns of the zoo probe; ML1-ML3 find their ASIC column by name.
ZOO_FEATURES = ["asic_power_mw", "asic_latency_ns", "asic_area_um2", "gates", "depth"]

#: The models of the ``explore`` benchmark's ApproxFPGAs configuration.
EXPLORE_MODELS = ("ML2", "ML4", "ML11", "ML14")


def zoo_data():
    """Training, validation and library rows of a 22-circuit library."""
    rng = np.random.default_rng(3)
    X = rng.uniform(0.0, 10.0, size=(22, len(ZOO_FEATURES))).round(2)
    y = X @ rng.uniform(0.5, 2.0, size=len(ZOO_FEATURES)) + rng.normal(0.0, 0.5, size=len(X))
    return {
        "X_train": X[:12], "y_train": y[:12], "X_val": X[12:17], "y_val": y[12:17],
        "X_library": X,
    }


def zoo_entries(models, engine=None, **data_changes):
    """The ``zoo`` keys written and the entries (less timings) of ``models``."""
    engine = engine or logged_engine()
    entries = engine.evaluate_models(models, **dict(zoo_data(), **data_changes))
    entries = [{k: v for k, v in entry.items() if k != "train_time_s"} for entry in entries]
    return written_keys(engine, "zoo"), entries


def explore_models():
    return [build_model(model_id, ZOO_FEATURES, random_state=0) for model_id in EXPLORE_MODELS]


#: One model hyperparameter moved at a time: base model id -> the moved model.
ZOO_MODEL_CHANGES = {
    "ML2 feature column": ("ML2", lambda: build_model("ML2", ZOO_FEATURES[::-1])),
    "ML4 n_components": ("ML4", lambda: PLSRegression(n_components=3)),
    "ML11 wrapped max_iter": (
        "ML11", lambda: ScaledRegressor(BayesianRidgeRegression(max_iter=1), scale_target=False)
    ),
    "ML14 wrapped alpha": (
        "ML14", lambda: ScaledRegressor(RidgeRegression(alpha=2.0), scale_target=False)
    ),
    "random_state": ("ML5", lambda: build_model("ML5", ZOO_FEATURES, random_state=1)),
}


def _moved(name, index, delta=1.0):
    value = zoo_data()[name].copy()
    value[index] += delta
    return {name: value}


#: One input value moved at a time.
ZOO_DATA_CHANGES = {
    "X_train value": _moved("X_train", (4, 1)),
    "y_train value": _moved("y_train", 6),
    "validation row": _moved("X_val", 2),
    "validation target": _moved("y_val", 3),
    "library row": _moved("X_library", 20),
}


@pytest.mark.parametrize("knob", sorted(ZOO_MODEL_CHANGES))
def test_each_zoo_model_knob_changes_the_key(knob):
    model_id, moved = ZOO_MODEL_CHANGES[knob]
    base_keys, [base] = zoo_entries([build_model(model_id, ZOO_FEATURES, random_state=0)])
    moved_keys, [entry] = zoo_entries([moved()])
    assert moved_keys != base_keys and entry != base


@pytest.mark.parametrize("knob", sorted(ZOO_DATA_CHANGES))
def test_each_zoo_data_value_changes_the_key(knob):
    base_keys, base = zoo_entries(explore_models())
    moved_keys, entries = zoo_entries(explore_models(), **ZOO_DATA_CHANGES[knob])
    assert len(base_keys) == len(moved_keys) == len(EXPLORE_MODELS)
    assert set(base_keys).isdisjoint(moved_keys)
    assert all(entry != before for entry, before in zip(entries, base))


@pytest.mark.parametrize("engine_knob", sorted(ENGINE_KNOBS))
def test_engine_knobs_keep_the_zoo_key(engine_knob, tmp_path):
    base = zoo_entries(explore_models())
    other = zoo_entries(explore_models(), logged_engine(ENGINE_KNOBS[engine_knob](tmp_path)))
    assert other == base
