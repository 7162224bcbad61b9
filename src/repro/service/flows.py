"""Registered job flows: what a :class:`~repro.service.jobs.JobSpec` can run.

A *job flow* is a callable ``flow(session, params, *, run_id, progress,
on_generation) -> payload`` that drives an
:class:`~repro.api.ExplorationSession` and returns a **deterministic,
JSON-serialisable** payload: given equal ``params``, two runs -- cold, warm,
or killed-and-resumed -- must produce bit-identical payloads (and therefore
equal :func:`~repro.service.jobs.payload_digest` values).  Wall-clock
timings and other telemetry belong on the :class:`JobRecord`, never in the
payload.

Because a job must be submittable as JSON, flows receive *descriptions* of
their inputs (library bitwidths, sizes and seeds) rather than live objects;
the component libraries are regenerated deterministically inside the worker
and their evaluation rides the session's shared content-addressed cache, so
regenerating them is cheap after the first tenant has paid for it.

Custom flows plug in through the :data:`JOB_FLOWS` registry::

    from repro.service import JOB_FLOWS

    @JOB_FLOWS.register("my-flow")
    def my_flow(session, params, *, run_id, progress=None, on_generation=None):
        ...
        return {"my": "payload"}
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..registry import Registry

__all__ = ["JOB_FLOWS", "DEFAULT_AUTOAX_PARAMS", "DEFAULT_APPROXFPGAS_PARAMS"]

JOB_FLOWS = Registry("job flow")


# --------------------------------------------------------------------- #
# AutoAx accelerator studies
# --------------------------------------------------------------------- #
DEFAULT_AUTOAX_PARAMS: Dict[str, object] = {
    # Case-study knobs (see repro.autoax.AutoAxConfig).  "workload" is any
    # repro.workloads.WORKLOADS key -- the image trio as well as the 1-D
    # signal family ("mvm"/"dct"/"fir"/"fir_mixed"); "image_size" is the
    # generic input-size knob (signal workloads draw 4*image_size samples
    # per signal).
    "workload": "gaussian",
    "search_strategy": "hill_climb",
    "parameters": ["area"],
    "num_training_samples": 20,
    "num_random_baseline": 16,
    "hill_climb_iterations": 120,
    "image_size": 32,
    "seed": 17,
    # Multi-fidelity ladder for sh_ehvi (ascending pixel budgets; None lets
    # the strategy derive its default; ignored by single-fidelity strategies).
    "fidelity_ladder": None,
    # Component-library description (regenerated deterministically).
    "multiplier_bits": 8,
    "multiplier_library_size": 40,
    "multiplier_seed": 31,
    "num_multipliers": 6,
    "multiplier_max_error": 0.1,
    "adder_bits": 16,
    "adder_library_size": 28,
    "adder_seed": 37,
    "num_adders": 5,
    "adder_max_error": 0.02,
}


def _evaluated_payload(entries: Sequence[object]) -> List[dict]:
    return [entry.to_payload() for entry in entries]


@JOB_FLOWS.register("autoax")
def run_autoax_job(
    session,
    params: Optional[Dict[str, object]] = None,
    *,
    run_id: str,
    progress=None,
    on_generation=None,
) -> dict:
    """The AutoAx-FPGA case study (any workload x any search strategy) as a job."""
    from ..autoax.flow import AutoAxConfig
    from ..generators import build_adder_library, build_multiplier_library
    from ..workloads import components_from_library

    p = dict(DEFAULT_AUTOAX_PARAMS)
    p.update(params or {})

    # Validated before any library is built, so bad knobs fail the job fast.
    config = AutoAxConfig(
        workload=str(p["workload"]),
        search_strategy=str(p["search_strategy"]),
        parameters=p["parameters"],
        num_training_samples=int(p["num_training_samples"]),
        num_random_baseline=int(p["num_random_baseline"]),
        hill_climb_iterations=int(p["hill_climb_iterations"]),
        image_size=int(p["image_size"]),
        seed=int(p["seed"]),
        fidelity_ladder=(
            tuple(int(f) for f in p["fidelity_ladder"]) if p.get("fidelity_ladder") else None
        ),
    )
    multiplier_library = build_multiplier_library(
        int(p["multiplier_bits"]), size=int(p["multiplier_library_size"]),
        seed=int(p["multiplier_seed"]),
    )
    adder_library = build_adder_library(
        int(p["adder_bits"]), size=int(p["adder_library_size"]), seed=int(p["adder_seed"]),
    )
    # Component selection synthesizes and error-evaluates both libraries;
    # routing it through the session engines makes that work content-addressed
    # too, so the second tenant's job rebuilds the netlists but pays for no
    # evaluation twice.
    multipliers = components_from_library(
        multiplier_library,
        int(p["num_multipliers"]),
        max_error=float(p["multiplier_max_error"]),
        engine=session.engine_for(multiplier_library.reference()),
    )
    adders = components_from_library(
        adder_library,
        int(p["num_adders"]),
        max_error=float(p["adder_max_error"]),
        engine=session.engine_for(adder_library.reference()),
    )

    result = session.run_autoax(
        multipliers,
        adders,
        config,
        run_id=run_id,
        progress=progress,
        on_generation=on_generation,
    )
    return {
        "flow": "autoax",
        "workload": config.workload,
        "search_strategy": config.search_strategy,
        "design_space_size": float(result.design_space_size),
        "training_size": int(result.training_size),
        "scenarios": {
            parameter: {
                "candidates": _evaluated_payload(scenario.candidates),
                "front": _evaluated_payload(scenario.front),
            }
            for parameter, scenario in result.scenarios.items()
        },
        "baseline": _evaluated_payload(result.baseline),
    }


# --------------------------------------------------------------------- #
# ApproxFPGAs library explorations
# --------------------------------------------------------------------- #
DEFAULT_APPROXFPGAS_PARAMS: Dict[str, object] = {
    # Library description.
    "kind": "multiplier",
    "bitwidth": 4,
    "library_size": 60,
    "library_seed": 3,
    # Flow knobs (see repro.core.ApproxFpgasConfig).
    "training_fraction": 0.2,
    "min_training_circuits": 12,
    "validation_fraction": 0.2,
    "num_pseudo_fronts": 2,
    "top_k_models": 2,
    "model_ids": ["ML2", "ML4"],
    "error_metric": "med",
    "seed": 42,
    "evaluate_coverage": True,
}


@JOB_FLOWS.register("approxfpgas")
def run_approxfpgas_job(
    session,
    params: Optional[Dict[str, object]] = None,
    *,
    run_id: str,
    progress=None,
    on_generation=None,
) -> dict:
    """The ApproxFPGAs methodology over a generated library as a job."""
    from ..core.methodology import ApproxFpgasConfig
    from ..generators import build_adder_library, build_multiplier_library

    p = dict(DEFAULT_APPROXFPGAS_PARAMS)
    p.update(params or {})

    build = build_adder_library if p["kind"] == "adder" else build_multiplier_library
    library = build(int(p["bitwidth"]), size=int(p["library_size"]), seed=int(p["library_seed"]))

    config = ApproxFpgasConfig(
        training_fraction=float(p["training_fraction"]),
        min_training_circuits=int(p["min_training_circuits"]),
        validation_fraction=float(p["validation_fraction"]),
        num_pseudo_fronts=int(p["num_pseudo_fronts"]),
        top_k_models=int(p["top_k_models"]),
        model_ids=list(p["model_ids"]),
        error_metric=str(p["error_metric"]),
        seed=int(p["seed"]),
        evaluate_coverage=bool(p["evaluate_coverage"]),
    )
    result = session.run_approxfpgas(library, config, run_id=run_id, progress=progress)
    # Deterministic subset only: exploration_cost carries wall-clock times.
    return {
        "flow": "approxfpgas",
        "library": result.library_name,
        "kind": result.kind,
        "bitwidth": int(result.bitwidth),
        "training_names": list(result.training_names),
        "validation_names": list(result.validation_names),
        "parameters": {
            parameter: {
                "top_models": list(outcome.top_models),
                "final_front": list(outcome.final_front_names),
                "true_front": list(outcome.true_front_names),
                "coverage": outcome.coverage,
            }
            for parameter, outcome in result.parameter_outcomes.items()
        },
    }
