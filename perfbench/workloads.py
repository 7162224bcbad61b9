"""The benchmark's three workloads, each a closed loop of *studies*.

A study is one exploration request.  Study ``n`` of a workload has a kind
(``"cold"`` studies fill the caches, ``"warm"`` ones are served from them)
and a *spec*, and returns a payload in the deterministic shapes
:mod:`repro.service.flows` returns, which leave out wall-clock fields:
studies with equal specs must return equal payloads.
Studies come in cycles of ``cycle`` studies that mix cold and warm ones in
the workload's fixed proportion; the benchmark times whole cycles only.

Every workload takes its inputs from the benchmark seed only, runs on one
core (``engine_mode="serial"``: no process pool), and builds its inputs in
``setup()``, which may be called again to start over from fresh state; the
caller owns ``workdir`` and removes it.

The program is reached through module attributes looked up at call time
(``generators.build_adder_library``, not a name imported once), so the
traced run's wrappers see every call the benchmark makes into it.
"""

from __future__ import annotations

import itertools

import repro.api as api
import repro.autoax as autoax
import repro.circuits as circuits
import repro.core as core
import repro.generators as generators
import repro.service as service
import repro.service.flows as flows
import repro.workloads as workloads_pkg

KINDS = ("cold", "warm")

#: Fig. 3's six-library suite: (kind, bitwidth, circuits per library).
EXPLORE_SUITE = (
    ("multiplier", 8, 24),
    ("multiplier", 12, 24),
    ("multiplier", 16, 24),
    ("adder", 8, 24),
    ("adder", 12, 24),
    ("adder", 16, 24),
)

#: The scenario-matrix gate's axes and study size, pinned rather than read
#: from the registries so that both sides of a comparison run the same cells.
AUTOAX_WORKLOADS = ("dct", "fir", "fir_mixed", "gaussian", "mvm", "sharpen", "sobel")
AUTOAX_STRATEGIES = ("hill_climb", "nsga2", "random_archive", "sh_ehvi")
AUTOAX_STUDY = dict(
    parameters=("area",),
    num_training_samples=10,
    num_random_baseline=8,
    hill_climb_iterations=40,
    image_size=16,
    seed=11,
)

SERVICE_TENANTS = ("alice", "bob", "carol")
#: Finished job records a long-lived service root holds (they are never
#: pruned, and every claim reads all of them).
SERVICE_HISTORY = 1000


def _approxfpgas_payload(result) -> dict:
    """The ``approxfpgas`` job flow's deterministic payload shape."""
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


def _autoax_payload(result, config) -> dict:
    """The ``autoax`` job flow's deterministic payload shape."""
    evaluated = flows._evaluated_payload
    return {
        "flow": "autoax",
        "workload": config.workload,
        "search_strategy": config.search_strategy,
        "design_space_size": float(result.design_space_size),
        "training_size": int(result.training_size),
        "scenarios": {
            parameter: {
                "candidates": evaluated(scenario.candidates),
                "front": evaluated(scenario.front),
            }
            for parameter, scenario in result.scenarios.items()
        },
        "baseline": evaluated(result.baseline),
    }


class Explore:
    """ApproxFPGAs over Fig. 3's six libraries with the Fig. 3 model set.

    A cold study is a fresh session (in-memory cache, no workspace) after
    the compiled-program cache is cleared; the two warm studies that follow
    repeat the identical suite in that session, so every error, ASIC and
    FPGA evaluation is a cache hit.  A warm study takes about a quarter of
    a cold one and its time scatters more, so a run takes two warm samples
    for each cold one.
    """

    name = "explore"
    cycle = 3

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.config = core.ApproxFpgasConfig(
            training_fraction=0.12,
            min_training_circuits=14,
            validation_fraction=0.25,
            num_pseudo_fronts=2,
            top_k_models=2,
            model_ids=["ML2", "ML4", "ML11", "ML14"],
            # The seed varies the libraries, not the training-subset draw:
            # some draws leave ML11's Bayesian ridge a singular fit.
            seed=42,
        )
        self.libraries = []
        self.session = None

    def setup(self) -> None:
        self.libraries = []
        for index, (kind, bits, size) in enumerate(EXPLORE_SUITE):
            build = (
                generators.build_multiplier_library
                if kind == "multiplier"
                else generators.build_adder_library
            )
            self.libraries.append(build(bits, size=size, seed=1000 + 10 * self.seed + index))

    def kind(self, n: int) -> str:
        return "cold" if n % self.cycle == 0 else "warm"

    def spec(self, n: int) -> str:
        return "suite"

    def run(self, n: int):
        if self.kind(n) == "cold":
            circuits.clear_program_cache()
            self.session = api.ExplorationSession(seed=42, engine_mode="serial")
        return [
            _approxfpgas_payload(
                self.session.run_approxfpgas(library, self.config, run_id=f"explore-{library.name}")
            )
            for library in self.libraries
        ]


class AutoAx:
    """Every registered workload x every search strategy (28 cells).

    Cell ``c`` is workload ``c % 7`` with strategy ``c % 4``: 7 and 4 are
    coprime, so 28 consecutive cells cover the matrix once and any shorter
    run of cells spreads evenly over both axes.  A cold study runs a cell
    in a fresh session; the warm study that follows repeats it in that
    session, where every exact evaluation is an ``axq`` cache hit.
    """

    name = "autoax"
    cycle = 2 * len(AUTOAX_WORKLOADS) * len(AUTOAX_STRATEGIES)

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.multipliers = []
        self.adders = []
        self.session = None

    def setup(self) -> None:
        self.multipliers = workloads_pkg.components_from_library(
            generators.build_multiplier_library(8, size=40, seed=31 + self.seed), 6, max_error=0.1
        )
        self.adders = workloads_pkg.components_from_library(
            generators.build_adder_library(16, size=28, seed=37 + self.seed), 5, max_error=0.02
        )
        # Users pay for the components' lookup tables once per component
        # set, not once per study.
        zero = [0]
        for component in self.multipliers + self.adders:
            component.compute(zero, zero)

    def kind(self, n: int) -> str:
        return KINDS[n % 2]

    def cell(self, n: int):
        c = n // 2
        return (
            AUTOAX_WORKLOADS[c % len(AUTOAX_WORKLOADS)],
            AUTOAX_STRATEGIES[c % len(AUTOAX_STRATEGIES)],
        )

    def spec(self, n: int) -> str:
        return "/".join(self.cell(n))

    def run(self, n: int):
        workload, strategy = self.cell(n)
        if self.kind(n) == "cold":
            circuits.clear_program_cache()
            self.session = api.ExplorationSession(seed=11, engine_mode="serial")
        config = autoax.AutoAxConfig(workload=workload, search_strategy=strategy, **AUTOAX_STUDY)
        result = self.session.run_autoax(self.multipliers, self.adders, config)
        return _autoax_payload(result, config)


class Service:
    """Three tenants sharing one job service root with a long history.

    Spec ``i`` is an AutoAx job (cycling over workloads and strategies) or,
    every third spec, an ApproxFPGAs job on a 4-bit library; its library
    seeds are unique, so the first tenant's job misses the shared store and
    writes it (cold) and the other two tenants' jobs read it (warm).  Each
    study is submit, a fresh :class:`~repro.service.Worker` ``run_once()``,
    and ``JobClient.result``, so warm jobs read the shared disk store, not
    one worker's in-memory cache.
    """

    name = "service"
    cycle = len(SERVICE_TENANTS)

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.registry = None
        self._roots = itertools.count()

    def setup(self) -> None:
        self.registry = service.JobRegistry(self.workdir / f"service-root-{next(self._roots)}")
        history_spec = service.JobSpec("autoax", {"workload": "fir"}, tenant="history")
        for index in range(SERVICE_HISTORY):
            at = 1.0e9 + index
            self.registry.update(
                service.JobRecord(
                    job_id=f"history-{index:05d}",
                    spec=history_spec,
                    state="done",
                    submitted_at=at,
                    started_at=at,
                    finished_at=at + 1.0,
                    attempts=1,
                    digest="0" * 32,
                    elapsed_s=1.0,
                )
            )

    def kind(self, n: int) -> str:
        return "cold" if n % len(SERVICE_TENANTS) == 0 else "warm"

    def spec(self, n: int) -> str:
        return str(n // len(SERVICE_TENANTS))

    def job(self, i: int):
        """(flow, params) of spec ``i``."""
        base = 100_000 * (self.seed + 1) + 10 * i
        if i % 3 == 2:
            return "approxfpgas", {
                "kind": "multiplier" if i % 2 else "adder",
                "bitwidth": 4,
                "library_size": 24,
                "library_seed": base,
                "min_training_circuits": 8,
                "seed": base + 1,
            }
        return "autoax", {
            "workload": AUTOAX_WORKLOADS[i % len(AUTOAX_WORKLOADS)],
            "search_strategy": AUTOAX_STRATEGIES[i % len(AUTOAX_STRATEGIES)],
            "multiplier_bits": 4,
            "multiplier_library_size": 16,
            "multiplier_seed": base,
            "num_multipliers": 4,
            "adder_bits": 8,
            "adder_library_size": 16,
            "adder_seed": base + 1,
            "num_adders": 4,
            "image_size": 16,
            "num_training_samples": 8,
            "num_random_baseline": 6,
            "hill_climb_iterations": 16,
            "seed": base + 2,
        }

    def run(self, n: int):
        if self.kind(n) == "cold":
            circuits.clear_program_cache()
        flow, params = self.job(n // len(SERVICE_TENANTS))
        tenant = SERVICE_TENANTS[n % len(SERVICE_TENANTS)]
        client = service.JobClient(self.registry, tenant=tenant)
        job_id = client.submit(flow, params)
        service.Worker(self.registry, engine_mode="serial").run_once()
        return client.result(job_id)


WORKLOADS = {workload.name: workload for workload in (Explore, AutoAx, Service)}
