"""Search strategies over the accelerator's configuration space.

AutoAx-FPGA uses a Pareto-archive hill climber driven by the estimators;
the baseline it is compared against in Fig. 9 is plain random search with
exact evaluation.  A population-based NSGA-II strategy (``"nsga2"``) built
on the generic :mod:`repro.search` subsystem scores whole generations
through the estimators in one batched call, and the multi-fidelity
``"sh_ehvi"`` strategy promotes an EHVI-screened cohort up a fidelity
ladder of exact evaluations.

All strategies keep their candidate front in a shared
:class:`repro.search.ParetoArchive` (incremental non-dominated insertion)
instead of hand-rolled filtering; seeded trajectories are bit-identical to
the historical list-based implementations (pinned by
``tests/test_search_regression.py``).

Every exact evaluation goes through the evaluation engine
(:meth:`repro.engine.BatchEvaluator.evaluate_configurations`), batched and
cached under ``axq`` keys scoped to the workload, its components and the
input set.  Estimated evaluations are scored by one helper
(:func:`_surrogate_scores`: one feature matrix shared by both estimators,
one ``predict`` call each) and never touch the engine cache: an estimate
is only as current as the fit that produced it, so it is memoised per
configuration within one run and recomputed by the next.  Caching never
changes results -- every exact evaluation is a deterministic function of
its key -- and random-number consumption is independent of hits, so
seeded searches are reproducible on a cold or warm cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import (
    BatchEvaluator,
    accelerator_token,
    blake_token,
    configuration_token,
    images_token,
)
from ..registry import Registry
from ..search import (
    Nsga2Config,
    ParetoArchive,
    SuccessiveHalvingConfig,
    default_fidelity_ladder,
    expected_hypervolume_improvement,
    run_nsga2,
    run_successive_halving,
)
from ..workloads import ApproxAccelerator, SlotConfiguration, fidelity_inputs
from .estimators import HwCostEstimator, QorEstimator, configuration_feature_matrix

#: Registry of configuration-space search strategies.  Every entry is
#: called as ``strategy(ctx, **tuning) -> List[EvaluatedConfiguration]``:
#: ``ctx`` is the :class:`SearchContext` the flow builds per scenario and
#: ``tuning`` holds only the strategy's own keyword-only knobs
#: (``archive_limit``, ``population_size``, ...), all defaulted.
#: ``AutoAxConfig.search_strategy`` is resolved here, so new searches plug
#: in by registering a key.  A strategy returns its candidates (estimated or
#: exact); the flow then re-evaluates them exactly in one pass through
#: :meth:`SearchContext.evaluate`.
SEARCH_STRATEGIES = Registry("search strategy")


@dataclass
class EvaluatedConfiguration:
    """A configuration with its (exact or estimated) quality and cost."""

    config: SlotConfiguration
    quality: float
    cost: Dict[str, float]

    def objectives(self, parameter: str) -> Tuple[float, float]:
        """(cost, quality loss) pair, both minimised."""
        return (self.cost[parameter], 1.0 - self.quality)

    @classmethod
    def from_payload(cls, config: SlotConfiguration, payload: dict) -> "EvaluatedConfiguration":
        """``config`` with the values of a JSON-able ``{"quality", "cost"}``
        payload (engine results, checkpoints)."""
        return cls(
            config=config,
            quality=float(payload["quality"]),
            cost={name: float(value) for name, value in payload["cost"].items()},
        )

    def to_payload(self) -> dict:
        """JSON-able ``{"multipliers", "adders", "quality", "cost"}`` payload
        (stage checkpoints, job results)."""
        return {
            "multipliers": [int(i) for i in self.config.multiplier_indices],
            "adders": [int(i) for i in self.config.adder_indices],
            "quality": float(self.quality),
            "cost": {name: float(value) for name, value in self.cost.items()},
        }


def _exact_evaluation(
    engine: BatchEvaluator,
    accelerator: ApproxAccelerator,
    images: Sequence[np.ndarray],
    configs: Sequence[SlotConfiguration],
    fidelity: Optional[int] = None,
) -> List[EvaluatedConfiguration]:
    """Exactly evaluate configurations as one engine batch (``axq`` cache keys)."""
    payloads = engine.evaluate_configurations(accelerator, images, configs, fidelity=fidelity)
    return [
        EvaluatedConfiguration.from_payload(config, payload)
        for config, payload in zip(configs, payloads)
    ]


@dataclass(frozen=True, eq=False)
class SearchContext:
    """Everything a search strategy works with, supplied by the flow.

    One explicit parameter object for every strategy (the scenario stage
    builds one per FPGA parameter): the accelerator, the fitted estimators
    (``hw`` names the optimised cost parameter), the exact-evaluation
    inputs and engine, the evaluation budget and seed, plus the optional
    checkpoint plumbing of resumable strategies.
    """

    accelerator: ApproxAccelerator
    qor: QorEstimator
    hw: HwCostEstimator
    images: Sequence[np.ndarray]
    engine: BatchEvaluator
    iterations: int = 400
    """Evaluation budget (estimator calls for the surrogate strategies)."""
    seed: int = 31
    fidelity_ladder: Optional[Tuple[int, ...]] = None
    """Ascending reduced-rung pixel budgets of multi-fidelity strategies;
    ``None`` lets the strategy derive its default ladder."""
    store: Optional[object] = None
    """Optional artifact store (``get``/``put``); resumable strategies
    checkpoint every generation (rung) here under :attr:`run_id`."""
    run_id: str = ""
    on_generation: Optional[Callable[[dict], None]] = None
    """Fired with the stats dict of every freshly computed generation
    (rung) of generation-aware strategies; service workers renew their job
    leases here."""
    _study: str = field(default="", repr=False)
    """Identity of the study the search serves, set by the flow (its
    :func:`repro.autoax.stages.autoax_run_token`) rather than by callers.
    Mixed into checkpoint tokens, so a finished study's checkpoint is never
    restored into a different study that reuses the run id."""

    def evaluate(
        self, configs: Sequence[SlotConfiguration], fidelity: Optional[int] = None
    ) -> List[EvaluatedConfiguration]:
        """Exact values of ``configs`` through :attr:`engine`, in one batch.

        ``fidelity`` is a multi-fidelity rung: a total-pixel budget applied
        by centre-cropping :attr:`images` (a budget at or above the full
        pixel count is an exact full-fidelity evaluation).
        """
        return _exact_evaluation(self.engine, self.accelerator, self.images, configs, fidelity)


def _non_dominated(
    archive: List[EvaluatedConfiguration], parameter: str
) -> List[EvaluatedConfiguration]:
    """Prune a candidate list to its non-dominated members via the shared archive."""
    pruned = ParetoArchive(num_objectives=2, dedupe_keys=False)
    for entry in archive:
        pruned.insert(None, entry.objectives(parameter), item=entry)
    return pruned.items()


def random_search(
    accelerator: ApproxAccelerator,
    images: Sequence[np.ndarray],
    num_samples: int,
    seed: int = 23,
    *,
    engine: BatchEvaluator,
) -> List[EvaluatedConfiguration]:
    """Exactly evaluate ``num_samples`` uniformly random configurations.

    The configurations are drawn first and then evaluated as one batched,
    cached engine call, so seeded results do not depend on cache hits.
    """
    rng = np.random.default_rng(seed)
    configs = [accelerator.random_configuration(rng) for _ in range(num_samples)]
    return _exact_evaluation(engine, accelerator, images, configs)


@dataclass
class SearchEvalStats:
    """In-run evaluation accounting of one estimator-driven search.

    ``evaluations`` counts requested scores, ``computed`` the ones that
    actually ran the estimators; the rest were memo hits (revisited
    configurations).  Exposed as the ``stats`` attribute of the closure
    returned by the estimated evaluator, and asserted on by the dedupe
    regression tests.
    """

    evaluations: int = 0
    computed: int = 0

    @property
    def memo_hits(self) -> int:
        return self.evaluations - self.computed

    @property
    def memo_hit_rate(self) -> float:
        return self.memo_hits / self.evaluations if self.evaluations else 0.0


def _surrogate_scores(
    ctx: SearchContext, configs: Sequence[SlotConfiguration]
) -> Tuple[np.ndarray, np.ndarray]:
    """(quality, cost) estimates of ``configs``, quality clipped to [0, 1].

    The one surrogate-scoring path: both estimators share one
    :func:`configuration_feature_matrix` and make one ``predict`` call each.
    Sequential strategies pass one configuration at a time -- a one-row
    ``predict`` is not bit-identical to the same row predicted inside a
    larger batch, so batching their scores would change seeded results.
    """
    features = configuration_feature_matrix(ctx.accelerator, configs)
    quality = ctx.qor.estimate_batch(ctx.accelerator, configs, features=features)
    cost = ctx.hw.estimate_batch(ctx.accelerator, configs, features=features)
    return np.clip(quality, 0.0, 1.0), cost


def _estimated_evaluator(ctx: SearchContext):
    """A ``config -> EvaluatedConfiguration`` closure scoring via the estimators.

    Scores are memoised per configuration for the lifetime of the closure,
    so a search that revisits a configuration -- the hill climber mutating
    a slot back to its parent's component, for instance -- never pays the
    estimators twice.  Memo hits return the identical values a
    recomputation would, so seeded trajectories are unchanged; the
    ``stats`` attribute of the closure reports the memo accounting.
    """
    accelerator, parameter = ctx.accelerator, ctx.hw.parameter
    memo: Dict[str, EvaluatedConfiguration] = {}
    stats = SearchEvalStats()

    def evaluate(config: SlotConfiguration) -> EvaluatedConfiguration:
        stats.evaluations += 1
        token = configuration_token(config.multiplier_indices, config.adder_indices)
        hit = memo.get(token)
        if hit is not None:
            return hit
        stats.computed += 1
        quality, estimate = _surrogate_scores(ctx, [config])
        cost = dict(accelerator.hw_cost(config))
        cost[parameter] = float(estimate[0])
        result = memo[token] = EvaluatedConfiguration(config, float(quality[0]), cost)
        return result

    evaluate.stats = stats
    return evaluate


def _spread_limited(archive: ParetoArchive, limit: int) -> None:
    """Bound an archive to ``limit`` members spread along the cost axis."""
    archive.truncate_spread(limit, objective=0)


@SEARCH_STRATEGIES.register("hill_climb")
def hill_climb_pareto(
    ctx: SearchContext, *, archive_limit: int = 64
) -> List[EvaluatedConfiguration]:
    """Estimator-driven Pareto-archive hill climbing.

    Starting from a small random archive, each of ``ctx.iterations``
    iterations mutates one slot of a randomly chosen archive member, scores
    the child with the estimators and keeps the archive non-dominated in
    the (estimated cost, estimated quality loss) plane.  Returns the final
    archive of *estimated* Pareto-optimal configurations.

    Revisited configurations are served from the evaluator's in-run memo;
    archive membership is maintained incrementally by
    :class:`repro.search.ParetoArchive` with ``dedupe_keys`` off, preserving
    the historical semantics where a revisited candidate occupies one
    archive slot per visit.
    """
    accelerator = ctx.accelerator
    rng = np.random.default_rng(ctx.seed)
    parameter = ctx.hw.parameter
    evaluate = _estimated_evaluator(ctx)

    archive = ParetoArchive(num_objectives=2, dedupe_keys=False)
    for _ in range(8):
        entry = evaluate(accelerator.random_configuration(rng))
        archive.insert(None, entry.objectives(parameter), item=entry)

    for _ in range(ctx.iterations):
        parent = archive.entries()[int(rng.integers(0, len(archive)))].item
        child = evaluate(accelerator.mutate_configuration(parent.config, rng))
        archive.insert(None, child.objectives(parameter), item=child)
        if len(archive) > archive_limit:
            # Keep a spread subset along the cost axis.
            _spread_limited(archive, archive_limit)
    return archive.items()


@SEARCH_STRATEGIES.register("random_archive")
def random_archive(
    ctx: SearchContext, *, archive_limit: int = 64
) -> List[EvaluatedConfiguration]:
    """Estimator-scored uniform random sampling, pruned to a Pareto archive.

    The mutation-free counterpart of :func:`hill_climb_pareto`:
    ``ctx.iterations`` uniformly random configurations are scored with the
    estimators and the non-dominated subset (spread-limited to
    ``archive_limit`` members along the cost axis) is returned.  Useful as
    an ablation baseline for the search itself.
    """
    rng = np.random.default_rng(ctx.seed)
    parameter = ctx.hw.parameter
    evaluate = _estimated_evaluator(ctx)

    archive = ParetoArchive(num_objectives=2, dedupe_keys=False)
    for _ in range(ctx.iterations):
        entry = evaluate(ctx.accelerator.random_configuration(rng))
        archive.insert(None, entry.objectives(parameter), item=entry)
    if len(archive) > archive_limit:
        _spread_limited(archive, archive_limit)
    return archive.items()


@SEARCH_STRATEGIES.register("nsga2")
def nsga2_pareto(
    ctx: SearchContext,
    *,
    archive_limit: int = 64,
    population_size: int = 32,
    crossover_rate: float = 0.9,
    mutation_rate: float = 1.0,
) -> List[EvaluatedConfiguration]:
    """Population-based NSGA-II over the configuration space.

    The genome is the flat tuple of the accelerator's multiplier and adder
    slot assignments (split at ``num_multiplier_slots``, so any slot shape
    works -- the Gaussian case study's 9 + 8 as well as the MVM family's
    8 + 7); variation is per-parameter uniform crossover plus the same
    single-slot mutation move the hill climber uses.  Whole generations are
    scored through the estimators in **one batched call** each
    (:func:`_surrogate_scores`), which is what makes the strategy faster
    than the sequential hill climber at equal evaluation budget; the global
    non-dominated front accumulates in a shared
    :class:`repro.search.ParetoArchive` truncated by crowding distance.

    ``ctx.iterations`` is the surrogate-evaluation budget: the population
    size adapts down for small budgets and ``generations`` is derived so
    that ``population * (generations + 1) <= iterations``, making budgets
    directly comparable with :func:`hill_climb_pareto`.  The returned
    candidates carry *estimated* values; the flow's exact pass re-evaluates
    the surviving front (the paper's surrogate-assisted pattern).

    With ``ctx.store``, the search state -- population, archive and RNG
    stream -- is checkpointed every generation and a rerun with the same
    ``ctx.run_id`` resumes bit-identically (pass the *same fitted estimator
    instances*: the checkpoint token covers the accelerator, the search
    knobs and the flow's study identity, not the estimators' fitted state).
    ``ctx.on_generation`` is forwarded to :func:`repro.search.run_nsga2`:
    it fires with the stats dict of every freshly computed generation,
    after that generation's checkpoint is persisted.
    """
    accelerator = ctx.accelerator
    iterations = ctx.iterations
    parameter = ctx.hw.parameter
    slots_m = accelerator.num_multiplier_slots

    population = min(population_size, max(4, iterations // 4))
    generations = max(0, iterations // population - 1)
    config = Nsga2Config(
        population_size=population,
        generations=generations,
        crossover_rate=crossover_rate,
        mutation_rate=mutation_rate,
        archive_limit=archive_limit,
        seed=ctx.seed,
    )

    def to_config(genome) -> SlotConfiguration:
        return SlotConfiguration(tuple(genome[:slots_m]), tuple(genome[slots_m:]))

    def random_genome(rng: np.random.Generator):
        drawn = accelerator.random_configuration(rng)
        return drawn.multiplier_indices + drawn.adder_indices

    def mutate(genome, rng: np.random.Generator):
        mutated = accelerator.mutate_configuration(to_config(genome), rng)
        return mutated.multiplier_indices + mutated.adder_indices

    def crossover(a, b, rng: np.random.Generator):
        take_first = (rng.random(len(a)) < 0.5).tolist()
        return tuple(x if flag else y for x, y, flag in zip(a, b, take_first))

    def evaluate(genomes):
        qualities, costs = _surrogate_scores(ctx, [to_config(genome) for genome in genomes])
        return [
            (float(cost), float(1.0 - quality))
            for cost, quality in zip(costs, qualities)
        ]

    token = blake_token(
        "nsga2",
        accelerator_token(accelerator),
        parameter,
        population,
        crossover_rate,
        mutation_rate,
        archive_limit,
        ctx.seed,
        ctx._study,
    )
    result = run_nsga2(
        random_genome=random_genome,
        mutate=mutate,
        crossover=crossover,
        evaluate=evaluate,
        config=config,
        store=ctx.store,
        run_id=ctx.run_id,
        token=token,
        on_generation=ctx.on_generation,
    )
    return [
        EvaluatedConfiguration(
            config=to_config(entry.item),
            quality=1.0 - entry.objectives[1],
            cost={parameter: entry.objectives[0]},
        )
        for entry in result.archive
    ]


@SEARCH_STRATEGIES.register("sh_ehvi")
def successive_halving_ehvi(
    ctx: SearchContext,
    *,
    archive_limit: int = 64,
    initial_cohort: Optional[int] = None,
    acquisition_pool: Optional[int] = None,
    eta: float = 2.0,
    min_survivors: int = 4,
    mc_samples: int = 128,
    telemetry: Optional[dict] = None,
) -> List[EvaluatedConfiguration]:
    """EHVI-screened successive halving over an explicit fidelity ladder.

    The multi-fidelity, uncertainty-aware strategy: instead of spending the
    whole budget on exact evaluation or none of it (the estimator-only
    strategies), it

    1. **screens** an ``acquisition_pool`` of random configurations with the
       estimators' predictive uncertainty (``estimate_batch_with_std``) and
       greedily picks an ``initial_cohort`` by expected hypervolume
       improvement (each pick's predicted mean joins the selection front
       before the next pick -- the standard believer-style batch rule, fully
       deterministic);
    2. **runs successive halving** over the fidelity ladder: the cohort is
       exactly evaluated through ``ctx.evaluate`` at the cheapest rung (a
       total-pixel budget applied by centre-cropping the inputs, see
       :func:`repro.workloads.fidelity_inputs`), survivors selected by
       NSGA-II environmental selection are promoted to the next rung, and
       the final rung is always full fidelity -- so every returned candidate
       carries *exact* measurements, and the flow's subsequent exact pass
       is pure cache hits.

    ``ctx.fidelity_ladder`` lists the reduced-rung pixel budgets in
    ascending order (default: ``total_pixels/16, total_pixels/4`` via
    :func:`repro.search.default_fidelity_ladder`); the full-fidelity rung is
    appended automatically.

    With ``ctx.store``, rung survivors are checkpointed through the same
    store/run_id plumbing NSGA-II uses (see
    :func:`repro.search.run_successive_halving`): a service worker killed
    mid-rung is taken over and finishes to a bit-identical payload.
    ``ctx.on_generation`` fires per completed rung.  ``telemetry``, when a
    dict is passed, is filled with the realised pattern budget per rung --
    the numbers behind the benchmark's budget-vs-hypervolume gate.
    """
    accelerator, images, seed = ctx.accelerator, ctx.images, ctx.seed
    parameter = ctx.hw.parameter
    rng = np.random.default_rng(seed)
    full_patterns = int(sum(int(np.asarray(image).size) for image in images))

    # ---- 1. uncertainty-aware screening ----------------------------------
    pool_size = int(acquisition_pool or max(64, ctx.iterations))
    pool = [accelerator.random_configuration(rng) for _ in range(pool_size)]
    # EHVI can only pick what the pool contains, and random sampling alone
    # rarely reaches the estimated Pareto region, so the pool is seeded with
    # surrogate-optimised candidates too: an estimator-only NSGA-II run
    # contributes its archive.  This is the usual "optimise the acquisition
    # on the surrogate" move.  It neither checkpoints nor reports
    # generations: this strategy's run id and callback belong to its rungs.
    surrogate = nsga2_pareto(
        replace(ctx, store=None, run_id="", on_generation=None),
        archive_limit=max(32, 2 * int(initial_cohort or 0)),
    )
    pool.extend(entry.config for entry in surrogate)
    pool_size = len(pool)
    features = configuration_feature_matrix(accelerator, pool)
    quality_mean, quality_std = ctx.qor.estimate_batch_with_std(
        accelerator, pool, features=features
    )
    cost_mean, cost_std = ctx.hw.estimate_batch_with_std(accelerator, pool, features=features)
    means = np.stack([cost_mean, 1.0 - np.clip(quality_mean, 0.0, 1.0)], axis=1)
    stds = np.stack([np.abs(cost_std), np.abs(quality_std)], axis=1)
    maxima = means.max(axis=0)
    reference = maxima + 0.05 * np.abs(maxima) + 1e-9

    cohort_size = int(initial_cohort or min(pool_size, max(8, ctx.iterations // 8)))
    selected: List[int] = []
    believer_front: List[np.ndarray] = []
    remaining = list(range(pool_size))
    while remaining and len(selected) < cohort_size:
        front = np.asarray(believer_front, dtype=np.float64).reshape(-1, 2)
        scores = expected_hypervolume_improvement(
            front, reference, means[remaining], stds[remaining],
            num_samples=mc_samples, seed=seed,
        )
        best = int(np.argmax(scores))  # ties break to the lowest pool index
        index = remaining.pop(best)
        selected.append(index)
        believer_front.append(means[index])
    cohort = [pool[i] for i in selected]

    # ---- 2. successive halving up the fidelity ladder --------------------
    if ctx.fidelity_ladder is None:
        ladder = default_fidelity_ladder(full_patterns)
    else:
        ladder = tuple(int(f) for f in ctx.fidelity_ladder)
    rungs = tuple(f for f in ladder if f < full_patterns) + (None,)

    def encode(config: SlotConfiguration) -> dict:
        return {
            "m": [int(i) for i in config.multiplier_indices],
            "a": [int(i) for i in config.adder_indices],
        }

    def decode(payload: dict) -> SlotConfiguration:
        return SlotConfiguration(
            tuple(int(i) for i in payload["m"]), tuple(int(i) for i in payload["a"])
        )

    def evaluate(rung: int, fidelity: Optional[int], batch: List[dict]) -> List[dict]:
        return [
            {"quality": entry.quality, "cost": entry.cost}
            for entry in ctx.evaluate([decode(payload) for payload in batch], fidelity)
        ]

    def objectives(payload: dict) -> Tuple[float, float]:
        return (float(payload["cost"][parameter]), 1.0 - float(payload["quality"]))

    token = blake_token(
        "sh_ehvi",
        accelerator_token(accelerator),
        images_token(images),
        parameter,
        pool_size,
        cohort_size,
        rungs,
        eta,
        min_survivors,
        archive_limit,
        mc_samples,
        seed,
        ctx._study,
    )
    result = run_successive_halving(
        candidates=[encode(config) for config in cohort],
        evaluate=evaluate,
        objectives=objectives,
        config=SuccessiveHalvingConfig(rungs=rungs, eta=eta, min_survivors=min_survivors),
        store=ctx.store,
        run_id=ctx.run_id,
        token=token,
        on_rung=ctx.on_generation,
    )

    archive = ParetoArchive(num_objectives=2, dedupe_keys=False)
    for payload, evaluation in zip(result.survivors, result.evaluations):
        entry = EvaluatedConfiguration.from_payload(decode(payload), evaluation)
        archive.insert(None, entry.objectives(parameter), item=entry)
    if len(archive) > archive_limit:
        archive.truncate_crowding(archive_limit)

    if telemetry is not None:
        def rung_patterns(fidelity: Optional[int]) -> int:
            if fidelity is None:
                return full_patterns
            reduced_images, reduced = fidelity_inputs(images, int(fidelity))
            return sum(int(image.size) for image in reduced_images) if reduced else full_patterns

        per_rung = [
            dict(stats, patterns=rung_patterns(stats["fidelity"])) for stats in result.history
        ]
        telemetry.update(
            {
                "pool": pool_size,
                "cohort": cohort_size,
                "full_patterns": full_patterns,
                "rungs": per_rung,
                "exact_pattern_budget": sum(
                    stats["evaluated"] * stats["patterns"] for stats in per_rung
                ),
                "resumed_from": result.resumed_from,
            }
        )
    return archive.items()
