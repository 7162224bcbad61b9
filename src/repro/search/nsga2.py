"""Generic population-based NSGA-II search with checkpoint/resume.

The engine is deliberately problem-agnostic: a *genome* is a JSON-roundtrip
tuple (ints/floats), and the problem plugs in through four callables --
``random_genome``, ``mutate``, ``crossover`` and a **batched** ``evaluate``
that maps a whole population to objective vectors in one call.  Batching is
the point: surrogate models predict a generation as one matrix and exact
evaluators amortise shared work (reference outputs, process-pool fan-out)
across the population instead of paying per-candidate overhead, which is
what lets the population strategies beat the sequential hill climber at
equal evaluation budget (see ``benchmarks/test_search_throughput.py``).

Determinism: one seeded generator drives initialisation, selection and
variation; evaluation must be a deterministic function of the genome.  The
per-generation checkpoint stores the population, the archive and the raw
bit-generator state, so a resumed run replays the exact RNG stream and the
final archive is bit-identical to an uninterrupted run (pinned by
``tests/test_search_nsga2.py``).

The AutoAx configuration-space adapter is registered as the ``"nsga2"``
entry of :data:`repro.autoax.SEARCH_STRATEGIES`
(:func:`repro.autoax.search.nsga2_pareto`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .archive import ParetoArchive, crowding_distances, non_dominated_ranks

__all__ = ["Nsga2Config", "Nsga2Result", "genome_token", "run_nsga2", "select_next_population"]

Genome = Tuple
Objectives = Tuple[float, ...]


def genome_token(genome: Genome) -> str:
    """Canonical archive/checkpoint key of one genome."""
    return ",".join(repr(value) for value in genome)


@dataclass
class Nsga2Config:
    """Knobs of one NSGA-II run.  All randomness derives from ``seed``."""

    population_size: int = 32
    generations: int = 12
    crossover_rate: float = 0.9
    mutation_rate: float = 1.0
    tournament_size: int = 2
    archive_limit: int = 64
    seed: int = 31

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.generations < 0:
            raise ValueError("generations must not be negative")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be within [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be within [0, 1]")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be at least 1")
        if self.archive_limit < 1:
            raise ValueError("archive_limit must be at least 1")


@dataclass
class Nsga2Result:
    """Outcome of one (possibly resumed) NSGA-II run."""

    archive: ParetoArchive
    population: List[Genome]
    objectives: List[Objectives]
    generations_run: int
    evaluations: int
    history: List[dict] = field(default_factory=list)
    resumed_from: Optional[int] = None
    """Generation index the run was restored at (``None`` for fresh runs)."""


# --------------------------------------------------------------------- #
# Selection machinery
# --------------------------------------------------------------------- #
def select_next_population(points: np.ndarray, size: int) -> List[int]:
    """NSGA-II environmental selection: indices of the ``size`` survivors.

    Whole fronts are taken in rank order; the first front that does not fit
    is truncated by descending crowding distance (ties break towards lower
    index, so selection is deterministic).
    """
    points = np.asarray(points, dtype=np.float64)
    if size < 0 or size > points.shape[0]:
        raise ValueError(f"cannot select {size} from {points.shape[0]} points")
    ranks = non_dominated_ranks(points)
    selected: List[int] = []
    for rank in range(int(ranks.max()) + 1 if len(ranks) else 0):
        front = [int(i) for i in np.nonzero(ranks == rank)[0]]
        if len(selected) + len(front) <= size:
            selected.extend(front)
            if len(selected) == size:
                break
            continue
        distances = crowding_distances(points[front])
        order = sorted(range(len(front)), key=lambda i: (-distances[i], front[i]))
        selected.extend(front[i] for i in order[: size - len(selected)])
        break
    return selected


def _tournament(
    rng: np.random.Generator,
    ranks: Sequence[int],
    distances: Sequence[float],
    size: int,
) -> int:
    """Index of the tournament winner: lowest rank, then highest crowding.

    ``ranks`` and ``distances`` are plain lists (one ``tolist`` per
    generation), so the comparisons run on Python numbers.  Contenders are
    drawn one scalar ``integers`` call at a time: the same values, in the
    same order, as one ``size=size`` call, at about half its overhead.
    """
    population = len(ranks)
    contenders = [int(rng.integers(0, population)) for _ in range(size)]
    best = contenders[0]
    for index in contenders[1:]:
        if (ranks[index], -distances[index], index) < (ranks[best], -distances[best], best):
            best = index
    return best


# --------------------------------------------------------------------- #
# Checkpointing
# --------------------------------------------------------------------- #
def _checkpoint_key(run_id: str) -> str:
    return f"nsga2:{run_id}:state"


def _manifest_key(run_id: str) -> str:
    return f"nsga2:{run_id}:#manifest"


def _save_checkpoint(
    store,
    run_id: str,
    *,
    generation: int,
    population: Sequence[Genome],
    objectives: Sequence[Objectives],
    archive: ParetoArchive,
    rng: np.random.Generator,
    evaluations: int,
    history: List[dict],
) -> None:
    store.put(
        _checkpoint_key(run_id),
        {
            "generation": generation,
            "population": [list(genome) for genome in population],
            "objectives": [list(values) for values in objectives],
            "archive": archive.to_payload(),
            "rng_state": rng.bit_generator.state,
            "evaluations": evaluations,
            "history": list(history),
        },
    )


# --------------------------------------------------------------------- #
# The run loop
# --------------------------------------------------------------------- #
def run_nsga2(
    *,
    random_genome: Callable[[np.random.Generator], Genome],
    mutate: Callable[[Genome, np.random.Generator], Genome],
    crossover: Callable[[Genome, Genome, np.random.Generator], Genome],
    evaluate: Callable[[List[Genome]], Sequence[Objectives]],
    config: Optional[Nsga2Config] = None,
    store=None,
    run_id: str = "nsga2",
    token: str = "",
    resume: bool = True,
    on_generation: Optional[Callable[[dict], None]] = None,
) -> Nsga2Result:
    """Run (or resume) NSGA-II and return the final archive and population.

    ``evaluate`` receives the whole generation at once and must return one
    objective tuple (all minimised) per genome, in order.  With a ``store``
    attached (any ``get``/``put`` object, e.g.
    :class:`repro.io.JsonDirectoryStore` or its sharded variant), the full
    search state -- including
    the RNG stream -- is checkpointed after every generation; a rerun with
    the same ``run_id``/``token`` resumes from the stored generation and
    finishes bit-identically to an uninterrupted run.  A different ``token``
    (changed problem or configuration) invalidates old checkpoints.

    ``on_generation`` is called with the per-generation stats dict (see
    ``Nsga2Result.history``) after every *freshly computed* generation, once
    its checkpoint -- when a store is attached -- has been persisted.
    Long-running callers use it for liveness signals (the
    :mod:`repro.service` worker renews its job lease there), which is also
    why it fires after the checkpoint write: a callback that aborts the run
    never loses the generation it was told about.
    """
    config = config or Nsga2Config()
    rng = np.random.default_rng(config.seed)
    archive = ParetoArchive()
    history: List[dict] = []
    evaluations = 0
    generation = 0
    resumed_from: Optional[int] = None

    # The manifest pins everything the RNG stream depends on -- but not the
    # horizon: extending `generations` must resume the shorter run's
    # checkpoint (interrupt-after-generation-N semantics), not restart.
    expected_manifest = {"token": token, "config": repr(replace(config, generations=0))}
    checkpoint = None
    if store is not None:
        if resume and store.get(_manifest_key(run_id)) == expected_manifest:
            checkpoint = store.get(_checkpoint_key(run_id))
        store.put(_manifest_key(run_id), expected_manifest)

    if checkpoint is not None and checkpoint["generation"] <= config.generations:
        generation = int(checkpoint["generation"])
        resumed_from = generation
        population = [tuple(genome) for genome in checkpoint["population"]]
        objectives = [tuple(float(v) for v in values) for values in checkpoint["objectives"]]
        archive = ParetoArchive.from_payload(checkpoint["archive"])
        rng.bit_generator.state = checkpoint["rng_state"]
        evaluations = int(checkpoint["evaluations"])
        history = list(checkpoint["history"])
    else:
        population = [random_genome(rng) for _ in range(config.population_size)]
        objectives = [tuple(float(v) for v in o) for o in evaluate(population)]
        evaluations += len(population)
        for genome, values in zip(population, objectives):
            archive.insert(genome_token(genome), values, item=list(genome))
        archive.truncate_crowding(config.archive_limit)
        history.append(_generation_stats(0, archive, evaluations))
        if store is not None:
            _save_checkpoint(
                store,
                run_id,
                generation=0,
                population=population,
                objectives=objectives,
                archive=archive,
                rng=rng,
                evaluations=evaluations,
                history=history,
            )
        if on_generation is not None:
            on_generation(history[-1])

    while generation < config.generations:
        points = np.array(objectives, dtype=np.float64)
        ranks = non_dominated_ranks(points).tolist()
        distances = crowding_distances(points).tolist()

        offspring: List[Genome] = []
        for _ in range(config.population_size):
            first = _tournament(rng, ranks, distances, config.tournament_size)
            second = _tournament(rng, ranks, distances, config.tournament_size)
            if rng.random() < config.crossover_rate:
                child = crossover(population[first], population[second], rng)
            else:
                child = population[first]
            if rng.random() < config.mutation_rate:
                child = mutate(child, rng)
            offspring.append(tuple(child))

        child_objectives = [tuple(float(v) for v in o) for o in evaluate(offspring)]
        evaluations += len(offspring)
        for genome, values in zip(offspring, child_objectives):
            archive.insert(genome_token(genome), values, item=list(genome))
        archive.truncate_crowding(config.archive_limit)

        combined = population + offspring
        combined_objectives = objectives + child_objectives
        survivors = select_next_population(
            np.array(combined_objectives, dtype=np.float64), config.population_size
        )
        population = [combined[i] for i in survivors]
        objectives = [combined_objectives[i] for i in survivors]

        generation += 1
        history.append(_generation_stats(generation, archive, evaluations))
        if store is not None:
            _save_checkpoint(
                store,
                run_id,
                generation=generation,
                population=population,
                objectives=objectives,
                archive=archive,
                rng=rng,
                evaluations=evaluations,
                history=history,
            )
        if on_generation is not None:
            on_generation(history[-1])

    return Nsga2Result(
        archive=archive,
        population=list(population),
        objectives=list(objectives),
        generations_run=generation,
        evaluations=evaluations,
        history=history,
        resumed_from=resumed_from,
    )


def _generation_stats(generation: int, archive: ParetoArchive, evaluations: int) -> dict:
    points = archive.objective_array()
    return {
        "generation": generation,
        "evaluations": evaluations,
        "archive_size": len(archive),
        "objective_minima": [float(v) for v in points.min(axis=0)] if len(points) else [],
    }
