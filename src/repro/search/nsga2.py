"""Generic population-based NSGA-II search.

The engine is deliberately problem-agnostic: a *genome* is a tuple of
ints/floats, and the problem plugs in through four callables --
``random_genome``, ``mutate``, ``crossover`` and a **batched** ``evaluate``
that maps a whole population to objective vectors in one call.  Batching is
the point: surrogate models predict a generation as one matrix and exact
evaluators amortise shared work (reference outputs, process-pool fan-out)
across the population instead of paying per-candidate overhead, which is
what lets the population strategies beat the sequential hill climber at
equal evaluation budget (see ``benchmarks/test_search_throughput.py``).

Determinism: one seeded generator drives initialisation, selection and
variation; evaluation must be a deterministic function of the genome, so a
rerun with the same configuration returns the same archive (pinned by
``tests/test_search_nsga2.py``).

The AutoAx configuration-space adapter is registered as the ``"nsga2"``
entry of :data:`repro.autoax.SEARCH_STRATEGIES`
(:func:`repro.autoax.search.nsga2_pareto`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .archive import ParetoArchive, crowding_distances, non_dominated_ranks

__all__ = ["Nsga2Config", "Nsga2Result", "genome_token", "run_nsga2", "select_next_population"]

Genome = Tuple
Objectives = Tuple[float, ...]


def genome_token(genome: Genome) -> str:
    """Canonical archive key of one genome."""
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
    """Outcome of one NSGA-II run."""

    archive: ParetoArchive
    population: List[Genome]
    objectives: List[Objectives]
    generations_run: int
    evaluations: int
    history: List[dict] = field(default_factory=list)


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
# The run loop
# --------------------------------------------------------------------- #
def run_nsga2(
    *,
    random_genome: Callable[[np.random.Generator], Genome],
    mutate: Callable[[Genome, np.random.Generator], Genome],
    crossover: Callable[[Genome, Genome, np.random.Generator], Genome],
    evaluate: Callable[[List[Genome]], Sequence[Objectives]],
    config: Optional[Nsga2Config] = None,
    on_generation: Optional[Callable[[dict], None]] = None,
) -> Nsga2Result:
    """Run NSGA-II and return the final archive and population.

    ``evaluate`` receives the whole generation at once and must return one
    objective tuple (all minimised) per genome, in order.

    ``on_generation`` is called with the per-generation stats dict (see
    ``Nsga2Result.history``) after every generation.  Long-running callers
    use it for liveness signals (the :mod:`repro.service` worker renews its
    job lease there).
    """
    config = config or Nsga2Config()
    rng = np.random.default_rng(config.seed)
    archive = ParetoArchive()
    history: List[dict] = []

    population = [random_genome(rng) for _ in range(config.population_size)]
    objectives = [tuple(float(v) for v in o) for o in evaluate(population)]
    evaluations = len(population)
    for genome, values in zip(population, objectives):
        archive.insert(genome_token(genome), values, item=list(genome))
    archive.truncate_crowding(config.archive_limit)
    history.append(_generation_stats(0, archive, evaluations))
    if on_generation is not None:
        on_generation(history[-1])

    for generation in range(1, config.generations + 1):
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

        history.append(_generation_stats(generation, archive, evaluations))
        if on_generation is not None:
            on_generation(history[-1])

    return Nsga2Result(
        archive=archive,
        population=list(population),
        objectives=list(objectives),
        generations_run=config.generations,
        evaluations=evaluations,
        history=history,
    )


def _generation_stats(generation: int, archive: ParetoArchive, evaluations: int) -> dict:
    points = archive.objective_array()
    return {
        "generation": generation,
        "evaluations": evaluations,
        "archive_size": len(archive),
        "objective_minima": [float(v) for v in points.min(axis=0)] if len(points) else [],
    }
