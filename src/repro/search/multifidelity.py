"""Multi-fidelity, uncertainty-aware search primitives.

Two building blocks close the ROADMAP's "multi-fidelity, uncertainty-aware
search" item; both are problem-agnostic and shared by the ``"sh_ehvi"``
strategy in :mod:`repro.autoax.search`:

* **Expected hypervolume improvement (EHVI)** -- the acquisition function
  that turns a model's ``predict_with_std`` output into "how much would
  this candidate grow the Pareto front?".  Every search here has two
  objectives, so :func:`expected_hypervolume_improvement` is the exact
  two-objective closed form (a strip decomposition of the front's
  staircase, each strip's expectation factorising over the two independent
  Gaussians) and rejects input with any other number of objectives.

* **Successive halving** -- :func:`run_successive_halving` runs a
  candidate cohort up a fidelity ladder (cheap screens first, survivors
  promoted to higher fidelity), selecting survivors per rung with NSGA-II
  environmental selection.  The loop consumes no randomness, so with
  evaluation a deterministic function of ``(candidate, fidelity)`` a rerun
  gives the same result; the ``"sh_ehvi"`` strategy evaluates through the
  engine cache, so a rerun of an interrupted run recomputes only the
  evaluations it had not finished.

All objectives are minimised throughout, matching the rest of
:mod:`repro.search`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtr

from .nsga2 import select_next_population

__all__ = [
    "SuccessiveHalvingConfig",
    "SuccessiveHalvingResult",
    "default_fidelity_ladder",
    "expected_hypervolume_improvement",
    "run_successive_halving",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Smallest standard deviation fed into the Gaussian expectations.  Exactly
#: deterministic predictions (an ensemble whose members agree, a zero-std
#: fallback model) degrade EHVI to the deterministic hypervolume-improvement
#: indicator instead of dividing by zero.
_STD_FLOOR = 1e-12


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / _SQRT_2PI


def _psi(u: np.ndarray, b: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``E[(b - Y) * 1[Y < u]]`` for ``Y ~ N(mu, sigma^2)``, elementwise.

    The one Gaussian partial moment both EHVI factors reduce to:
    ``(b - mu) * Phi((u - mu) / sigma) + sigma * phi((u - mu) / sigma)``.
    """
    z = (u - mu) / sigma
    return (b - mu) * ndtr(z) + sigma * _norm_pdf(z)


def _staircase(front: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """The 2-D front reduced to its staircase inside the reference box.

    Points at or beyond the reference in either objective cannot shrink any
    candidate's improvement, so they are dropped; the survivors are pruned
    to the non-dominated subset and sorted to strictly increasing first /
    strictly decreasing second objective.
    """
    from ..core.pareto import pareto_front_indices

    front = front[(front[:, 0] < reference[0]) & (front[:, 1] < reference[1])]
    if front.shape[0]:
        front = front[pareto_front_indices(front)]
        front = front[np.lexsort((front[:, 1], front[:, 0]))]
        # Exact duplicates survive pareto_front_indices; keep one of each.
        keep = np.ones(front.shape[0], dtype=bool)
        keep[1:] = front[1:, 0] > front[:-1, 0]
        front = front[keep]
    return front


def expected_hypervolume_improvement(
    front: np.ndarray,
    reference: Sequence[float],
    means: np.ndarray,
    stds: np.ndarray,
) -> np.ndarray:
    """Exact two-objective EHVI of independent Gaussian candidates.

    ``front`` is the current non-dominated set (an ``(n, 2)`` point array,
    may be empty), ``reference`` the hypervolume reference point, ``means``
    / ``stds`` the per-candidate predictive moments, shape ``(k, 2)``.
    Returns the ``(k,)`` vector of expected improvements.  Input that does
    not have exactly two objectives raises :class:`ValueError`.

    Derivation: with the front's staircase cut into vertical strips
    ``[a_i, u_i) x [y_2, b_i)`` (sentinels ``a_0 = -inf``, ``u_n = r_1``,
    ``b_0 = r_2``), a candidate ``y`` adds volume
    ``sum_i (u_i - max(a_i, y_1))_+ * (b_i - y_2)_+``; the two factors
    depend on different independent coordinates, so the expectation is the
    product of two Gaussian partial moments (:func:`_psi`) per strip.
    """
    reference = np.asarray(reference, dtype=np.float64)
    front, means, stds = (np.asarray(v, dtype=np.float64) for v in (front, means, stds))
    if reference.shape != (2,) or any(
        array.ndim != 2 or array.shape[1] != 2 for array in (front, means, stds)
    ):
        raise ValueError(
            "EHVI needs exactly two objectives: got reference "
            f"{reference.shape}, front {front.shape}, means {means.shape}, "
            f"stds {stds.shape}; expected (2,) and (n, 2)"
        )
    if means.shape != stds.shape:
        raise ValueError("means and stds must have matching (k, 2) shapes")
    stds = np.maximum(stds, _STD_FLOOR)

    stairs = _staircase(front, reference)
    a = np.concatenate([[-np.inf], stairs[:, 0]])  # strip lower x edges
    u = np.concatenate([stairs[:, 0], [reference[0]]])  # strip upper x edges
    b = np.concatenate([[reference[1]], stairs[:, 1]])  # strip free heights

    mu1, s1 = means[:, :1], stds[:, :1]
    mu2, s2 = means[:, 1:], stds[:, 1:]
    a_row, u_row, b_row = a[None, :], u[None, :], b[None, :]

    # E[(u - max(a, Y1))_+] = (u - a) Phi(z_a) + E[(u - Y1) 1[a <= Y1 < u]];
    # the first term vanishes for the unbounded leftmost strip (Phi -> 0).
    # a is substituted by u on that strip so the eager branch stays finite.
    a_safe = np.where(np.isfinite(a_row), a_row, u_row)
    below_a = np.where(
        np.isfinite(a_row),
        (u_row - a_safe) * ndtr((a_safe - mu1) / s1),
        0.0,
    )
    widths = below_a + _psi(u_row, u_row, mu1, s1) - _psi(a_row, u_row, mu1, s1)
    heights = _psi(b_row, b_row, mu2, s2)
    return np.maximum((widths * heights).sum(axis=1), 0.0)


# --------------------------------------------------------------------- #
# Fidelity ladders and successive halving
# --------------------------------------------------------------------- #
def default_fidelity_ladder(
    full_patterns: int, factors: Sequence[int] = (16, 4), floor: int = 256
) -> Tuple[int, ...]:
    """Ascending low-fidelity pattern budgets below ``full_patterns``.

    The conventional geometric ladder (``full/16 -> full/4`` by default),
    floored so tiny workloads don't screen on statistically useless budgets
    and deduplicated/filtered so every rung is a strict reduction.  The
    final full-fidelity rung is *not* included -- callers append it
    (``None`` in :class:`SuccessiveHalvingConfig` terms).
    """
    full_patterns = int(full_patterns)
    if full_patterns < 1:
        raise ValueError("full_patterns must be at least 1")
    rungs: List[int] = []
    for factor in factors:
        budget = max(int(floor), full_patterns // int(factor))
        if budget < full_patterns and (not rungs or budget > rungs[-1]):
            rungs.append(budget)
    return tuple(rungs)


@dataclass(frozen=True)
class SuccessiveHalvingConfig:
    """Knobs of one successive-halving run.

    ``rungs`` is the fidelity ladder: one pattern budget per rung, ascending,
    with ``None`` meaning full fidelity (conventionally the last rung).
    Each rung evaluates the surviving cohort at its fidelity and keeps
    ``ceil(n / eta)`` survivors (never fewer than ``min_survivors``) for the
    next rung; the final rung's cohort is returned whole.
    """

    rungs: Tuple[Optional[int], ...] = (None,)
    eta: float = 2.0
    min_survivors: int = 1

    def __post_init__(self) -> None:
        if not self.rungs:
            raise ValueError("at least one fidelity rung is required")
        if self.eta <= 1.0:
            raise ValueError("eta must be greater than 1")
        if self.min_survivors < 1:
            raise ValueError("min_survivors must be at least 1")
        previous = None
        for fidelity in self.rungs:
            if fidelity is None:
                previous = math.inf
                continue
            if int(fidelity) < 1:
                raise ValueError(f"fidelity rungs must be positive, got {fidelity}")
            if previous is not None and int(fidelity) <= previous:
                raise ValueError(f"fidelity rungs must ascend, got {self.rungs}")
            previous = int(fidelity)


@dataclass
class SuccessiveHalvingResult:
    """Outcome of one successive-halving run."""

    survivors: List[object]
    """Candidates of the final rung, in selection order."""
    evaluations: List[object]
    """Final-rung evaluations, aligned with :attr:`survivors`."""
    history: List[dict] = field(default_factory=list)


def run_successive_halving(
    *,
    candidates: Sequence[object],
    evaluate: Callable[[int, Optional[int], List[object]], Sequence[object]],
    objectives: Callable[[object], Sequence[float]],
    config: Optional[SuccessiveHalvingConfig] = None,
    on_rung: Optional[Callable[[dict], None]] = None,
) -> SuccessiveHalvingResult:
    """Run successive halving over a fidelity ladder.

    ``candidates`` are opaque.  Per rung, ``evaluate(rung_index, fidelity,
    cohort)`` returns one evaluation per candidate (in order) and
    ``objectives(evaluation)`` extracts the minimised objective tuple used
    for survivor selection (NSGA-II environmental selection: whole fronts
    in rank order, the overflowing front truncated by crowding distance --
    deterministic ties).  ``on_rung`` fires with each rung's stats dict
    (service workers renew their job leases there).
    """
    config = config or SuccessiveHalvingConfig()
    cohort = list(candidates)
    if not cohort:
        raise ValueError("successive halving needs at least one candidate")

    history: List[dict] = []
    evaluations: List[object] = []
    for rung, fidelity in enumerate(config.rungs):
        fidelity = None if fidelity is None else int(fidelity)
        evaluated = list(evaluate(rung, fidelity, list(cohort)))
        if len(evaluated) != len(cohort):
            raise RuntimeError(
                f"rung {rung} evaluation returned {len(evaluated)} results "
                f"for {len(cohort)} candidates"
            )
        points = np.asarray([objectives(entry) for entry in evaluated], dtype=np.float64)
        if rung == len(config.rungs) - 1:
            keep = list(range(len(cohort)))
        else:
            target = max(config.min_survivors, int(math.ceil(len(cohort) / config.eta)))
            target = min(target, len(cohort))
            keep = sorted(select_next_population(points, target))
        cohort = [cohort[i] for i in keep]
        evaluations = [evaluated[i] for i in keep]
        history.append(
            {
                "rung": rung,
                "fidelity": fidelity,
                "evaluated": len(evaluated),
                "survivors": len(cohort),
                "objective_minima": [float(v) for v in points.min(axis=0)],
            }
        )
        if on_rung is not None:
            on_rung(history[-1])

    return SuccessiveHalvingResult(survivors=cohort, evaluations=evaluations, history=history)
