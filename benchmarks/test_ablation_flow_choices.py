"""Ablations of the methodology's design choices (DESIGN.md section "Design choices").

Two ablations on the 8x8 multiplier library:

* training-subset fraction (5% / 12% / 25%): more synthesized training data
  costs exploration time but buys estimator fidelity / coverage;
* feature set for the estimators: ASIC-metrics-only vs structural-only vs the
  combined default feature vector.
"""

from __future__ import annotations

import numpy as np

from repro.api import ExplorationSession
from repro.core import ApproxFpgasConfig, fidelity
from repro.features import ASIC_FEATURE_NAMES, STRUCTURAL_FEATURE_NAMES, feature_matrix
from repro.ml import BayesianRidgeRegression, ScaledRegressor, train_test_split


def test_ablation_training_fraction(benchmark, mult8_library):
    def study():
        rows = []
        for fraction in (0.05, 0.12, 0.25):
            config = ApproxFpgasConfig(
                training_fraction=fraction,
                min_training_circuits=10,
                num_pseudo_fronts=2,
                top_k_models=2,
                model_ids=["ML4", "ML11", "ML14"],
                seed=7,
                evaluate_coverage=True,
            )
            result = ExplorationSession().run_approxfpgas(mult8_library, config)
            coverage = float(
                np.mean([outcome.coverage for outcome in result.parameter_outcomes.values()])
            )
            rows.append((fraction, coverage, result.exploration_cost.speedup))
        return rows

    rows = benchmark.pedantic(study, rounds=1, iterations=1)

    print("\n=== Ablation: training-subset fraction (8x8 multipliers) ===")
    print(f"{'fraction':>10}{'mean coverage':>16}{'speedup':>10}")
    for fraction, coverage, speedup in rows:
        print(f"{fraction:>10.2f}{coverage:>16.2f}{speedup:>10.2f}")

    # A larger synthesized subset cannot make exploration (much) faster; a small
    # tolerance absorbs differences between the runs' candidate sets.
    speedups = [speedup for _, _, speedup in rows]
    assert speedups[0] >= speedups[-1] - 0.05
    # All fractions should still recover a sizeable part of the front.
    assert all(coverage >= 0.35 for _, coverage, _ in rows)


def test_ablation_feature_sets(benchmark, mult8_measurements, mult8_library, asic_synth):
    errors, asic_reports, fpga_reports = mult8_measurements
    circuits = list(mult8_library)
    X, names = feature_matrix(circuits, asic_reports=asic_reports)
    y = np.array([report.latency_ns for report in fpga_reports])

    structural_idx = [names.index(name) for name in STRUCTURAL_FEATURE_NAMES]
    asic_idx = [names.index(name) for name in ASIC_FEATURE_NAMES]

    def study():
        results = {}
        for label, columns in (
            ("asic_only", asic_idx),
            ("structural_only", structural_idx),
            ("combined", list(range(X.shape[1]))),
        ):
            X_train, X_test, y_train, y_test = train_test_split(
                X[:, columns], y, test_size=0.3, random_state=5
            )
            model = ScaledRegressor(BayesianRidgeRegression())
            model.fit(X_train, y_train)
            results[label] = fidelity(y_test, model.predict(X_test))
        return results

    results = benchmark.pedantic(study, rounds=1, iterations=1)

    print("\n=== Ablation: feature set for the latency estimator (Bayesian Ridge) ===")
    for label, value in results.items():
        print(f"{label:<18}{value:>8.2f}")

    assert results["combined"] >= results["asic_only"] - 0.1
    assert all(0.0 <= value <= 1.0 for value in results.values())
