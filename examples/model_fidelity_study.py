#!/usr/bin/env python3
"""Fidelity study of the 18 S/ML models (the data behind Fig. 5 / Table II).

The script synthesizes a training subset of an approximate-adder library,
trains every Table I model for each FPGA parameter and prints the fidelity
matrix, so you can see which estimators preserve the circuit ordering best.

Run with:  python examples/model_fidelity_study.py
"""

from __future__ import annotations

import numpy as np

from repro.asic import AsicSynthesizer
from repro.core import fidelity
from repro.features import feature_matrix
from repro.fpga import FPGA_PARAMETERS, FpgaSynthesizer
from repro.generators import build_adder_library
from repro.ml import MODEL_DESCRIPTIONS, MODELS, build_model, train_test_split


def main() -> None:
    library = build_adder_library(12, size=90, seed=5)
    asic = AsicSynthesizer()
    fpga = FpgaSynthesizer()

    circuits = list(library)
    print(f"Synthesizing {len(circuits)} approximate 12-bit adders ...")
    asic_reports = [asic.synthesize(circuit) for circuit in circuits]
    fpga_reports = [fpga.synthesize(circuit) for circuit in circuits]
    X, feature_names = feature_matrix(circuits, asic_reports=asic_reports)

    print("\nFidelity on a held-out validation split:")
    print(f"{'model':<6}{'description':<38}" + "".join(f"{p:>10}" for p in FPGA_PARAMETERS))
    for model_id in MODELS:
        row = []
        for parameter in FPGA_PARAMETERS:
            y = np.array([report.parameter(parameter) for report in fpga_reports])
            X_train, X_val, y_train, y_val = train_test_split(X, y, test_size=0.25, random_state=11)
            model = build_model(model_id, feature_names, random_state=0)
            model.fit(X_train, y_train)
            row.append(fidelity(y_val, model.predict(X_val)))
        print(f"{model_id:<6}{MODEL_DESCRIPTIONS[model_id]:<38}" + "".join(f"{v:>10.2f}" for v in row))

    print("\nHigher is better; 1.0 means the estimator orders every pair of circuits correctly.")


if __name__ == "__main__":
    main()
