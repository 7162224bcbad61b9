"""Fig. 5 -- Fidelity of the 18 S/ML models for the three FPGA parameters.

The benchmark prints the full fidelity matrix (model x parameter) measured on
the validation split of the synthesized subset, i.e. the data behind Fig. 5.
"""

from __future__ import annotations

from repro.ml import MODEL_DESCRIPTIONS, MODELS


def test_fig5_fidelity_of_all_models(benchmark, mult8_flow_result):
    def table():
        return mult8_flow_result.fidelity_table()

    fidelity_table = benchmark.pedantic(table, rounds=1, iterations=1)

    print("\n=== Fig. 5: fidelity of the S/ML models (8x8 multipliers, validation split) ===")
    print(f"{'model':<6}{'description':<38}{'latency':>9}{'power':>9}{'area':>9}")
    for model_id in MODELS:
        row = [fidelity_table[parameter].get(model_id, float('nan')) for parameter in ("latency", "power", "area")]
        print(
            f"{model_id:<6}{MODEL_DESCRIPTIONS[model_id]:<38}"
            f"{row[0]:>9.2f}{row[1]:>9.2f}{row[2]:>9.2f}"
        )

    # Structural checks: every model evaluated on every parameter, fidelities valid.
    for parameter in ("latency", "power", "area"):
        assert set(fidelity_table[parameter]) == set(MODELS)
        for value in fidelity_table[parameter].values():
            assert 0.0 <= value <= 1.0

    # Paper claims (qualitatively): the best models reach high fidelity
    # (~85-90% in the paper), and tree-based methods are above average.
    for parameter in ("latency", "power", "area"):
        values = fidelity_table[parameter]
        best = max(values.values())
        average = sum(values.values()) / len(values)
        assert best >= 0.7, f"best fidelity for {parameter} unexpectedly low: {best:.2f}"
        tree_based = (values["ML5"] + values["ML18"]) / 2
        assert tree_based >= average - 0.1, "tree-based models should be near or above average"
