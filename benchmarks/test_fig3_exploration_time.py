"""Fig. 3 -- Exhaustive vs ApproxFPGAs exploration time.

For each of the six libraries (8/12/16-bit adders and multipliers) the
benchmark accounts the modeled synthesis time of exhaustive exploration
against the ApproxFPGAs flow (training subset + pseudo-Pareto re-synthesis +
model training) and prints the per-library and cumulative rows of Fig. 3.
"""

from __future__ import annotations

import pytest

from repro.api import ExplorationSession
from repro.core import ExplorationSummary, seconds_to_days


@pytest.fixture(scope="module")
def exploration_summary(
    flow_config_factory,
    adder8_library,
    adder12_library,
    adder16_library,
    mult8_flow_result,
    mult12_library,
    mult16_library,
):
    """Run the flow (without the oracle coverage pass) on all six libraries."""
    summary = ExplorationSummary()
    session = ExplorationSession()
    config = flow_config_factory(evaluate_coverage=False, model_ids=["ML2", "ML4", "ML11", "ML14"])
    for library in (adder8_library, adder12_library, adder16_library):
        summary.add(session.run_approxfpgas(library, config).exploration_cost)
    # The 8x8 multiplier flow already ran with the full zoo; reuse its accounting.
    summary.add(mult8_flow_result.exploration_cost)
    for library in (mult12_library, mult16_library):
        summary.add(session.run_approxfpgas(library, config).exploration_cost)
    return summary


def test_fig3_exploration_time_reduction(benchmark, exploration_summary):
    def rows():
        return exploration_summary.cumulative_rows()

    table = benchmark.pedantic(rows, rounds=1, iterations=1)

    print("\n=== Fig. 3: exploration time, exhaustive vs ApproxFPGAs (modeled synthesis time) ===")
    header = f"{'library':<22}{'exhaustive':>14}{'approxfpgas':>14}{'speedup':>10}"
    print(header)
    for row, cost in zip(table, exploration_summary.costs):
        print(
            f"{row['library']:<22}"
            f"{row['exhaustive_time_s'] / 3600:>12.1f} h"
            f"{row['approxfpgas_time_s'] / 3600:>12.1f} h"
            f"{cost.speedup:>10.2f}"
        )
    print(
        f"{'CUMULATIVE':<22}"
        f"{seconds_to_days(exploration_summary.exhaustive_total_s):>11.2f} d"
        f"{seconds_to_days(exploration_summary.approxfpgas_total_s):>11.2f} d"
        f"{exploration_summary.overall_speedup:>10.2f}"
    )
    print(
        "(paper: 82.4 days exhaustive vs 8.2 days ApproxFPGAs, ~10x; at this reduced"
        " library scale the training subset and Pareto candidates are a larger fraction"
        " of the library, so the factor is smaller but the ordering is unchanged)"
    )

    # Qualitative claims: ApproxFPGAs is cheaper for every library and meaningfully
    # cheaper overall.  The paper reports ~10x at EvoApproxLib scale; the factor
    # shrinks with library size because the training subset and the Pareto
    # candidates become a larger *fraction* of a small library.
    for cost in exploration_summary.costs:
        assert cost.approxfpgas_time_s < cost.exhaustive_time_s
    assert exploration_summary.overall_speedup > 1.4
    # Exhaustive exploration of the full set is in the "100s of hours" regime.
    assert exploration_summary.exhaustive_total_s / 3600.0 > 20.0
