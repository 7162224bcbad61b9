"""Fig. 9 -- AutoAx-FPGA vs random search for the Gaussian-filter accelerator.

Nine Pareto-optimal 8x8 approximate multipliers and eight 16-bit approximate
adders feed the modified AutoAx flow; per FPGA parameter the hill-climbing /
estimator search is compared against plain random search in the
(SSIM, parameter) plane.  The paper's claims: AutoAx-FPGA beats random
search, the design space shrinks from ~1e14 configurations to a few hundred
synthesized candidates, and optimising for area or power transfers to the
other parameters better than optimising for latency does.
"""

from __future__ import annotations

import pytest

from repro.api import ExplorationSession
from repro.autoax import AutoAxConfig


@pytest.fixture(scope="module")
def autoax_result(autoax_components):
    multipliers, adders = autoax_components
    config = AutoAxConfig(
        parameters=("latency", "power", "area"),
        num_training_samples=70,
        num_random_baseline=70,
        hill_climb_iterations=300,
        image_size=48,
        seed=17,
    )
    return ExplorationSession(engine_mode="serial").run_autoax(multipliers, adders, config)


def test_fig9_autoax_vs_random_search(benchmark, autoax_result):
    def comparisons():
        return {
            parameter: autoax_result.hypervolume_comparison(parameter)
            for parameter in ("latency", "power", "area")
        }

    comparison = benchmark.pedantic(comparisons, rounds=1, iterations=1)

    print("\n=== Fig. 9: AutoAx-FPGA vs random search (Gaussian filter, SSIM vs FPGA cost) ===")
    print(f"design space size                : {autoax_result.design_space_size:.2e} configurations")
    print(f"exactly evaluated by AutoAx-FPGA : training {autoax_result.training_size} + candidates "
          f"{sum(s.num_candidates for s in autoax_result.scenarios.values())}")
    print(f"{'scenario':<12}{'candidates':>12}{'front size':>12}{'HV autoax':>14}{'HV random':>14}")
    wins = 0
    for parameter in ("latency", "power", "area"):
        scenario = autoax_result.scenarios[parameter]
        values = comparison[parameter]
        if values["autoax"] >= values["random"] * 0.98:
            wins += 1
        print(
            f"{parameter:<12}{scenario.num_candidates:>12}{len(scenario.front):>12}"
            f"{values['autoax']:>14.4f}{values['random']:>14.4f}"
        )

    best_ssim = {
        parameter: max(entry.quality for entry in autoax_result.scenarios[parameter].candidates)
        for parameter in ("latency", "power", "area")
    }
    print("best candidate SSIM per scenario :", {k: round(v, 3) for k, v in best_ssim.items()})

    # Claim 1: the explored candidate count is vanishingly small next to the space.
    total_evaluated = autoax_result.training_size + sum(
        scenario.num_candidates for scenario in autoax_result.scenarios.values()
    )
    assert total_evaluated < 1e-6 * autoax_result.design_space_size

    # Claim 2: AutoAx-FPGA matches or beats random search on most scenarios
    # (the latency estimator is the weak one in the paper as well).
    assert wins >= 2, f"AutoAx-FPGA should win on at least two of three scenarios (won {wins})"

    # Claim 3: the search still reaches high-quality configurations.
    assert max(best_ssim.values()) > 0.9
