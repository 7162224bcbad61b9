"""Golden-vector regression tests: frozen exhaustive outputs.

``tests/fixtures/golden_vectors.json`` freezes the exhaustive simulation
outputs (as blake2b digests plus spot values) of one exact and one perturbed
8-bit adder and multiplier.  Simulation or generator refactors that silently
change simulation semantics -- or the seeded perturbation operator -- fail
here even if the op tape and the ``bool`` oracle still agree with each
other.  Each fixture runs on the tape with each of its executors (the
native tape interpreter and the NumPy fallback) and with every simulation
routed through the oracle.

To regenerate after an *intentional* semantic change, recompute each entry
with ``digest_of(exhaustive_simulate(circuit))`` on the oracle (the
``oracle_route`` fixture of ``tests/conftest.py``) using the builders in
:data:`GOLDEN_CIRCUITS` below.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.circuits import compiled as compiled_module
from repro.circuits import exhaustive_simulate
from repro.error import compute_error_metrics
from repro.generators import array_multiplier, perturb_netlist, ripple_carry_adder

pytestmark = pytest.mark.sim_backends

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_vectors.json"

GOLDEN_CIRCUITS = {
    "adder8_exact": lambda: ripple_carry_adder(8),
    "adder8_perturbed_seed7": lambda: perturb_netlist(ripple_carry_adder(8), seed=7),
    "mult8_exact": lambda: array_multiplier(8),
    "mult8_perturbed_seed7": lambda: perturb_netlist(array_multiplier(8), seed=7),
}


def digest_of(outputs) -> str:
    return hashlib.blake2b(outputs.astype("<i8").tobytes(), digest_size=16).hexdigest()


@pytest.fixture(scope="module")
def fixture_data():
    with FIXTURE_PATH.open() as handle:
        return json.load(handle)["circuits"]


#: The tape on each executor, and every simulation routed through the oracle.
PATHS = ("oracle", "tape", "tape_numpy")


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("key", sorted(GOLDEN_CIRCUITS))
def test_exhaustive_outputs_match_frozen_fixture(
    key, path, fixture_data, monkeypatch, oracle_route
):
    if path == "oracle":
        oracle_route(monkeypatch)
    if path == "tape_numpy":
        # The tape's NumPy executor, which runs wherever the native tape
        # interpreter cannot be built (or ``REPRO_NO_NATIVE=1``).
        monkeypatch.setattr(compiled_module, "run_tape_native", lambda *args: False)
    expected = fixture_data[key]
    circuit = GOLDEN_CIRCUITS[key]()
    outputs = exhaustive_simulate(circuit)
    assert len(outputs) == expected["num_patterns"]
    assert circuit.num_outputs == expected["num_outputs"]
    for index, value in expected["spot_values"].items():
        assert int(outputs[int(index)]) == value, f"output[{index}] drifted"
    assert digest_of(outputs) == expected["digest_blake2b"], (
        f"exhaustive outputs of {key} changed on the {path} path; "
        "if this is an intentional semantic change, regenerate the fixture "
        "(see the module docstring)"
    )


@pytest.mark.parametrize(
    "exact_key,perturbed_key",
    [("adder8_exact", "adder8_perturbed_seed7"), ("mult8_exact", "mult8_perturbed_seed7")],
)
def test_frozen_med_of_perturbed_circuits(exact_key, perturbed_key, fixture_data):
    exact_outputs = exhaustive_simulate(GOLDEN_CIRCUITS[exact_key]())
    perturbed = GOLDEN_CIRCUITS[perturbed_key]()
    perturbed_outputs = exhaustive_simulate(perturbed)
    med = compute_error_metrics(
        exact_outputs, perturbed_outputs, (1 << perturbed.num_outputs) - 1
    ).med
    assert med == pytest.approx(fixture_data[perturbed_key]["med_vs_exact"], rel=0, abs=1e-15)
