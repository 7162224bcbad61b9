"""Golden regression test of the synthesis substrate.

``tests/fixtures/synthesis_golden.json`` freezes, for every circuit of a
small seeded 8-bit multiplier library and a small seeded 8-bit adder
library, the ML feature row (``feature_matrix``), the ASIC report
(``AsicReport.as_dict()``) and the FPGA report (``FpgaReport.as_dict()``).
Every value is stored as its exact ``repr``, so a rewrite of the netlist
queries, the switching-activity estimate, the ASIC cost model or the LUT
mapper that drifts by a single ulp -- or turns an integer into a float --
fails here, long before it could move a Pareto front or a top-model pick.

The libraries mix parametric designs with seeded perturbations, so the
pinned circuits carry dead logic, constant gates, buffers and inverters.

Regenerate (only after an intentional change of a cost model)::

    PYTHONPATH=src python tests/test_synthesis_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.asic import AsicSynthesizer
from repro.features import feature_matrix
from repro.fpga import FpgaSynthesizer
from repro.generators import build_adder_library, build_multiplier_library

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "synthesis_golden.json"

GOLDEN_LIBRARIES = {
    "mult8_seed31": lambda: build_multiplier_library(8, size=16, seed=31),
    "adder8_seed37": lambda: build_adder_library(8, size=56, seed=37),
}


def exact(value) -> str:
    """``repr`` of a report value as a plain Python ``int`` or ``float``."""
    if isinstance(value, (int, np.integer)):
        return repr(int(value))
    return repr(float(value))


def snapshot(library) -> dict:
    """Feature rows and ASIC/FPGA reports of ``library``, every value as ``repr``."""
    circuits = list(library)
    asic = AsicSynthesizer()
    fpga = FpgaSynthesizer()
    asic_reports = [asic.synthesize(circuit) for circuit in circuits]
    matrix, names = feature_matrix(circuits, asic_reports=asic_reports)
    entries = []
    for circuit, row, asic_report in zip(circuits, matrix, asic_reports):
        fpga_report = fpga.synthesize(circuit)
        entries.append(
            {
                "name": circuit.name,
                "features": [exact(value) for value in row.tolist()],
                "asic": {key: exact(value) for key, value in asic_report.as_dict().items()},
                "fpga": {key: exact(value) for key, value in fpga_report.as_dict().items()},
            }
        )
    return {"feature_names": list(names), "circuits": entries}


@pytest.fixture(scope="module")
def fixture_data():
    with FIXTURE_PATH.open() as handle:
        return json.load(handle)["libraries"]


@pytest.mark.parametrize("key", sorted(GOLDEN_LIBRARIES))
def test_synthesis_reports_match_frozen_fixture(key, fixture_data):
    expected = fixture_data[key]
    actual = snapshot(GOLDEN_LIBRARIES[key]())
    assert actual["feature_names"] == expected["feature_names"]
    assert [c["name"] for c in actual["circuits"]] == [c["name"] for c in expected["circuits"]]
    for got, want in zip(actual["circuits"], expected["circuits"]):
        for section in ("features", "asic", "fpga"):
            assert got[section] == want[section], (
                f"{section} of {got['name']} drifted from the frozen fixture; "
                "if this is an intentional cost-model change, regenerate it "
                "(see the module docstring)"
            )


def test_fixture_covers_degenerate_structure(fixture_data):
    """The pinned circuits exercise dead logic, constants, buffers and inverters."""
    names = fixture_data["mult8_seed31"]["feature_names"]
    totals = dict.fromkeys(names, 0.0)
    dead = 0
    for library in fixture_data.values():
        for circuit in library["circuits"]:
            row = dict(zip(names, map(float, circuit["features"])))
            dead += row["num_gates"] > row["live_gates"]
            for name in names:
                totals[name] += row[name]
    assert dead > 0
    for name in ("count_const0", "count_const1", "count_buf", "count_not"):
        assert totals[name] > 0, name


if __name__ == "__main__":
    document = {
        "_comment": (
            "Frozen feature rows and ASIC/FPGA reports (exact reprs). Regenerate "
            "ONLY for an intentional cost-model change: see tests/test_synthesis_golden.py."
        ),
        "libraries": {key: snapshot(build()) for key, build in sorted(GOLDEN_LIBRARIES.items())},
    }
    FIXTURE_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE_PATH}")
