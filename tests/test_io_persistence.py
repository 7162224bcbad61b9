"""Tests of the persistence / export helpers."""

import json

import pytest

from repro.api import ExplorationSession
from repro.core import ApproxFpgasConfig
from repro.io import (
    export_library,
    export_pareto_rtl,
    library_catalog,
    load_result_summary,
    result_to_dict,
    save_result,
)


@pytest.fixture(scope="module")
def tiny_flow_result(small_multiplier_library):
    config = ApproxFpgasConfig(
        training_fraction=0.2,
        min_training_circuits=12,
        num_pseudo_fronts=2,
        top_k_models=2,
        model_ids=["ML4", "ML11", "ML18"],
        seed=3,
        evaluate_coverage=True,
    )
    return ExplorationSession().run_approxfpgas(small_multiplier_library, config)


def test_library_catalog_structure(small_multiplier_library):
    catalog = library_catalog(small_multiplier_library)
    assert catalog["size"] == len(small_multiplier_library)
    assert catalog["kind"] == "multiplier"
    assert len(catalog["circuits"]) == len(small_multiplier_library)
    assert all("gates" in entry for entry in catalog["circuits"])
    json.dumps(catalog)  # must be JSON-serialisable


def test_export_library_writes_catalog_and_rtl(tmp_path, small_multiplier_library):
    catalog_path = export_library(small_multiplier_library, tmp_path / "lib")
    assert catalog_path.exists()
    rtl_files = list((tmp_path / "lib" / "rtl").glob("*.v"))
    assert len(rtl_files) == len(small_multiplier_library)
    text = rtl_files[0].read_text()
    assert text.startswith("module ")


def test_export_library_without_rtl(tmp_path, small_multiplier_library):
    export_library(small_multiplier_library, tmp_path / "norlt", rtl=False)
    assert not (tmp_path / "norlt" / "rtl").exists()


def test_result_roundtrip_via_json(tmp_path, tiny_flow_result):
    path = save_result(tiny_flow_result, tmp_path / "result.json")
    loaded = load_result_summary(path)
    assert loaded["library"] == tiny_flow_result.library_name
    assert set(loaded["records"]) == set(tiny_flow_result.records)
    assert set(loaded["parameters"]) == {"latency", "power", "area"}
    for parameter, entry in loaded["parameters"].items():
        assert entry["final_front"]
        assert 0.0 <= entry["coverage"] <= 1.0
    assert loaded["exploration_cost"]["speedup"] > 0.0


def test_result_to_dict_includes_fpga_reports_when_synthesized(tiny_flow_result):
    dump = result_to_dict(tiny_flow_result)
    synthesized = [entry for entry in dump["records"].values() if "fpga" in entry]
    assert synthesized, "the flow must synthesize at least the training subset"
    assert all("asic" in entry and "error" in entry for entry in dump["records"].values())


def test_export_pareto_rtl(tmp_path, tiny_flow_result, small_multiplier_library):
    written = export_pareto_rtl(
        tiny_flow_result, small_multiplier_library, tmp_path / "pareto", parameter="area", limit=5
    )
    assert 1 <= len(written) <= 5
    for path in written:
        assert path.exists()
        assert "module" in path.read_text()
