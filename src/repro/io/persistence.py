"""Persistence helpers: export libraries and flow results to disk.

The released ApproxFPGAs artefact is a directory of Pareto-optimal FPGA-AC
RTL files plus a catalogue of their measured costs; this module produces the
same kind of artefact from a :class:`~repro.core.results.ApproxFpgasResult`
and can archive/restore the flow's summary data as JSON so downstream
tooling (or a later session) does not have to re-run synthesis.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import uuid
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from ..circuits import to_verilog
from ..core.results import ApproxFpgasResult
from ..generators import CircuitLibrary

PathLike = Union[str, Path]

logger = logging.getLogger("repro.io")


class ShardedJsonStore:
    """A concurrency-safe directory of JSON files acting as a key -> value map.

    This is the shared on-disk backend of the whole system: the
    :class:`repro.engine.EvalCache` disk layer of workspaces and of the
    :mod:`repro.service` root rides on it, and it is the only thing an
    interrupted flow or job reads back when it runs again.  Each entry is one
    small JSON file named after a hash of its key, so arbitrary keys (cache
    keys embed colons and hex fingerprints) map to safe file names.  The
    original key is stored inside the file and checked on load, which turns
    the astronomically unlikely hash collision into a miss instead of
    silently returning the wrong payload.

    Concurrency and sharding
    ------------------------
    Writes are atomic: the payload goes to a uniquely named temp file in the
    destination directory and is published with :func:`os.replace`, so a
    concurrent reader sees either the old entry or the new one, never a
    half-written file.  With ``shards > 1`` entries are spread over
    ``shards`` subdirectories by a prefix of the hashed key; because cache
    keys are content-addressed, many worker processes hammering one store
    spread their file creations over the shard directories instead of
    serialising on a single directory inode.  ``shards == 1`` keeps the
    historical flat layout of :class:`JsonDirectoryStore`, so existing warm
    cache directories stay readable.

    The shard count is a *layout* property of the directory: a ``.shards``
    marker is written on first use and a later open with a different count
    raises instead of silently missing every existing entry.

    A missing entry is a plain miss.  Corrupt entries (truncated or mangled
    JSON, or bytes that are not UTF-8, e.g. after a power loss) and
    unreadable ones (any other :class:`OSError`: a directory or a broken
    mount at the entry's path, a permission error) count as misses too;
    they are additionally tallied in :attr:`corrupt_count` and
    :attr:`unreadable_count` (surfaced as ``CacheStats.corrupt`` and
    ``CacheStats.unreadable`` when the store backs an
    :class:`~repro.engine.EvalCache`), and the first of each kind is logged
    once per store instance.
    """

    _MARKER = ".shards"

    def __init__(self, directory: PathLike, shards: int = 16):
        if shards < 1:
            raise ValueError("shards must be at least 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.shards = int(shards)
        self.corrupt_count = 0
        self.unreadable_count = 0
        self._logged: set = set()
        self._check_layout()

    # ------------------------------------------------------------------ #
    def _check_layout(self) -> None:
        """Pin the shard count of the directory via a ``.shards`` marker."""
        marker = self.directory / self._MARKER
        try:
            existing = int(marker.read_text(encoding="utf-8").strip())
        except FileNotFoundError:
            self._atomic_write(marker, str(self.shards))
            return
        except (OSError, ValueError):
            # Unreadable marker: rewrite it with our layout (best effort).
            self._atomic_write(marker, str(self.shards))
            return
        if existing != self.shards:
            raise ValueError(
                f"store at {self.directory} is sharded with shards={existing}; "
                f"opening it with shards={self.shards} would miss every entry"
            )

    @staticmethod
    def _atomic_write(path: Path, text: str) -> None:
        """Publish ``text`` at ``path`` via a unique temp file + rename."""
        temporary = path.parent / f"{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
        try:
            temporary.write_text(text, encoding="utf-8")
            temporary.replace(path)
        finally:
            temporary.unlink(missing_ok=True)

    def _path(self, key: str) -> Path:
        token = hashlib.blake2b(key.encode("utf-8"), digest_size=20).hexdigest()
        if self.shards == 1:
            return self.directory / f"{token}.json"
        shard = int(token[:8], 16) % self.shards
        return self.directory / f"{shard:04x}" / f"{token}.json"

    def _entry_files(self) -> Iterator[Path]:
        if self.shards == 1:
            yield from self.directory.glob("*.json")
        else:
            yield from self.directory.glob("[0-9a-f]*/*.json")

    # ------------------------------------------------------------------ #
    def _read(self, path: Path) -> Optional[object]:
        """The decoded JSON at ``path``; ``None`` when missing, corrupt or
        unreadable (the last two counted and logged)."""
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except OSError as error:
            self.unreadable_count += 1
            self._log_once("unreadable", "unreadable entry at %s (%s)", path, error)
        except (json.JSONDecodeError, UnicodeDecodeError):
            self.corrupt_count += 1
            self._log_once("corrupt", "corrupt JSON entry at %s", path)
        return None

    def _log_once(self, fault: str, message: str, *args) -> None:
        if fault not in self._logged:
            self._logged.add(fault)
            logger.warning(
                message + " treated as a cache miss (further %s entries are "
                "counted, not logged)",
                *args,
                fault,
            )

    def get(self, key: str) -> Optional[object]:
        entry = self._read(self._path(key))
        if not isinstance(entry, dict) or entry.get("key") != key:
            return None
        return entry.get("value")

    def put(self, key: str, value: object) -> None:
        path = self._path(key)
        if self.shards > 1:
            path.parent.mkdir(exist_ok=True)
        # Unique temp name per writer: concurrent processes sharing one cache
        # directory must not clobber each other's half-written files before
        # the atomic rename.
        self._atomic_write(path, json.dumps({"key": key, "value": value}))

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_files())

    def keys(self) -> Iterator[str]:
        for path in self._entry_files():
            entry = self._read(path)
            if isinstance(entry, dict) and "key" in entry:
                yield entry["key"]

    def clear(self) -> None:
        for path in self._entry_files():
            path.unlink(missing_ok=True)


class JsonDirectoryStore(ShardedJsonStore):
    """The historical flat (single-directory) JSON store.

    A thin wrapper over :class:`ShardedJsonStore` with ``shards=1``: the
    file layout is unchanged, so cache directories written by earlier
    versions stay readable, and writes gained the sharded store's atomic
    temp-file + :func:`os.replace` publication along the way.
    """

    def __init__(self, directory: PathLike):
        super().__init__(directory, shards=1)


def library_catalog(library: CircuitLibrary) -> Dict[str, object]:
    """JSON-serialisable catalogue of a circuit library (no netlist contents)."""
    return {
        "name": library.name,
        "kind": library.kind,
        "bitwidth": library.bitwidth,
        "size": len(library),
        "families": library.families(),
        "circuits": [
            {
                "name": circuit.name,
                "family": circuit.meta.get("family"),
                "exact": bool(circuit.meta.get("exact", False)),
                "gates": circuit.num_gates,
                "live_gates": circuit.live_gate_count(),
                "depth": circuit.depth(),
            }
            for circuit in library
        ],
    }


def export_library(library: CircuitLibrary, directory: PathLike, rtl: bool = True) -> Path:
    """Write a library catalogue (and optionally per-circuit Verilog) to ``directory``.

    Returns the path of the written ``catalog.json``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    catalog_path = directory / "catalog.json"
    catalog_path.write_text(json.dumps(library_catalog(library), indent=2), encoding="utf-8")
    if rtl:
        rtl_dir = directory / "rtl"
        rtl_dir.mkdir(exist_ok=True)
        for circuit in library:
            (rtl_dir / f"{circuit.name}.v").write_text(to_verilog(circuit), encoding="utf-8")
    return catalog_path


def result_to_dict(result: ApproxFpgasResult) -> Dict[str, object]:
    """Full JSON-serialisable dump of an ApproxFPGAs flow result."""
    records = {}
    for name, record in result.records.items():
        entry: Dict[str, object] = {
            "error": record.error.metrics.as_dict(),
            "error_method": record.error.method,
            "asic": record.asic.as_dict(),
            "estimated": dict(record.estimated),
        }
        if record.fpga is not None:
            entry["fpga"] = record.fpga.as_dict()
        records[name] = entry

    return {
        "library": result.library_name,
        "kind": result.kind,
        "bitwidth": result.bitwidth,
        "training_names": list(result.training_names),
        "validation_names": list(result.validation_names),
        "exploration_cost": result.exploration_cost.as_dict(),
        "fidelity": result.fidelity_table(),
        "model_evaluations": [
            {
                "model_id": evaluation.model_id,
                "parameter": evaluation.parameter,
                "fidelity": evaluation.fidelity,
                "pearson": evaluation.pearson,
                "r2": evaluation.r2,
                "train_time_s": evaluation.train_time_s,
            }
            for evaluation in result.model_evaluations
        ],
        "parameters": {
            parameter: {
                "top_models": list(outcome.top_models),
                "candidates": list(outcome.candidate_names),
                "final_front": list(outcome.final_front_names),
                "true_front": list(outcome.true_front_names),
                "coverage": outcome.coverage,
            }
            for parameter, outcome in result.parameter_outcomes.items()
        },
        "records": records,
    }


def save_result(result: ApproxFpgasResult, path: PathLike) -> Path:
    """Serialise a flow result to a JSON file and return its path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result_to_dict(result), indent=2), encoding="utf-8")
    return path


def load_result_summary(path: PathLike) -> Dict[str, object]:
    """Load a previously saved flow-result JSON (as plain dictionaries)."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def export_pareto_rtl(
    result: ApproxFpgasResult,
    library: CircuitLibrary,
    directory: PathLike,
    parameter: str = "area",
    limit: Optional[int] = None,
) -> List[Path]:
    """Export the RTL of the final Pareto-optimal FPGA-ACs for one parameter.

    This mirrors the open-source FPGA-AC release of the paper: one Verilog
    file per Pareto-optimal circuit, named after the circuit.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    outcome = result.parameter_outcomes[parameter]
    names = outcome.final_front_names[:limit] if limit else outcome.final_front_names
    written: List[Path] = []
    for name in names:
        path = directory / f"{name}.v"
        path.write_text(to_verilog(library.get(name)), encoding="utf-8")
        written.append(path)
    return written
