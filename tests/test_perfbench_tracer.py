"""Every function the benchmark's tracer wraps still exists.

``perfbench/tracer.py`` names the program's timed entry points as strings
(:data:`LAYERS`), and ``Tracer.install`` raises on a name that no longer
resolves.  Only the traced benchmark run installs the tracer, so this test
resolves every name without wrapping anything: a rename or deletion of a
traced function fails here, in the quick suite.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

from repro.registry import Registry

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    # Executed from source: importing it would write bytecode next to it.
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def _resolves(target: str) -> bool:
    module_name, attr = target.split(":")
    module = sys.modules.get(module_name)
    if attr.endswith("[*]"):
        return isinstance(getattr(module, attr[:-3], None), Registry)
    if "." in attr:
        cls_name, method = attr.split(".")
        return callable(getattr(getattr(module, cls_name, None), method, None))
    return callable(getattr(module, attr, None))


def test_every_traced_target_resolves():
    tracer = _load_tracer()
    tracer.import_program()
    targets = [target for layer in tracer.LAYERS.values() for target in layer]
    assert targets
    assert [target for target in targets if not _resolves(target)] == []
    assert [name for name in tracer.STAGE_MODULES if name not in sys.modules] == []


def test_every_traced_stage_defines_compute_in_its_own_body():
    """``Tracer.install`` wraps each ``Stage`` subclass's ``compute`` only
    where the class body defines it and skips the class silently otherwise,
    so a stage inheriting ``compute`` would drop out of the stage spans."""
    from repro.api.pipeline import Stage

    tracer = _load_tracer()
    tracer.import_program()
    stages = [
        value
        for name in tracer.STAGE_MODULES
        for value in vars(sys.modules[name]).values()
        if isinstance(value, type) and issubclass(value, Stage) and value is not Stage
    ]
    assert len(stages) >= 9  # six ApproxFPGAs stages, three AutoAx stage kinds
    assert [stage.__name__ for stage in stages if "compute" not in vars(stage)] == []
