"""Spans around the program's public functions, for the benchmark's traced run.

:meth:`Tracer.install` wraps every function that :data:`LAYERS` names and
substitutes **one** wrapper object per function at every place it is bound:
its defining module, every ``repro`` module that imported the name, every
:class:`repro.registry.Registry` entry that holds it (``SIM_BACKENDS``,
``QUALITY_METRICS``, ``SEARCH_STRATEGIES``, ``JOB_FLOWS``, ...), and, for
methods, the class attribute of the class and of each subclass overriding
it.  Identity checks in the program (``simulate is simulate_bits_compiled``
in ``BatchEvaluator``) therefore still see a single object, and the traced
run executes the same code paths as the timed run.

Wrappers record nothing outside a study (:attr:`Tracer.study` is ``None``).
Inside one, each call records ``(layer, function, start_ns, end_ns,
parent_span, study)``, the study carrying its id and kind, and the cache
entry points also count lookups and hits.  Spans stay in memory until
:meth:`Tracer.report` folds them into per-layer self time (a span's time
minus its child spans') and call counts, and
:meth:`Tracer.write_chrome_trace` writes them as Chrome trace-event JSON
(open it at https://ui.perfetto.dev).
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict

#: Layer -> timed entry points.  ``module:function`` is a module-level
#: function; ``module:Class.method`` is wrapped on the class and on every
#: subclass that overrides it; ``module:REGISTRY[*]`` is every entry of a
#: registry.
LAYERS = {
    "circuits.convert": (
        "repro.circuits.simulate:expand_operand_bits",
        "repro.circuits.simulate:words_to_bits",
        "repro.circuits.simulate:bits_to_words",
        "repro.circuits.bitplane:pack_bits",
        "repro.circuits.bitplane:unpack_bits",
    ),
    "circuits.kernel": (
        "repro.circuits.simulate:simulate_bits",
        "repro.circuits.bitplane:simulate_planes",
        "repro.circuits.compiled:CompiledProgram.run",
    ),
    "circuits.compile": ("repro.circuits.compiled:compile_netlist",),
    "workloads": (
        "repro.workloads.components:ApproxComponent.compute",
        "repro.workloads.base:ApproxAccelerator.prepare_inputs",
        "repro.workloads.base:ApproxAccelerator.evaluate_prepared",
    ),
    "quality": (
        "repro.workloads.quality:QUALITY_METRICS[*]",
        "repro.error.metrics:compute_error_metrics",
    ),
    "ml": (
        "repro.ml.base:Regressor.fit",
        "repro.ml.base:Regressor.predict",
        "repro.autoax.estimators:QorEstimator.fit",
        "repro.autoax.estimators:QorEstimator.estimate_batch",
        "repro.autoax.estimators:QorEstimator.estimate_batch_with_std",
        "repro.autoax.estimators:HwCostEstimator.fit",
        "repro.autoax.estimators:HwCostEstimator.estimate_batch",
        "repro.autoax.estimators:HwCostEstimator.estimate_batch_with_std",
    ),
    "search": (
        "repro.search.archive:ParetoArchive.insert",
        "repro.search.nsga2:run_nsga2",
        "repro.search.multifidelity:run_successive_halving",
        "repro.search.multifidelity:expected_hypervolume_improvement",
        "repro.core.pareto:pareto_front_indices",
        "repro.core.pareto:successive_pareto_fronts",
        "repro.autoax.search:SEARCH_STRATEGIES[*]",
    ),
    "fpga": (
        "repro.fpga.synthesis:FpgaSynthesizer.synthesize",
        "repro.fpga.synthesis:estimate_synthesis_time",
    ),
    "asic": ("repro.asic.synthesis:AsicSynthesizer.synthesize",),
    "features": ("repro.features.extract:feature_matrix",),
    "engine.cache": (
        "repro.engine.cache:EvalCache.get",
        "repro.engine.cache:EvalCache.put",
        "repro.engine.keys:cache_key",
        "repro.engine.keys:blake_token",
        "repro.circuits.netlist:Netlist.fingerprint",
    ),
    "io.store": (
        "repro.io.persistence:ShardedJsonStore.get",
        "repro.io.persistence:ShardedJsonStore.put",
    ),
    "api.pipeline": ("repro.api.pipeline:Pipeline.run",),
    "service": (
        "repro.service.client:JobClient.submit",
        "repro.service.client:JobClient.result",
        "repro.service.jobs:JobRegistry.claim",
        "repro.service.jobs:JobRegistry.update",
        "repro.service.jobs:JobRegistry.heartbeat",
        "repro.service.jobs:JobRegistry.store_result",
        "repro.service.jobs:JobRegistry.release",
        "repro.service.worker:Worker.run_once",
    ),
    "generators": (
        "repro.generators.library:build_multiplier_library",
        "repro.generators.library:build_adder_library",
        "repro.workloads.components:components_from_library",
    ),
}

#: Modules whose ``Stage`` subclasses get per-stage ``compute``/``absorb``
#: spans.  Stage spans are not a layer: they keep stage work out of
#: ``api.pipeline`` self time and give the per-stage view of the trace.
STAGE_MODULES = ("repro.core.stages", "repro.autoax.stages")
STAGE_LAYER = "stage"

CACHE_DOMAINS = ("err", "asic", "fpga", "axq", "axe")
KINDS = ("cold", "warm")


def import_program() -> None:
    """Import every ``repro`` module, so no import happens inside a timed
    study and every binding site exists before :meth:`Tracer.install`."""
    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class Tracer:
    """In-memory span recorder plus the per-layer counters of the traced run."""

    def __init__(self):
        self.study = None
        """Index into :attr:`studies` of the study being traced, or None."""
        self.studies = []
        """``(study_id, kind, start_ns, end_ns)`` per traced study."""
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def begin_study(self, study_id: str, kind: str) -> None:
        self.studies.append([study_id, kind, time.perf_counter_ns(), None])
        self.study = len(self.studies) - 1

    def end_study(self) -> None:
        self.studies[self.study][3] = time.perf_counter_ns()
        self.study = None

    def _call(self, layer, target, name, fn, args, kwargs, observe):
        stack = self._stack
        if stack and stack[-1][1] == target:
            # An override calling ``super()``: one logical call, one span.
            return fn(*args, **kwargs)
        parent = stack[-1][0] if stack else -1
        index = len(self.spans)
        self.spans.append(None)
        stack.append((index, target))
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans[index] = (layer, name, start, end, parent, self.study)
        if observe is not None:
            observe(self._kind(), result, args, kwargs)
        return result

    def _kind(self) -> str:
        return self.studies[self.study][1]

    def _wrap(self, layer, target, fn, observe=None):
        name = getattr(fn, "__qualname__", target)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.study is None:
                return fn(*args, **kwargs)
            return self._call(layer, target, name, fn, args, kwargs, observe)

        return traced

    # ------------------------------------------------------------------ #
    # Counters behind the hit ratios
    # ------------------------------------------------------------------ #
    def _observe_eval_cache(self, kind, result, args, kwargs):
        key = args[1] if len(args) > 1 else kwargs["key"]
        domain = str(key).split(":", 1)[0]
        self.counts[(kind, f"engine.cache.{domain}", "lookups")] += 1
        self.counts[(kind, f"engine.cache.{domain}", "hits")] += result is not None

    def _observe_store(self, kind, result, args, kwargs):
        self.counts[(kind, "io.store", "lookups")] += 1
        self.counts[(kind, "io.store", "hits")] += result is not None

    def _observe_compile(self, kind, result, args, kwargs):
        self.counts[(kind, "circuits.compile", "lookups")] += 1

    def _count_compile_miss(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.study is not None:
                self.counts[(self._kind(), "circuits.compile", "misses")] += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def install(self, extra_modules=()) -> None:
        """Wrap every :data:`LAYERS` target and the stage methods in place.

        ``extra_modules`` are modules outside ``repro`` (the benchmark's
        own) whose imported names are substituted too.
        """
        from repro.api.pipeline import Stage
        from repro.registry import Registry

        import_program()
        modules = [m for n, m in sys.modules.items() if n.startswith("repro") and m]
        modules.extend(extra_modules)
        registries = [
            value
            for module in modules
            for value in list(vars(module).values())
            if isinstance(value, Registry)
        ]
        observers = {
            "repro.engine.cache:EvalCache.get": self._observe_eval_cache,
            "repro.io.persistence:ShardedJsonStore.get": self._observe_store,
            "repro.circuits.compiled:compile_netlist": self._observe_compile,
        }

        def substitute(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
            for registry in registries:
                for key, value in registry.items():
                    if value is original:
                        registry.register(key, wrapper, overwrite=True)

        def wrap_method(cls, method, layer, target):
            for klass in _subclasses(cls):
                if method in vars(klass):
                    setattr(
                        klass,
                        method,
                        self._wrap(layer, target, vars(klass)[method], observers.get(target)),
                    )

        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, attr = target.split(":")
                module = sys.modules[module_name]
                if attr.endswith("[*]"):
                    for key, fn in getattr(module, attr[:-3]).items():
                        substitute(fn, self._wrap(layer, f"{target}{key}", fn))
                elif "." in attr:
                    cls_name, method = attr.split(".")
                    wrap_method(getattr(module, cls_name), method, layer, target)
                else:
                    fn = getattr(module, attr)
                    substitute(fn, self._wrap(layer, target, fn, observers.get(target)))
        compiled = sys.modules["repro.circuits.compiled"]
        compiled._compile = self._count_compile_miss(compiled._compile)

        for module_name in STAGE_MODULES:
            for value in list(vars(sys.modules[module_name]).values()):
                if isinstance(value, type) and issubclass(value, Stage) and value is not Stage:
                    for method in ("compute", "absorb"):
                        if method in vars(value):
                            wrap_method(value, method, STAGE_LAYER, f"{value.__name__}.{method}")

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def _child_ns(self):
        child_ns = defaultdict(int)
        for _layer, _name, start, end, parent, _study in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return child_ns

    def report(self) -> dict:
        """Per-layer metrics of the traced studies, keyed ``<kind>.<name>``."""
        child_ns = self._child_ns()
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        for index, (layer, _name, start, end, _parent, study) in enumerate(self.spans):
            kind = self.studies[study][1]
            self_ns[(kind, layer)] += end - start - child_ns[index]
            calls[(kind, layer)] += 1
        wall_ns = defaultdict(int)
        for _study_id, kind, start, end in self.studies:
            wall_ns[kind] += end - start

        def ratio(kind, name):
            lookups = self.counts[(kind, name, "lookups")]
            if name == "circuits.compile":
                hits = lookups - self.counts[(kind, name, "misses")]
            else:
                hits = self.counts[(kind, name, "hits")]
            return hits / lookups if lookups else 0.0

        metrics = {}
        for kind in KINDS:
            covered_ns = 0
            for layer in LAYERS:
                covered_ns += self_ns[(kind, layer)]
                metrics[f"{kind}.{layer}.self_s"] = (self_ns[(kind, layer)] / 1e9, "s")
                metrics[f"{kind}.{layer}.calls"] = (calls[(kind, layer)], "count")
            for domain in CACHE_DOMAINS:
                name = f"engine.cache.{domain}"
                metrics[f"{kind}.{name}.hit_ratio"] = (ratio(kind, name), "ratio")
            for name in ("circuits.compile", "io.store"):
                metrics[f"{kind}.{name}.hit_ratio"] = (ratio(kind, name), "ratio")
            wall = wall_ns[kind]
            untraced = (wall - covered_ns) / wall if wall else 0.0
            metrics[f"{kind}.untraced_share"] = (untraced, "ratio")
        return metrics

    def stage_report(self) -> dict:
        """Self time and calls per stage method, per study kind."""
        child_ns = self._child_ns()
        stages = {kind: {} for kind in KINDS}
        for index, (layer, name, start, end, _parent, study) in enumerate(self.spans):
            if layer != STAGE_LAYER:
                continue
            row = stages[self.studies[study][1]].setdefault(name, {"self_s": 0.0, "calls": 0})
            row["self_s"] += (end - start - child_ns[index]) / 1e9
            row["calls"] += 1
        return stages

    def ratio_bases(self) -> dict:
        """Lookups and hits behind every hit ratio, per study kind."""
        bases = {kind: {} for kind in KINDS}
        for (kind, name, what), count in sorted(self.counts.items()):
            bases[kind].setdefault(name, {})[what] = count
        return bases

    def write_chrome_trace(self, path) -> None:
        """All spans and studies as Chrome trace-event JSON (Perfetto opens it).

        Events are written one at a time, so the file never exists as one
        object in memory.
        """
        origin = min((start for _i, _k, start, _e in self.studies), default=0)

        def events():
            for study_id, kind, start, end in self.studies:
                yield {
                    "name": study_id, "cat": f"study.{kind}", "ph": "X", "pid": 1, "tid": 1,
                    "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
                }
            for index, (layer, name, start, end, parent, study) in enumerate(self.spans):
                yield {
                    "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                    "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
                    "args": {
                        "span": index, "parent": parent,
                        "study": self.studies[study][0], "kind": self.studies[study][1],
                    },
                }

        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            for number, event in enumerate(events()):
                handle.write(("" if number == 0 else ",\n") + json.dumps(event))
            handle.write("\n]}\n")
