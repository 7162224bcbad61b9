"""Host-time benchmark of the ApproxFPGAs reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload explore --seed 0 --seconds 25 --trace 0

Workloads (see :mod:`workloads`): ``explore`` (ApproxFPGAs over Fig. 3's
six libraries), ``autoax`` (every accelerator workload x every search
strategy) and ``service`` (three tenants on the job service).  Each is a
closed loop with one client, in this one process, on the serial engine.

``--trace 0`` sets up the workload several times, then runs whole cycles
of studies until ``--seconds`` have passed, and reports the end-to-end
metrics: ``setup_s`` (median set-up time), ``studies_per_s``,
``cold_study_p50_s``, ``warm_study_p50_s`` (Harrell-Davis medians) and
``peak_rss_mb``.  The timings are host time scaled to a reference host
speed: a fixed probe that runs no program code (see :mod:`hostspeed`)
runs before each set-up and takes a small share of the loop between
studies, and every timing is multiplied by ``reference probe time / probe
time beside it``, so that a shared host's swings in speed between runs
cancel out while a change to the program does not.  The unscaled host
times are kept in the run record.
``--trace 1`` runs one warm-up cycle, a fixed list of studies untraced, then
the same list again with spans around the program's public functions (see
:mod:`tracer`), and reports
per-layer self time, call counts, cache hit ratios, the untraced share of
study time and the tracing overhead; the spans are written as Chrome
trace-event JSON (open it in Perfetto).

Every study's payload digest is checked: against the digests pinned in
``reference.json`` for the default seed, and for every seed against the
other studies of the same spec (cold against warm, tenant against tenant).
A raise or a mismatch is a failed study.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record (unscaled
host times, probe and study samples, tail percentiles, native kernel,
source revision, ``nproc``) goes to ``.perfbench/results/``.  Everything
the benchmark writes stays under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
STATE = ROOT / ".perfbench"

DEFAULT_SEED = 0
#: Set-ups per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Cycles of studies in a traced run, per pass: a fixed list, so the
#: per-layer call counts repeat exactly from run to run.
TRACED_CYCLES = {"explore": 2, "autoax": 1, "service": 8}
#: Host-speed probe runs before each set-up, and the share of a timed loop
#: spent in the probe (see :mod:`hostspeed`).
SETUP_PROBES = 5
PROBE_SHARE = 0.04
PERCENTILES = (75, 90, 95, 99, 99.9)


def seed_type(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be a non-negative integer")
    return seed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("explore", "autoax", "service"))
    parser.add_argument("--seed", type=seed_type, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_revision() -> dict:
    """The program's git revision when available, and a digest of ``src/``."""
    digest = hashlib.blake2b(digest_size=12)
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        revision = completed.stdout.strip() or None
    return {"git_rev": revision, "source_digest": digest.hexdigest()}


def tail_percentile(samples):
    """The highest of :data:`PERCENTILES` with at least ten samples beyond it."""
    eligible = [p for p in PERCENTILES if len(samples) * (100 - p) / 100 >= 10]
    if not eligible:
        return None
    p = eligible[-1]
    cuts = statistics.quantiles(samples, n=1000, method="inclusive")
    return {"p": p, "value_s": cuts[round(p * 10) - 1]}


class Checker:
    """Runs studies, times them and checks their payload digests."""

    def __init__(self, workload, expected, digest):
        self.workload = workload
        self.expected = dict(expected)
        self.digest = digest
        self.attempted = 0
        self.failed = 0
        self.latencies = {"cold": [], "warm": []}
        self.observed = {}

    def study(self, n: int, tracer=None) -> float:
        """Run study ``n`` (traced when ``tracer`` is given); returns its wall
        time in seconds, which leaves out the check of its payload."""
        kind = self.workload.kind(n)
        spec = self.workload.spec(n)
        self.attempted += 1
        if tracer is not None:
            tracer.begin_study(f"{self.workload.name}-{n}", kind)
        start = time.perf_counter()
        error = None
        try:
            payload = self.workload.run(n)
        except Exception:  # noqa: BLE001 - a raising study is a failed study
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_study()
        if error is not None:
            self.failed += 1
            print(f"study {n} ({kind}, {spec}) raised:\n{error}", file=sys.stderr)
            return elapsed
        digest = self.digest(payload)
        self.observed.setdefault(spec, digest)
        reference = self.expected.setdefault(spec, digest)
        if digest != reference:
            self.failed += 1
            print(
                f"study {n} ({kind}, {spec}): digest {digest} != reference {reference}",
                file=sys.stderr,
            )
        else:
            self.latencies[kind].append(elapsed)
        return elapsed


def p50(samples):
    """Harrell-Davis estimate of the median of ``samples``, or None.

    It weighs every order statistic, the middle ones most, so in a mix of
    studies of very different lengths (``autoax`` has 28 kinds of cell) it
    does not jump between two neighbouring lengths as the sample median can.
    """
    if len(samples) < 2:
        return samples[0] if samples else None
    import numpy as np
    from scipy.special import betainc

    n = len(samples)
    half = (n + 1) / 2
    weights = np.diff(betainc(half, half, np.arange(n + 1) / n))
    return float(np.dot(weights, np.sort(samples)))


def timed_run(workload, checker, seconds: float, hostspeed_module) -> tuple:
    probe = hostspeed_module.Probe()
    # The host-speed probe runs right before each set-up, and in the loop
    # takes a fixed share of the time, between studies, so its samples
    # spread over the loop as the studies do; set-ups and studies are each
    # scaled by the probe times taken beside them.
    setups, setup_probes = [], []
    for _ in range(SETUP_REPEATS):
        setup_probes.extend(probe.run() for _ in range(SETUP_PROBES))
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    # Whole cycles only, so every run's medians see the same mix of specs.
    start = time.perf_counter()
    loop_probes = []
    probe_s = 0.0
    n = 0
    while n == 0 or time.perf_counter() - start - probe_s < seconds:
        for _ in range(workload.cycle):
            checker.study(n)
            n += 1
            while probe_s < PROBE_SHARE * (time.perf_counter() - start - probe_s):
                loop_probes.append(probe.run())
                probe_s += loop_probes[-1]
    loop_s = time.perf_counter() - start - probe_s
    completed = checker.attempted - checker.failed
    lat = checker.latencies
    host = {
        "setup_s": statistics.median(setups),
        "studies_per_s": completed / loop_s,
        "cold_study_p50_s": p50(lat["cold"]),
        "warm_study_p50_s": p50(lat["warm"]),
    }
    setup_scale = hostspeed_module.scale(setup_probes)
    loop_scale = hostspeed_module.scale(loop_probes)

    def loop_time(value):
        return None if value is None else value * loop_scale

    metrics = {
        "setup_s": (host["setup_s"] * setup_scale, "s"),
        "studies_per_s": (host["studies_per_s"] / loop_scale, "studies/s"),
        "cold_study_p50_s": (loop_time(host["cold_study_p50_s"]), "s"),
        "warm_study_p50_s": (loop_time(host["warm_study_p50_s"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    record = {
        "host_metrics": host,
        "host_scale": {"setup": setup_scale, "loop": loop_scale},
        "probe_samples_s": {"setup": setup_probes, "loop": loop_probes},
        "setup_samples_s": setups,
        "loop_s": loop_s,
        "samples": {kind: len(values) for kind, values in lat.items()},
        "tail": {kind: tail_percentile(values) for kind, values in lat.items()},
        "latencies_s": lat,
    }
    return metrics, record


def traced_run(workload, checker, tracer_module) -> tuple:
    count = TRACED_CYCLES[workload.name] * workload.cycle
    # One cycle first, so one-time costs of the process stay out of the
    # untraced pass that the overhead is measured against.
    workload.setup()
    for n in range(workload.cycle):
        checker.study(n)
    workload.setup()
    untraced_s = sum(checker.study(n) for n in range(count))

    tracer = tracer_module.Tracer()
    tracer.install(extra_modules=[sys.modules[type(workload).__module__]])
    workload.setup()
    traced_s = sum(checker.study(n, tracer) for n in range(count))

    metrics = tracer.report()
    metrics["trace_overhead"] = (traced_s / untraced_s, "ratio")
    trace_path = STATE / "traces" / f"{workload.name}-seed{workload.seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_chrome_trace(trace_path)
    record = {
        "studies_per_pass": count,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "stages": tracer.stage_report(),
        "ratio_bases": tracer.ratio_bases(),
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return metrics, record


def prepare() -> bool:
    """Point the program's caches into the checkout, import all of it and
    build or load the native kernel; returns whether the kernel is native."""
    # BLAS stays on one thread, like the serial engine.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ["XDG_CACHE_HOME"] = str(STATE / "xdg")
    os.environ["TMPDIR"] = str(STATE / "tmp")
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SOURCE))

    import tracer

    tracer.import_program()
    from repro.circuits._native import native_available

    return native_available()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"no program source under {SOURCE}; run from a full checkout", file=sys.stderr)
        return 2
    native = prepare()
    import hostspeed
    import tracer
    import workloads
    from repro.service import payload_digest

    expected = {}
    if args.seed == DEFAULT_SEED:
        expected = json.loads((HERE / "reference.json").read_text())[args.workload]

    workdir = STATE / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    checker = Checker(workload, expected, payload_digest)
    try:
        if args.trace:
            metrics, record = traced_run(workload, checker, tracer)
        else:
            metrics, record = timed_run(workload, checker, args.seconds, hostspeed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = checker.failed == 0 and all(value is not None for value, _ in metrics.values())
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        native_kernel=native,
        nproc=len(os.sched_getaffinity(0)),
        max_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        python=platform.python_version(),
        attempted=checker.attempted,
        failed=checker.failed,
        digests=checker.observed,
        metrics={name: value for name, (value, _) in metrics.items()},
        **source_revision(),
    )
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    out.write_text(json.dumps(record, indent=1))
    print(
        f"{args.workload} seed={args.seed} native={native} nproc={record['nproc']} "
        f"samples={record.get('samples')} record={out.relative_to(ROOT)}"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
