"""Pin the payload digests ``run.py`` checks for the default seed.

Run from the repository root after a change that is meant to alter
results::

    python3 perfbench/pin.py

Runs every distinct spec of each workload once at the default seed (for
``explore`` and ``autoax`` the cold study and its warm repeats, which must
agree) and rewrites ``reference.json``.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

#: Studies pinned per workload: one cold study and its two warm repeats for
#: ``explore``, the 28 cells for ``autoax``, and the cold jobs of the first
#: 256 ``service`` specs, far more than one timed run reaches.
PIN_STUDIES = {"explore": 3, "autoax": 56, "service": 3 * 256}


def main() -> int:
    if not (run.SOURCE / "repro" / "__init__.py").is_file():
        print(f"no program source under {run.SOURCE}", file=sys.stderr)
        return 2
    run.prepare()
    import workloads
    from repro.service import payload_digest

    reference = {}
    for name, count in PIN_STUDIES.items():
        workdir = run.STATE / "work" / f"pin-{name}"
        workload = workloads.WORKLOADS[name](run.DEFAULT_SEED, workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            workload.setup()
            digests = {}
            for n in range(count):
                if name == "service" and workload.kind(n) != "cold":
                    continue
                digest = payload_digest(workload.run(n))
                spec = workload.spec(n)
                if digests.setdefault(spec, digest) != digest:
                    print(f"{name}: study {n} disagrees with spec {spec}", file=sys.stderr)
                    return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        reference[name] = digests
        print(f"{name}: {len(digests)} specs pinned")
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
