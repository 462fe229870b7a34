"""Regenerate reference.json: the canonical digest of every pool point.

    PYTHONPATH=src python3 perfbench/make_reference.py [WORKLOAD ...]

Each point of each workload's pool (the union of all grids any seed can
pick) is run through ``padlab.cli.run_check``; its report goes through
the same JSON round trip as a sweep output file and ``cli.canonical_body``
before it is hashed.  Run it only on a commit whose verdicts are trusted,
and only in a change that alters nothing but the benchmark: the reference
is what every later change is checked against.  The pool of all four
workloads takes a few minutes.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time

import run
from workloads import WORKLOADS, point_key

WIDTH = 12  # hex digits kept per point digest


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def pool_reference(workload) -> dict:
    from padlab.cli import canonical_body, run_check

    pool = workload.pool()
    digests = []
    for name, args in pool:
        body = json.loads(json.dumps(run_check(name, args).to_json_dict()))
        digests.append(run.digest(canonical_body(body))[:WIDTH])
    return {
        "points": len(pool),
        "pool_sha256": run.digest([point_key(name, args) for name, args in pool]),
        "width": WIDTH,
        "digests": "".join(digests),
    }


def main(names: list[str]) -> int:
    try:
        ref = json.loads(run.REFERENCE.read_text())
    except FileNotFoundError:
        ref = {"workloads": {}}
    for name in names or sorted(WORKLOADS):
        t0 = time.perf_counter()
        ref["workloads"][name] = pool_reference(WORKLOADS[name])
        print(f"{name}: {ref['workloads'][name]['points']} points in {time.perf_counter() - t0:.1f} s")
    ref["commit"] = _commit()
    ref["python"] = platform.python_version()
    run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
