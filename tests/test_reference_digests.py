"""Every report's canonical output matches the benchmark's reference digests.

perfbench/reference.json holds one canonical digest per point of each
benchmark workload's pool (every point any seed can pick), made at a commit
whose verdicts are trusted.  Re-running all four pools here turns
"canonical output unchanged" into a Tier-1 check: a change to any lhs, rhs,
margin, verdict, detail or error text fails it, naming the first point that
moved.  orbit-wall, the one pool of the orbit checkers at 1.5e4-3e4 terms,
takes about 45 s of the run on a 2-vCPU host.  perfbench/ is only read, never
imported as a package, as in test_tracer_names.py.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from padlab.cli import canonical_body, run_check

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _digest(obj) -> str:
    # the digest perfbench/run.py and make_reference.py apply to each point
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("workload", ["bernoulli-cold", "region-map", "powersum-wall", "orbit-wall"])
def test_pool_matches_reference(workload):
    workloads = _load_workloads()
    ref = json.loads((PERFBENCH / "reference.json").read_text())["workloads"][workload]
    pool = workloads.WORKLOADS[workload].pool()
    assert len(pool) == ref["points"]
    assert _digest([workloads.point_key(n, a) for n, a in pool]) == ref["pool_sha256"]
    width = ref["width"]
    for i, (name, args) in enumerate(pool):
        body = json.loads(json.dumps(run_check(name, args).to_json_dict()))
        expected = ref["digests"][i * width : (i + 1) * width]
        assert _digest(canonical_body(body))[:width] == expected, workloads.point_key(name, args)
