"""Benchmark of ``padlab sweep``: wall time of the real CLI path per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: the program under test is ``src/padlab`` next to this
directory.  Each repetition is one fresh ``padlab sweep`` process (closed
loop, one process at a time) on the workload's generated config, with a
fresh output path, so the Bernoulli memo table starts cold every time, as
in every real invocation.  Repetitions continue for S seconds (at least
three) and every timing is reported as the median over them.

--trace 0 reports the end-to-end metrics: wall_s, points_per_s, cpu_s
(user+sys of the sweep and its pool workers), setup_s (spawn until the
config is loaded and validated) and peak_rss_mb.  The three times are
scaled to a reference host speed: each sweep is pinned to as many CPUs as
it has workers (round robin over the CPUs this process may use),
calibrate.probe runs on those CPUs right before and right after it, and
the sweep's times are multiplied by calibrate.REFERENCE_S over the mean
probe time on the same CPUs across neighbouring repetitions.  The
unscaled medians are printed on comment lines.

--trace 1 alternates untraced serial sweeps with traced serial sweeps
(see spans.py) and reports per-layer calls, self seconds and counts, the
untraced serial wall time, the import time of padlab.cli and the tracing
overhead.

Every output is checked point by point against reference.json, which
holds the canonical digest (``cli.canonical_body``) of every point any
seed can generate.  A missing, crashed, timed-out or differing point
counts as failed.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import spans
from workloads import WORKLOADS, point_key, points

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
PROCESS_TIMEOUT_S = 60.0  # per sweep process; the slowest workload needs ~3 s
MIN_REPS = 3
LAST_START_S = 100.0  # no repetition starts later than this into a run ...
DEADLINE_S = 150.0  # ... and none runs past this, so a run ends within 180 s
PROBE_WINDOW = 4  # repetitions either side whose probes scale a sweep (see _probe_mean)

END_TO_END_UNITS = {"wall_s": "s", "points_per_s": "1/s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Sweep:
    """One finished padlab process, timed from the parent."""

    wall_s: float
    cpu_s: float
    returncode: int
    timed_out: bool
    marks: dict  # from sweep_proc.py; empty if the process died early
    spawned: float
    out: Path
    log: Path

    @property
    def setup_s(self) -> float | None:
        end = self.marks.get("setup_end")
        return None if end is None else end - self.spawned

    @property
    def peak_rss_mb(self) -> float | None:
        kb = self.marks.get("peak_rss_kb")
        return None if kb is None else kb / 1024

    @property
    def main_s(self) -> float | None:
        end = self.marks.get("main_end")
        return None if end is None else end - self.spawned


def spawn(work: Path, tag: str, padlab_args: list[str], deadline: float, trace: bool = False) -> Sweep:
    """Run sweep_proc.py in a fresh process and wait for it, killing it at
    PROCESS_TIMEOUT_S or at the run's deadline (time.monotonic), if sooner.

    The child leads its own process group, so a timeout kills its pool
    workers too.  os.wait4 returns the user+sys time and peak RSS of the
    child together with every descendant it waited for (its workers).  Its
    ru_maxrss would include this process's own resident set, which Linux
    carries across exec, so the peak RSS comes from the child's marks.
    """
    out = work / f"{tag}.out.json"
    marks_path = work / f"{tag}.marks.json"
    log = work / f"{tag}.log"
    own = [str(marks_path)] + (["--trace", str(work / f"{tag}.spans")] if trace else [])
    args = [a.replace("{out}", str(out)) for a in padlab_args]
    cmd = [sys.executable, str(BENCH / "sweep_proc.py"), *own, "--", *args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    # cached bytecode, as an installed padlab has, whatever the caller's environment
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        _kill_group(proc.pid)

    with open(log, "wb") as log_fh:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log_fh, stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(max(0.0, min(PROCESS_TIMEOUT_S, deadline - spawned)), kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        ended = time.monotonic()
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # any straggler the sweep left behind
    try:
        marks = json.loads(marks_path.read_text())
    except (OSError, ValueError):
        marks = {}
    return Sweep(
        wall_s=ended - spawned,
        cpu_s=usage.ru_utime + usage.ru_stime,
        returncode=proc.returncode,
        timed_out=timed_out.is_set(),
        marks=marks,
        spawned=spawned,
        out=out,
        log=log,
    )


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ---------------------------------------------------------------------------
# correctness


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


class Checker:
    """Compares sweep outputs with the reference digests of their points."""

    def __init__(self, workload, config: dict, canonical_body):
        self.config = config
        self.keys = [point_key(name, args) for name, args in points(config)]
        self.canonical_body = canonical_body
        self.width, self.expected = self._reference(workload)
        self.bodies: set[str] = set()  # whole-output digests seen this run
        self.attempted = 0
        self.failed = 0
        self.consistent = True  # config, summary and exit code agree with the reports

    @staticmethod
    def _reference(workload) -> tuple[int, dict[str, str]]:
        ref = json.loads(REFERENCE.read_text())["workloads"][workload.name]
        keys = [point_key(name, args) for name, args in workload.pool()]
        if digest(keys) != ref["pool_sha256"]:
            raise SystemExit(f"{REFERENCE.name} does not match the {workload.name} point pool; regenerate it")
        width = ref["width"]
        hexes = ref["digests"]
        return width, {key: hexes[i * width : (i + 1) * width] for i, key in enumerate(keys)}

    def check(self, sweep: Sweep) -> None:
        """Record one sweep's output: its failed points and its consistency."""
        n = len(self.keys)
        self.attempted += n
        try:
            raw = json.loads(sweep.out.read_text())
            reports = raw["reports"]
        except (OSError, ValueError, KeyError, TypeError):
            sys.stderr.write(f"no output from sweep (exit {sweep.returncode}):\n{_tail(sweep.log)}")
            self.failed += n
            self.consistent = False
            return
        failed = 0
        for i, key in enumerate(self.keys):
            if i >= len(reports):
                failed += 1
                continue
            body = self.canonical_body(reports[i])
            if digest(body)[: self.width] != self.expected[key]:
                failed += 1
        self.failed += failed
        summary = _summary(reports)
        self.consistent &= (
            len(reports) == n
            and raw.get("summary") == summary
            and raw.get("config", {}).get("checks") == self.config["checks"]
            and sweep.returncode == _exit_code(summary)
        )
        self.bodies.add(digest(self.canonical_body({k: v for k, v in raw.items() if k != "config"})))

    @property
    def correct(self) -> bool:
        # every repetition must also produce the same canonical body
        return self.failed == 0 and self.consistent and len(self.bodies) == 1


def _summary(reports: list[dict]) -> dict:
    errored = sum(1 for r in reports if r.get("error") is not None)
    held = sum(1 for r in reports if r.get("error") is None and r.get("holds") is True)
    return {"total": len(reports), "held": held, "failed": len(reports) - held - errored, "errored": errored}


def _exit_code(summary: dict) -> int:
    return 1 if summary["failed"] else 2 if summary["errored"] else 0


def _tail(path: Path, lines: int = 20) -> str:
    try:
        return "".join(path.read_text(errors="replace").splitlines(keepends=True)[-lines:])
    except OSError:
        return ""


# ---------------------------------------------------------------------------
# measurement loops


def _keep_going(started: float, seconds: float, reps: int, last: float) -> bool:
    elapsed = time.monotonic() - started
    if elapsed + last > LAST_START_S:
        return False
    return reps < MIN_REPS or elapsed + last <= seconds


def sweep_cpus(rep: int, jobs: int, cpus: list[int]) -> list[int]:
    """The CPUs repetition `rep` runs on: as many as the sweep has workers,
    taken round robin so that every CPU is used in turn."""
    n = min(jobs, len(cpus))
    return [cpus[(rep * n + i) % len(cpus)] for i in range(n)]


def measure(work: Path, sweep_args: list[str], checker: Checker, seconds: float, started: float, n_points: int) -> dict:
    cpus = sorted(os.sched_getaffinity(0))
    runs: list[tuple[Sweep, tuple[int, ...], float]] = []  # sweep, its CPUs, mean probe time around it
    last = 0.0
    while _keep_going(started, seconds, len(runs), last):
        rep_start = time.monotonic()
        pinned = sweep_cpus(len(runs), checker.config["jobs"], cpus)
        before = calibrate.probe_on(pinned)  # also pins this process, so the sweep inherits it
        sweep = spawn(work, f"rep{len(runs)}", sweep_args, started + DEADLINE_S)
        after = calibrate.probe_on(pinned)
        os.sched_setaffinity(0, cpus)
        checker.check(sweep)
        runs.append((sweep, tuple(pinned), (before + after) / 2))
        last = time.monotonic() - rep_start
        if sweep.timed_out or sweep.setup_s is None:
            break
    done = [
        (r, calibrate.REFERENCE_S / _probe_mean(runs, i))
        for i, (r, _, _) in enumerate(runs)
        if r.setup_s is not None and not r.timed_out
    ]
    if not done:
        return {}
    metrics = {}
    for name in ("wall_s", "cpu_s", "setup_s"):
        raw = [getattr(r, name) for r, _ in done]
        metrics[name] = statistics.median(getattr(r, name) * scale for r, scale in done)
        print(f"# raw {name} samples: n={len(raw)} median={statistics.median(raw):.4f} min={min(raw):.4f} max={max(raw):.4f}")
    scales = [scale for _, scale in done]
    print(f"# speed scale: median={statistics.median(scales):.4f} min={min(scales):.4f} max={max(scales):.4f}")
    metrics["points_per_s"] = n_points / metrics["wall_s"]
    metrics["peak_rss_mb"] = statistics.median(r.peak_rss_mb for r, _ in done)
    return metrics


def _probe_mean(runs: list[tuple[Sweep, tuple[int, ...], float]], i: int) -> float:
    """Mean probe time on the CPUs of repetition i, over the repetitions on
    the same CPUs at most PROBE_WINDOW away.  A single probe is short and
    the host switches between fast and slow spells within seconds, so one
    pair of probes often misjudges a sweep of a few seconds; the window's
    mean tracks the share of slow time while still following drift."""
    cpus = runs[i][1]
    near = [probe for j, (_, c, probe) in enumerate(runs) if c == cpus and abs(j - i) <= PROBE_WINDOW]
    return sum(near) / len(near)


def measure_traced(work: Path, sweep_args: list[str], checker: Checker, seconds: float, started: float) -> dict:
    serial_args = sweep_args + ["--jobs", "1"]
    deadline = started + DEADLINE_S
    plain: list[Sweep] = []
    traced: list[dict] = []
    traced_main: list[float] = []
    last = 0.0
    while _keep_going(started, seconds, len(traced), last):
        pair_start = time.monotonic()
        tag = f"rep{len(traced)}"
        untraced = spawn(work, f"{tag}-plain", serial_args, deadline)
        checker.check(untraced)
        plain.append(untraced)
        with_trace = spawn(work, f"{tag}-traced", serial_args, deadline, trace=True)
        checker.check(with_trace)
        last = time.monotonic() - pair_start
        bad = untraced.main_s is None or with_trace.main_s is None
        if bad or untraced.timed_out or with_trace.timed_out:
            break
        traced.append(spans.summarize(str(work / f"{tag}-traced.spans")))
        traced_main.append(with_trace.main_s)
        (work / f"{tag}-traced.spans").unlink()
    if not traced:
        return {}
    paired = plain[: len(traced)]
    metrics = {name: statistics.median(t[name] for t in traced) for name in spans.metric_names()}
    metrics["cli.run_sweep.jobs1_wall_s"] = statistics.median(r.wall_s for r in paired)
    metrics["cli.import.self_s"] = statistics.median(r.marks["import_s"] for r in paired)
    metrics["trace.overhead_share"] = statistics.median(traced_main) / statistics.median(r.main_s for r in paired) - 1
    return metrics


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in spans.metric_names():
        suffix = name.rsplit(".", 1)[1]
        units[name] = {"calls": "count", "terms": "count", "max_index": "count", "bytes": "B"}.get(suffix, "s")
    units.update({"cli.run_sweep.jobs1_wall_s": "s", "cli.import.self_s": "s", "trace.overhead_share": "ratio"})
    return units


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "padlab" / "cli.py").is_file():
        print(f"padlab sources not found under {SRC}; run from a padlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from padlab.cli import canonical_body

    workload = WORKLOADS[args.workload]
    config = workload.config(args.seed)
    checker = Checker(workload, config, canonical_body)
    n_points = len(checker.keys)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config))
        sweep_args = ["sweep", "--config", str(config_path), "--out", "{out}"]
        # compiles src/padlab to bytecode so no repetition pays for it
        spawn(work, "warmup", ["--version"], started + DEADLINE_S)
        if args.trace:
            metrics = measure_traced(work, sweep_args, checker, args.seconds, started)
            units = per_layer_units()
        else:
            metrics = measure(work, sweep_args, checker, args.seconds, started, n_points)
            units = END_TO_END_UNITS

    if not metrics:
        print("no repetition finished; see the log above", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"# {args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"# {args.workload} seed {args.seed}: {n_points} points, canonical digest {min(checker.bodies, default='-')}")
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
