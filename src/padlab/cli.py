"""Command-line front end and parameter-grid sweep orchestration.

Every checker is registered by name with its module and function; the
function's signature is the only statement of its parameters, a leading
`ps` standing for p, a, t, k.  The registry reads the required and the
defaulted parameter names off the function's code object (__code__ and
__defaults__); TestRegistryContract in the tests checks that each takes
only positional-or-keyword parameters, which a flat {param: int} record
binds by name.  The CLI subcommands and the sweep-grid keys are derived
from the registry.  run_check dispatches such a record and turns
math-level ValueErrors and ArithmeticErrors, as well as RecursionErrors
and MemoryErrors, into errored reports (unknown names or parameters
raise instead, by the rule _checker states for run_check and for each
sweep grid), so one bad point cannot abort a sweep.  It is also the one
place a check is timed: the checkers are pure, and run_check stamps the
wall-clock elapsed_ms on every report it returns, errored ones included.
A sweep config is the dict that sweep_config returns, {"checks":
[{"name": str, "grid": {param: [ints]}}, ...], "jobs": int}, and a sweep
file echoes it.  run_sweep expands each check's grid as a Cartesian
product in sorted parameter order and yields each point's (status, JSON
text) pair in that order as it is ready, so report order is
deterministic regardless of the parallelism degree.  It counts the
points as the product of the grid's list lengths and draws them lazily,
so the parent never lists the grid.  A pool never has more workers than
points or than the CPUs this process may run on; it gets chunks of
max(1, min(points // (8 * workers), 512)) points, so IPC is paid per
chunk, not per point, and at most 2 * workers chunks are submitted and
not yet yielded at a time, so the parent's memory does not grow with the
number of points.  _run_point encodes each report where it ran, and
the parent only counts statuses and writes text.
Serial or pooled, each process grows its own Bernoulli table lazily,
only as far as the points it runs read.  write_sweep is the sweep file's
one layout: main streams the pairs into --out one at a time, so it never
holds the whole sweep, and SweepReport.to_json_dict reads back the file
for pairs a library caller has gathered.

main is the one input boundary: outside input (flags, the config file,
the --out path) that is unreadable, over-nested or invalid reaches its
one handler, which prints a JSON error to stderr and exits 2.  Checker
errors never get there: run_check has made them errored reports.  Every
subcommand but bernoulli and sweep is a registered checker, such as
spectrum.balance_check.  Python's 4300-digit limit on int <-> str
conversion holds while main parses its inputs.  `with _NoDigitLimit():`
blocks lift it around main's command, so results print at any length;
around run_check's checker and _run_point's check and encode, which
spawn and forkserver workers do not inherit from main, so no verdict
depends on the start method; and in SweepReport.to_json_dict.  Each
restores its caller's limit.

A command line is parsed by a parser that holds only the subcommand it
names (build_parser), so a call builds one subparser, not all of them;
with no command, a help flag or an unknown name the parser holds every
subcommand, and argparse's help text and usage errors are unchanged.
Importing this module loads padlab, argparse, json and fractions and
nothing they do not load themselves: no inspect, no dataclasses, and no
process pool until a sweep starts one.

Exit codes: 0 all hold, 1 at least one violation, 2 configuration or
parameter errors only.
"""

import argparse
import io
import itertools
import json
import math
import os
import sys
import time
from collections import deque
from collections.abc import Iterable, Iterator
from types import ModuleType

from . import __version__, bernoulli, congruence_suite, jet, powersum, spectrum
from .params import ParameterSet
from .report import CheckReport, Record


def _parameters(fn) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """fn's required and defaulted parameter names, read off its code
    object; TestRegistryContract checks that each checker takes only
    positional-or-keyword parameters, which a record binds by name."""
    code = fn.__code__
    names = code.co_varnames[: code.co_argcount]
    split = len(names) - len(fn.__defaults__ or ())
    return names[:split], names[split:]


_PS_FIELDS = _parameters(ParameterSet.__init__)[0][1:]  # p, a, t, k after self


class CheckerSpec:
    """The checker function `fn` of `module`; its signature is the only
    statement of the checker's parameters.  Required parameters become
    `params` (a leading `ps` stands for ParameterSet's p, a, t, k) and
    defaulted ones `optional`."""

    def __init__(self, module: ModuleType, fn: str):
        self.module = module
        self.fn = fn
        required, self.optional = _parameters(getattr(module, fn))
        self.ps_first = required[:1] == ("ps",)
        self.params = (*_PS_FIELDS, *required[1:]) if self.ps_first else required

    def run(self, args: dict) -> CheckReport:
        # looked up per call, so a rebound module attribute (a tracer's
        # wrapper, a test's spy) is what runs
        fn = getattr(self.module, self.fn)
        if not self.ps_first:
            return fn(**args)
        rest = dict(args)
        return fn(ParameterSet(*map(rest.pop, _PS_FIELDS)), **rest)


REGISTRY: dict[str, CheckerSpec] = {
    "kummer": CheckerSpec(congruence_suite, "kummer_check"),
    "theorem2": CheckerSpec(congruence_suite, "theorem2_check"),
    "corollary2": CheckerSpec(congruence_suite, "corollary2_check"),
    "case1": CheckerSpec(congruence_suite, "case1_step_check"),
    "case2": CheckerSpec(congruence_suite, "case2_check"),
    "case3": CheckerSpec(congruence_suite, "case3_branch_check"),
    "lemma1": CheckerSpec(powersum, "lemma1_check"),
    "lemma2": CheckerSpec(powersum, "lemma2_check"),
    "lemma4": CheckerSpec(jet, "lemma4_check"),
    "lemma5": CheckerSpec(jet, "lemma5_count"),
    "corollary3": CheckerSpec(jet, "corollary3_check"),
    "theorem1": CheckerSpec(spectrum, "theorem1_check"),
    "theorem3": CheckerSpec(spectrum, "theorem3_check"),
    "transport": CheckerSpec(spectrum, "transport_check"),
    "corollary1": CheckerSpec(spectrum, "corollary1_check"),
    "balance": CheckerSpec(spectrum, "balance_check"),
    "adams": CheckerSpec(bernoulli, "adams_check"),
    "von_staudt_clausen": CheckerSpec(bernoulli, "von_staudt_clausen_check"),
}


def _checker(name, keys) -> CheckerSpec:
    """The registered checker `name`, if `keys` holds each of its required
    parameters and nothing it does not take; else a ValueError."""
    checker = REGISTRY.get(name) if isinstance(name, str) else None
    if checker is None:
        raise ValueError(f"unknown checker name: {name!r}")
    unknown = set(keys) - {*checker.params, *checker.optional}
    if unknown:
        raise ValueError(f"unknown parameters for {name!r}: {sorted(unknown)}")
    missing = set(checker.params) - set(keys)
    if missing:
        raise ValueError(f"missing parameters for {name!r}: {sorted(missing)}")
    return checker


def run_check(name: str, args: dict) -> CheckReport:
    """Dispatch a registered checker, timed; math errors become errored reports."""
    checker = _checker(name, args)
    t0 = time.perf_counter_ns()
    try:
        with _NoDigitLimit():
            report = checker.run(args)
    except (ValueError, ArithmeticError, RecursionError, MemoryError) as exc:
        report = CheckReport(name=name, inputs=dict(args), holds=False, error=str(exc))
    report.elapsed_ms = (time.perf_counter_ns() - t0) // 1_000_000
    return report


class _NoDigitLimit:
    """A `with` block that lifts the int <-> str digit limit, which Pythons
    before 3.10.7 lack, and restores it on exit; enter a fresh instance
    each time, since blocks nest."""

    def __enter__(self):
        self.limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if self.limit is not None:
            sys.set_int_max_str_digits(0)

    def __exit__(self, *exc_info):
        if self.limit is not None:
            sys.set_int_max_str_digits(self.limit)


# ---------------------------------------------------------------------------
# sweeps


def sweep_config(raw) -> dict:
    """raw, a config as json.load read it, checked: {"checks": its checks,
    "jobs": its jobs, 1 if it has none}; else a ValueError."""
    if not isinstance(raw, dict) or "checks" not in raw:
        raise ValueError("sweep config must be an object with a 'checks' list")
    unknown = set(raw) - {"checks", "jobs"}
    if unknown:
        raise ValueError(f"unknown sweep config keys: {sorted(unknown)}")
    checks = raw["checks"]
    if not isinstance(checks, list):
        raise ValueError("'checks' must be a list")
    for entry in checks:
        if not isinstance(entry, dict):
            raise ValueError(f"each check must be an object, got {entry!r}")
        name = entry.get("name")
        unknown = set(entry) - {"name", "grid"}
        if unknown:
            raise ValueError(f"unknown keys in check {name!r}: {sorted(unknown)}")
        grid = entry.get("grid")
        if not isinstance(grid, dict) or not grid:
            raise ValueError(f"check {name!r} needs a nonempty 'grid' object")
        _checker(name, grid)
        for key, values in grid.items():
            if not isinstance(values, list) or not values:
                raise ValueError(f"grid entry {name}.{key} must be a nonempty list")
            if not all(map(_is_int, values)):
                raise ValueError(f"grid entry {name}.{key} must list integers, got {values!r}")
    return {"checks": checks, "jobs": _jobs(raw.get("jobs", 1))}


def _exit_code(summary: dict) -> int:
    """1 if any report failed, else 2 if any errored, else 0; `summary`
    maps a status to its count and may leave out statuses that are 0."""
    return 1 if summary.get("failed") else 2 if summary.get("errored") else 0


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _jobs(value) -> int:
    if not _is_int(value) or value < 1:
        raise ValueError(f"jobs must be a positive integer, got {value!r}")
    return value


class SweepReport(Record):
    """A whole sweep in memory, for library callers and tests: each point's
    (status, JSON text of its report) pair, as run_sweep yields them.  The
    CLI streams the same file through write_sweep without one."""

    def __init__(self, config: dict, reports: list[tuple[str, str]]):
        self.config = config
        self.reports = reports

    def to_json_dict(self) -> dict:
        """The sweep file's object, read back from what write_sweep writes;
        both run under the lifted digit limit, as in main, so an echoed
        grid value of any length round-trips."""
        buf = io.StringIO()
        with _NoDigitLimit():
            write_sweep(buf, self.config, self.reports)
            return json.loads(buf.getvalue())


_encode = json.JSONEncoder(sort_keys=True).encode  # the C encoder


def write_sweep(fh: io.TextIOBase, config: dict, reports: Iterable[tuple[str, str]]) -> dict:
    """Write a sweep file to fh one report at a time, as `reports` yields
    their (status, JSON text) pairs, and return its summary.  This is the
    file's one layout: a line of compact JSON with sorted keys (config,
    reports, summary, tool, version), byte for byte what
    json.dumps(obj, sort_keys=True) + "\\n" gives for the whole object; only
    the summary, which counts the reports, follows them.  The C encoder
    writes the head whole: the parsed config, not it, sets the parent's peak."""
    fh.write(f'{{"config": {_encode(config)}, "reports": [')
    counts = dict.fromkeys(("held", "failed", "errored"), 0)
    sep = ""
    for status, text in reports:
        fh.write(sep + text)
        sep = ", "
        counts[status] += 1
    summary = {"total": sum(counts.values()), **counts}
    fh.write(f'], "summary": {_encode(summary)}, "tool": "padlab", "version": {_encode(__version__)}}}\n')
    return summary


def grid_points(config: dict) -> Iterator[tuple[str, dict]]:
    """Yield (name, args) in deterministic order: checks as listed, then the
    Cartesian product lexicographically over sorted parameter names."""
    for entry in config["checks"]:
        keys = sorted(entry["grid"])
        for combo in itertools.product(*(entry["grid"][key] for key in keys)):
            yield entry["name"], dict(zip(keys, combo))


def _run_point(point: tuple[str, dict]) -> tuple[str, str]:
    """The point's status and its report's CheckReport.to_json text, encoded
    in the process that ran it under the lifted digit limit, which spawn
    and forkserver workers do not inherit from main."""
    with _NoDigitLimit():
        report = run_check(*point)
        return report.status, report.to_json()


def _run_chunk(points: list[tuple[str, dict]]) -> list[tuple[str, str]]:
    return list(map(_run_point, points))


def _cpus() -> int:
    """The number of CPUs this process may run on, or on the machine where
    the OS has no affinity API (macOS, Windows)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def run_sweep(config: dict) -> Iterator[tuple[str, str]]:
    """Yield each grid point's (status, JSON text) pair, in grid order, as
    it is ready.  Points are drawn from grid_points only as the window of
    chunks in flight has room.  Closing the generator early cancels the
    chunks no worker has started and joins the pool."""
    total = sum(math.prod(map(len, entry["grid"].values())) for entry in config["checks"])
    points = grid_points(config)
    # a fork pool starts all its workers at once, however few points or CPUs there are
    workers = min(config["jobs"], total, _cpus())
    if workers < 2:
        yield from map(_run_point, points)
        return
    from concurrent.futures import ProcessPoolExecutor  # serial runs skip the import

    # the cap keeps the window's size, and so the parent's memory, independent
    # of the grid; at 1024 points the parent's peak RSS still crept up with the
    # grid (20 MB at 10^5 lemma4 points, 26 MB at 4*10^5), at 512 it did not
    size = max(1, min(total // (8 * workers), 512))
    chunks = iter(lambda: list(itertools.islice(points, size)), [])
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        window = deque(pool.submit(_run_chunk, chunk) for chunk in itertools.islice(chunks, 2 * workers))
        while window:
            yield from window.popleft().result()
            # submitted only once the chunk before it is yielded, so at most
            # 2 * workers chunks are ever submitted and not yet yielded
            chunk = next(chunks, None)
            if chunk is not None:
                window.append(pool.submit(_run_chunk, chunk))
    finally:
        pool.shutdown(cancel_futures=True)


def canonical_body(report_dict: dict) -> dict:
    """The comparison canon for determinism: drop the elapsed_ms timing
    fields and a sweep's echoed config.jobs, so serial and pooled runs of
    one config agree."""
    if isinstance(report_dict, dict):
        body = {k: canonical_body(v) for k, v in report_dict.items() if k != "elapsed_ms"}
        if isinstance(body.get("config"), dict):
            body["config"].pop("jobs", None)
        return body
    if isinstance(report_dict, list):
        return [canonical_body(v) for v in report_dict]
    return report_dict


# ---------------------------------------------------------------------------
# argument parsing


def _dump(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The padlab parser with only the subcommand `command`, if that names
    one; else, as with no command or a help flag, with all of them."""
    parser = argparse.ArgumentParser(
        prog="padlab",
        description="Exact verification of congruences between power sums, "
        "Bernoulli numbers, and unit-group orbits modulo odd prime powers.",
    )
    parser.add_argument("--version", action="version", version=f"padlab {__version__}")
    names, metavar = [*REGISTRY, "bernoulli", "sweep"], None
    if command in names:
        # the usage line argparse derives from every name, which errors
        # such as an unrecognized flag print
        names, metavar = [command], "{" + ",".join(names) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        if name == "bernoulli":
            sp = sub.add_parser(name, help="print B_n as numerator/denominator")
            sp.add_argument("--n", type=int, required=True)
        elif name == "sweep":
            sp = sub.add_parser(name, help="run a grid of checks from a JSON config")
            sp.add_argument("--config", required=True)
            sp.add_argument("--out", required=True)
            sp.add_argument("--jobs", type=int, default=None)
        else:
            spec = REGISTRY[name]
            sp = sub.add_parser(name, help=f"run the {name} checker")
            for param in spec.params + spec.optional:
                sp.add_argument(f"--{param}", type=int, required=param in spec.params)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        cmd = args.command
        if cmd == "sweep":
            with open(args.config, "r", encoding="utf-8") as fh:
                config = sweep_config(json.load(fh))
            if args.jobs is not None:
                config["jobs"] = _jobs(args.jobs)
        # every input is parsed under the digit limit; results print at any length
        with _NoDigitLimit():
            if cmd == "bernoulli":
                value = bernoulli.bernoulli(args.n)
                print(f"{value.numerator}/{value.denominator}")
                return 0

            if cmd == "sweep":
                # opened before the grid runs, so an unwritable path costs no checks;
                # a failed write closes the reports, which shuts the pool down
                with open(args.out, "w", encoding="utf-8") as fh:
                    reports = run_sweep(config)
                    try:
                        summary = write_sweep(fh, config, reports)
                    finally:
                        reports.close()
                print(_dump({"out": args.out, "summary": summary}))
                return _exit_code(summary)

            record = {k: v for k, v in vars(args).items() if k != "command" and v is not None}
            report = run_check(cmd, record)
            print(_dump(report.to_json_dict()))
            return _exit_code({report.status: 1})
    except (OSError, ValueError, RecursionError) as exc:
        print(_dump({"error": str(exc)}), file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
