"""Command-line front end and parameter-grid sweep orchestration.

Every checker is registered by name with its module and function; the
function's signature is the only statement of its parameters, a leading
`ps` standing for p, a, t, k.  The registry reads the required and the
defaulted parameter names off the function's code object (__code__ and
__defaults__), and rejects at registration a checker whose parameters a
flat {param: int} record cannot bind by name.  The CLI subcommands and
the sweep-grid keys are derived from it.  run_check dispatches such a
record and turns math-level ValueErrors and ArithmeticErrors, as well as
RecursionErrors and MemoryErrors, into errored reports (unknown names or
parameters raise instead, by the rule _checker states for run_check and
for each sweep grid), so one bad point cannot abort a sweep.  It is
also the one place a check is timed: the checkers are pure, and run_check
stamps the wall-clock elapsed_ms on every report it returns, errored ones
included.  It runs each checker with Python's 4300-digit limit on int <->
str conversion lifted, so no verdict depends on the pool's start method.
run_sweep expands each check's grid as a Cartesian product in
sorted parameter order and yields the points' reports in that order as
they are ready, so report order is deterministic regardless of the
parallelism degree.  A pool never has more workers than points or than
the CPUs this process may run on, and it sends them chunks of
max(1, len(points) // (8 * workers)) points, so IPC is paid per chunk,
not per point.  Serial or pooled, each process grows its own Bernoulli
table lazily, only as far as the points it runs read.  write_sweep is
the sweep file's one layout: main streams the reports into --out one at
a time, so it never holds the whole sweep, and SweepReport.collect
gathers one in memory for library callers.

main is the one input boundary: outside input (flags, the config file,
the --out path) that is unreadable, over-nested or invalid reaches its
one handler, which prints a JSON error to stderr and exits 2.  Checker
errors never get there: run_check has made them errored reports.  Inputs
are parsed under the 4300-digit limit; then main lifts it until it
returns, so results print at any length.  Every subcommand but bernoulli
and sweep is a registered checker, such as spectrum.balance_check.

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
import os
import sys
import time
from collections.abc import Iterable, Iterator
from types import ModuleType

from . import __version__, bernoulli, congruence_suite, jet, powersum, spectrum
from .params import ParameterSet
from .report import CheckReport, Record

_VARIADIC = 0x04 | 0x08  # CO_VARARGS | CO_VARKEYWORDS in a code object's co_flags


def _parameters(fn) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """fn's required and defaulted parameter names, read off its code
    object.  A TypeError for *args, **kwargs, keyword-only or
    positional-only parameters, which a call by name from a flat
    {param: int} record would misread."""
    code = fn.__code__
    if code.co_flags & _VARIADIC or code.co_kwonlyargcount or code.co_posonlyargcount:
        raise TypeError(f"{fn.__qualname__} must take only positional-or-keyword parameters")
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
        report = _without_digit_limit(checker.run, args)
    except (ValueError, ArithmeticError, RecursionError, MemoryError) as exc:
        report = CheckReport(name=name, inputs=dict(args), holds=False, error=str(exc))
    report.elapsed_ms = (time.perf_counter_ns() - t0) // 1_000_000
    return report


def _without_digit_limit(fn, *args):
    """fn(*args) with Python's 4300-digit int <-> str limit lifted, then
    restored; Pythons before 3.10.7 have no such limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        return fn(*args)
    sys.set_int_max_str_digits(0)
    try:
        return fn(*args)
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# sweeps


class SweepConfig(Record):
    def __init__(self, checks: list[dict], jobs: int = 1):
        self.checks = checks  # each {"name": str, "grid": {param: [values]}}
        self.jobs = jobs

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
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
        return cls(checks=checks, jobs=_jobs(raw.get("jobs", 1)))

    def as_dict(self) -> dict:
        """The config as a sweep file echoes it."""
        return {"checks": self.checks, "jobs": self.jobs}


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
    """A whole sweep in memory, for library callers and tests.  The CLI
    streams the same file through write_sweep without one."""

    def __init__(self, config: dict, reports: list[CheckReport]):
        self.config = config
        self.reports = reports

    @classmethod
    def collect(cls, config: SweepConfig) -> "SweepReport":
        return cls(config.as_dict(), list(run_sweep(config)))

    @property
    def summary(self) -> dict:
        return write_sweep(io.StringIO(), self.config, self.reports)

    def exit_code(self) -> int:
        return _exit_code(self.summary)

    def to_json_dict(self) -> dict:
        """The sweep file's object, read back from what write_sweep writes."""
        buf = io.StringIO()
        write_sweep(buf, self.config, self.reports)
        return json.loads(buf.getvalue())


def write_sweep(fh: io.TextIOBase, config: dict, reports: Iterable[CheckReport]) -> dict:
    """Write a sweep file to fh one report at a time, as `reports` yields
    them, and return its summary.  This is the file's one layout: a line of
    compact JSON with sorted keys (config, reports, summary, tool, version),
    byte for byte what json.dumps(obj, sort_keys=True) + "\\n" gives for the
    whole object; only the summary, which counts the reports, follows them."""
    encode = json.JSONEncoder(sort_keys=True).encode  # the C encoder
    counts = dict.fromkeys(("held", "failed", "errored"), 0)
    fh.write(f'{{"config": {encode(config)}, "reports": [')
    sep = ""
    for report in reports:
        counts[report.status] += 1
        fh.write(sep + encode(report.to_json_dict()))
        sep = ", "
    summary = {"total": sum(counts.values()), **counts}
    fh.write(f'], "summary": {encode(summary)}, "tool": "padlab", "version": {encode(__version__)}}}\n')
    return summary


def grid_points(config: SweepConfig):
    """Yield (name, args) in deterministic order: checks as listed, then the
    Cartesian product lexicographically over sorted parameter names."""
    for entry in config.checks:
        keys = sorted(entry["grid"])
        for combo in itertools.product(*(entry["grid"][key] for key in keys)):
            yield entry["name"], dict(zip(keys, combo))


def _run_point(point: tuple[str, dict]) -> CheckReport:
    return run_check(point[0], point[1])


def _cpus() -> int:
    """The number of CPUs this process may run on, or on the machine where
    the OS has no affinity API (macOS, Windows)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def run_sweep(config: SweepConfig) -> Iterator[CheckReport]:
    """Yield the report of each grid point, in grid order, as it is ready.
    Closing the generator early cancels the chunks no worker has started
    and joins the pool."""
    points = list(grid_points(config))
    # a fork pool starts all its workers at once, however few points or CPUs there are
    workers = min(config.jobs, len(points), _cpus())
    if workers < 2:
        yield from map(_run_point, points)
        return
    from concurrent.futures import ProcessPoolExecutor  # serial runs skip the import

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        chunk = max(1, len(points) // (8 * workers))
        yield from pool.map(_run_point, points, chunksize=chunk)
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
        config = None
        if args.command == "sweep":
            with open(args.config, "r", encoding="utf-8") as fh:
                config = SweepConfig.from_dict(json.load(fh))
            if args.jobs is not None:
                config.jobs = _jobs(args.jobs)
        # every input is parsed under the digit limit; results print at any length
        return _without_digit_limit(_run_command, args, config)
    except (OSError, ValueError, RecursionError) as exc:
        print(_dump({"error": str(exc)}), file=sys.stderr)
        return 2


def _run_command(args: argparse.Namespace, config: SweepConfig | None) -> int:
    cmd = args.command
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
                summary = write_sweep(fh, config.as_dict(), reports)
            finally:
                reports.close()
        print(_dump({"out": args.out, "summary": summary}))
        return _exit_code(summary)

    record = {k: v for k, v in vars(args).items() if k != "command" and v is not None}
    report = run_check(cmd, record)
    print(_dump(report.to_json_dict()))
    return _exit_code({report.status: 1})


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
