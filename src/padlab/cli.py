"""Command-line front end and parameter-grid sweep orchestration.

Every checker is registered by name with its module and function; the
function's signature is the only statement of its parameters, a leading
`ps` standing for p, a, t, k.  The CLI subcommands and the sweep-grid
keys are derived from it.  run_check dispatches a flat {param: int}
record and turns math-level ValueErrors and ArithmeticErrors, as well as
RecursionErrors and MemoryErrors, into errored reports (unknown names or
parameters raise instead), so one bad point cannot abort a sweep.  It is
also the one place a check is timed: the checkers are pure, and run_check
stamps the wall-clock elapsed_ms on every report it returns, errored ones
included.  run_sweep expands each check's grid as a Cartesian product in
sorted parameter order, so report order is deterministic regardless of
the parallelism degree.  A pool never has more workers than points, and
it sends them chunks of max(1, len(points) // (8 * workers)) points, so
IPC is paid per chunk, not per point.  Serial or pooled, each process
grows its own Bernoulli table lazily, only as far as the points it runs
read.

main is the one input boundary: outside input (flags, the config file,
the --out path) that is unreadable, over-nested or invalid reaches its
one handler, which prints a JSON error to stderr and exits 2.  Checker
errors never get there: run_check has made them errored reports.  Inputs
are parsed under Python's 4300-digit limit on int <-> str conversion;
then main lifts it until it returns, so results print at any length.

Exit codes: 0 all hold, 1 at least one violation, 2 configuration or
parameter errors only.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import sys
import time
from dataclasses import dataclass, field
from types import ModuleType

from . import __version__, bernoulli, congruence_suite, jet, powersum, spectrum
from .params import ParameterSet
from .report import CheckReport


_PS_FIELDS = tuple(inspect.signature(ParameterSet).parameters)  # p, a, t, k


@dataclass
class CheckerSpec:
    """The checker function `fn` of `module`; its signature is the only
    statement of the checker's parameters.  Required parameters become
    `params` (a leading `ps` stands for ParameterSet's p, a, t, k) and
    defaulted ones `optional`."""

    module: ModuleType
    fn: str
    # CLI flag spellings that differ from the parameter name
    flags: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        sig = inspect.signature(getattr(self.module, self.fn)).parameters.values()
        required = [q.name for q in sig if q.default is q.empty]
        self.ps_first = required[:1] == ["ps"]
        self.params = (*_PS_FIELDS, *required[1:]) if self.ps_first else tuple(required)
        self.optional = tuple(q.name for q in sig if q.default is not q.empty)
        self.allowed = {*self.params, *self.optional}

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
    "lemma2": CheckerSpec(powersum, "lemma2_check", flags={"kk": "k"}),
    "lemma4": CheckerSpec(jet, "lemma4_check"),
    "lemma5": CheckerSpec(jet, "lemma5_count"),
    "corollary3": CheckerSpec(jet, "corollary3_check"),
    "theorem1": CheckerSpec(spectrum, "theorem1_check"),
    "theorem3": CheckerSpec(spectrum, "theorem3_check"),
    "transport": CheckerSpec(spectrum, "transport_check"),
    "corollary1": CheckerSpec(spectrum, "corollary1_check"),
    "adams": CheckerSpec(bernoulli, "adams_check"),
    "von_staudt_clausen": CheckerSpec(bernoulli, "von_staudt_clausen_check"),
}


def run_check(name: str, args: dict) -> CheckReport:
    """Dispatch a registered checker, timed; math errors become errored reports."""
    checker = REGISTRY.get(name)
    if checker is None:
        raise ValueError(f"unknown checker name: {name!r}")
    unknown = set(args) - checker.allowed
    if unknown:
        raise ValueError(f"unknown parameters for {name!r}: {sorted(unknown)}")
    missing = set(checker.params) - set(args)
    if missing:
        raise ValueError(f"missing parameters for {name!r}: {sorted(missing)}")
    t0 = time.perf_counter_ns()
    try:
        report = checker.run(args)
    except (ValueError, ArithmeticError, RecursionError, MemoryError) as exc:
        report = CheckReport(name=name, inputs=dict(args), holds=False, error=str(exc))
    report.elapsed_ms = (time.perf_counter_ns() - t0) // 1_000_000
    return report


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepConfig:
    checks: list[dict]  # each {"name": str, "grid": {param: [values]}}
    jobs: int = 1

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
            if not isinstance(name, str) or name not in REGISTRY:
                raise ValueError(f"unknown checker name: {name!r}")
            unknown = set(entry) - {"name", "grid"}
            if unknown:
                raise ValueError(f"unknown keys in check {name!r}: {sorted(unknown)}")
            checker = REGISTRY[name]
            grid = entry.get("grid")
            if not isinstance(grid, dict) or not grid:
                raise ValueError(f"check {name!r} needs a nonempty 'grid' object")
            for key, values in grid.items():
                if key not in checker.allowed:
                    raise ValueError(f"{key!r} is not a parameter of {name!r}")
                if not isinstance(values, list) or not values:
                    raise ValueError(f"grid entry {name}.{key} must be a nonempty list")
                if not all(map(_is_int, values)):
                    raise ValueError(f"grid entry {name}.{key} must list integers, got {values!r}")
            missing = set(checker.params) - set(grid)
            if missing:
                raise ValueError(f"check {name!r} is missing grid keys {sorted(missing)}")
        return cls(checks=checks, jobs=_jobs(raw.get("jobs", 1)))


def _exit_code(reports: list[CheckReport]) -> int:
    """1 if any report failed, else 2 if any errored, else 0."""
    statuses = {r.status for r in reports}
    return 1 if "failed" in statuses else 2 if "errored" in statuses else 0


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _jobs(value) -> int:
    if not _is_int(value) or value < 1:
        raise ValueError(f"jobs must be a positive integer, got {value!r}")
    return value


@dataclass
class SweepReport:
    config: dict
    reports: list[CheckReport]
    summary: dict = field(init=False)

    def __post_init__(self):
        statuses = [r.status for r in self.reports]
        counts = {s: statuses.count(s) for s in ("held", "failed", "errored")}
        self.summary = {"total": len(statuses), **counts}

    def exit_code(self) -> int:
        return _exit_code(self.reports)

    def to_json_dict(self) -> dict:
        return {
            "tool": "padlab",
            "version": __version__,
            "config": self.config,
            "reports": [r.to_json_dict() for r in self.reports],
            "summary": self.summary,
        }


def grid_points(config: SweepConfig):
    """Yield (name, args) in deterministic order: checks as listed, then the
    Cartesian product lexicographically over sorted parameter names."""
    for entry in config.checks:
        keys = sorted(entry["grid"])
        for combo in itertools.product(*(entry["grid"][key] for key in keys)):
            yield entry["name"], dict(zip(keys, combo))


def _run_point(point: tuple[str, dict]) -> CheckReport:
    return run_check(point[0], point[1])


def run_sweep(config: SweepConfig) -> SweepReport:
    points = list(grid_points(config))
    # a fork pool starts all its workers at once, however few points there are
    workers = min(config.jobs, len(points))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # serial runs skip the import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(points) // (8 * workers))
            reports = list(pool.map(_run_point, points, chunksize=chunk))
    else:
        reports = [_run_point(pt) for pt in points]
    raw_config = {"checks": config.checks, "jobs": config.jobs}
    return SweepReport(config=raw_config, reports=reports)


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padlab",
        description="Exact verification of congruences between power sums, "
        "Bernoulli numbers, and unit-group orbits modulo odd prime powers.",
    )
    parser.add_argument("--version", action="version", version=f"padlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, spec in REGISTRY.items():
        sp = sub.add_parser(name, help=f"run the {name} checker")
        for param in spec.params + spec.optional:
            flag = spec.flags.get(param, param)
            sp.add_argument(f"--{flag}", dest=param, type=int, required=param in spec.params)

    sp = sub.add_parser("stabilizer", help="stabilizer order and generator of S")
    for flag in _PS_FIELDS:
        sp.add_argument(f"--{flag}", type=int, required=True)

    sp = sub.add_parser("balance", help="test whether S is j-balanced")
    for flag in (*_PS_FIELDS, "j"):
        sp.add_argument(f"--{flag}", type=int, required=True)

    sp = sub.add_parser("bernoulli", help="print B_n as numerator/denominator")
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("sweep", help="run a grid of checks from a JSON config")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--jobs", type=int, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    # None on Pythons before 3.10.7, which have no such limit
    digits_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        args = build_parser().parse_args(argv)
        cmd = args.command
        if cmd == "sweep":
            with open(args.config, "r", encoding="utf-8") as fh:
                config = SweepConfig.from_dict(json.load(fh))
            if args.jobs is not None:
                config.jobs = _jobs(args.jobs)
        # every input is parsed; forked pool workers inherit the lifted limit
        if digits_limit is not None:
            sys.set_int_max_str_digits(0)

        if cmd in REGISTRY:
            record = {k: v for k, v in vars(args).items() if k != "command" and v is not None}
            report = run_check(cmd, record)
            print(_dump(report.to_json_dict()))
            return _exit_code([report])

        if cmd in ("stabilizer", "balance"):
            ps = ParameterSet(*(getattr(args, f) for f in _PS_FIELDS))
            s = spectrum.build_S(ps)
            out = {"parameters": {k: str(v) for k, v in ps.as_dict().items()}}
            if cmd == "stabilizer":
                sub = spectrum.stabilizer(s)
                out["order"] = str(sub.order)
                out["generator"] = str(sub.generator)
                out["modulus"] = {"p": str(ps.p), "exp": ps.M}
            else:
                out["j"] = args.j
                out["balanced"] = spectrum.j_balanced(s, args.j)
            print(_dump(out))
            return 0

        if cmd == "bernoulli":
            value = bernoulli.bernoulli(args.n)
            print(f"{value.numerator}/{value.denominator}")
            return 0

        if cmd == "sweep":
            # opened before the grid runs, so an unwritable path costs no checks
            with open(args.out, "w", encoding="utf-8") as fh:
                sweep = run_sweep(config)
                # the C encoder: indent=2 would force the pure-Python one
                fh.write(json.dumps(sweep.to_json_dict(), sort_keys=True) + "\n")
            print(_dump({"out": args.out, "summary": sweep.summary}))
            return sweep.exit_code()
    except (OSError, ValueError, RecursionError) as exc:
        print(_dump({"error": str(exc)}), file=sys.stderr)
        return 2
    finally:
        if digits_limit is not None:
            sys.set_int_max_str_digits(digits_limit)

    raise AssertionError(f"unhandled command {cmd!r}")


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
