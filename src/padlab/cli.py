"""Command-line front end and parameter-grid sweep orchestration.

Every checker is registered by name with its parameter list; the
registry is the only description of a checker, and the CLI subcommands
are derived from it.  run_check dispatches a flat {param: int} record and
turns math-level ValueErrors into errored reports (unknown names or
parameters raise instead).  It is also the one place a check is timed:
the checkers are pure, and run_check stamps the wall-clock elapsed_ms on
every report it returns, errored ones included.
run_sweep expands each check's grid as a Cartesian product in sorted
parameter order, so report order is deterministic regardless of the
parallelism degree.  Serial or pooled, each process grows its own
Bernoulli table lazily, only as far as the points it runs read.

Exit codes: 0 all hold, 1 at least one violation, 2 configuration or
parameter errors only.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from . import __version__, congruence_suite, jet, powersum, spectrum
from .bernoulli import adams_check, bernoulli, von_staudt_clausen_check
from .params import ParameterSet
from .report import CheckReport


def _ps(args: dict) -> ParameterSet:
    return ParameterSet(args["p"], args["a"], args["t"], args["k"])


@dataclass(frozen=True)
class CheckerSpec:
    run: Callable[[dict], CheckReport]
    params: tuple[str, ...]
    optional: tuple[str, ...] = ()
    # CLI flag spellings that differ from the parameter name
    flags: dict[str, str] = field(default_factory=dict)


REGISTRY: dict[str, CheckerSpec] = {
    "kummer": CheckerSpec(
        lambda a: congruence_suite.kummer_check(a["p"], a["a"], a["r"], a["s"]),
        ("p", "a", "r", "s"),
    ),
    "theorem2": CheckerSpec(
        lambda a: congruence_suite.theorem2_check(_ps(a), a["r"]),
        ("p", "a", "t", "k", "r"),
    ),
    "corollary2": CheckerSpec(
        lambda a: congruence_suite.corollary2_check(
            a["p"], a["a"], a["t"], a["b"], a.get("v")
        ),
        ("p", "a", "t", "b"),
        optional=("v",),
    ),
    "case1": CheckerSpec(
        lambda a: congruence_suite.case1_step_check(a["p"], a["a"], a["r"]),
        ("p", "a", "r"),
    ),
    "case2": CheckerSpec(
        lambda a: congruence_suite.case2_check(_ps(a), a["b"]),
        ("p", "a", "t", "k", "b"),
    ),
    "case3": CheckerSpec(
        lambda a: congruence_suite.case3_branch_check(_ps(a)),
        ("p", "a", "t", "k"),
    ),
    "lemma1": CheckerSpec(
        lambda a: powersum.lemma1_check(a["p"], a["a"], a["r"]),
        ("p", "a", "r"),
    ),
    "lemma2": CheckerSpec(
        lambda a: powersum.lemma2_check(a["p"], a["a"], a["rr"], a["kk"]),
        ("p", "a", "rr", "kk"),
        flags={"kk": "k"},
    ),
    "lemma4": CheckerSpec(
        lambda a: jet.lemma4_check(_ps(a), a["m"], a["n"]),
        ("p", "a", "t", "k", "m", "n"),
    ),
    "lemma5": CheckerSpec(
        lambda a: jet.lemma5_count(_ps(a), a["s"]),
        ("p", "a", "t", "k", "s"),
    ),
    "corollary3": CheckerSpec(
        lambda a: jet.corollary3_check(_ps(a), a["s0"], a["kk"], a["x"]),
        ("p", "a", "t", "k", "s0", "kk", "x"),
    ),
    "theorem1": CheckerSpec(
        lambda a: spectrum.theorem1_check(_ps(a)),
        ("p", "a", "t", "k"),
    ),
    "theorem3": CheckerSpec(
        lambda a: spectrum.theorem3_check(_ps(a)),
        ("p", "a", "t", "k"),
    ),
    "transport": CheckerSpec(
        lambda a: spectrum.transport_check(_ps(a), a["g"], a["xprime"], a["n"]),
        ("p", "a", "t", "k", "g", "xprime", "n"),
    ),
    "corollary1": CheckerSpec(
        lambda a: spectrum.corollary1_check(_ps(a), a["x"], a["mu"]),
        ("p", "a", "t", "k", "x", "mu"),
    ),
    "adams": CheckerSpec(
        lambda a: adams_check(a["r"], a["p"]),
        ("r", "p"),
    ),
    "von_staudt_clausen": CheckerSpec(
        lambda a: von_staudt_clausen_check(a["n"]),
        ("n",),
    ),
}


def run_check(name: str, args: dict) -> CheckReport:
    """Dispatch a registered checker, timed; math errors become errored reports."""
    checker = REGISTRY.get(name)
    if checker is None:
        raise ValueError(f"unknown checker name: {name!r}")
    allowed = set(checker.params) | set(checker.optional)
    unknown = set(args) - allowed
    if unknown:
        raise ValueError(f"unknown parameters for {name!r}: {sorted(unknown)}")
    missing = set(checker.params) - set(args)
    if missing:
        raise ValueError(f"missing parameters for {name!r}: {sorted(missing)}")
    t0 = time.perf_counter_ns()
    try:
        report = checker.run(args)
    except (ValueError, ArithmeticError) as exc:
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
            allowed = set(checker.params) | set(checker.optional)
            for key, values in grid.items():
                if key not in allowed:
                    raise ValueError(f"{key!r} is not a parameter of {name!r}")
                if not isinstance(values, list) or not values:
                    raise ValueError(f"grid entry {name}.{key} must be a nonempty list")
                if not all(map(_is_int, values)):
                    raise ValueError(f"grid entry {name}.{key} must list integers, got {values!r}")
            missing = set(checker.params) - set(grid)
            if missing:
                raise ValueError(f"check {name!r} is missing grid keys {sorted(missing)}")
        return cls(checks=checks, jobs=_jobs(raw.get("jobs", 1)))


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
        errored = sum(1 for r in self.reports if r.error is not None)
        held = sum(1 for r in self.reports if r.error is None and r.holds)
        failed = len(self.reports) - held - errored
        self.summary = {
            "total": len(self.reports),
            "held": held,
            "failed": failed,
            "errored": errored,
        }

    def exit_code(self) -> int:
        if self.summary["failed"] > 0:
            return 1
        if self.summary["errored"] > 0:
            return 2
        return 0

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
    if config.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # serial runs skip the import

        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            reports = list(pool.map(_run_point, points))
    else:
        reports = [_run_point(pt) for pt in points]
    raw_config = {"checks": config.checks, "jobs": config.jobs}
    return SweepReport(config=raw_config, reports=reports)


def canonical_body(report_dict: dict) -> dict:
    """The comparison canon for determinism: drop elapsed timing fields."""
    if isinstance(report_dict, dict):
        return {
            k: canonical_body(v)
            for k, v in report_dict.items()
            if k not in ("elapsed_ms",)
        }
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
    for flag in ("p", "a", "t", "k"):
        sp.add_argument(f"--{flag}", type=int, required=True)

    sp = sub.add_parser("balance", help="test whether S is j-balanced")
    for flag in ("p", "a", "t", "k", "j"):
        sp.add_argument(f"--{flag}", type=int, required=True)

    sp = sub.add_parser("bernoulli", help="print B_n as numerator/denominator")
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("sweep", help="run a grid of checks from a JSON config")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--jobs", type=int, default=None)

    return parser


def _check_exit_code(report: CheckReport) -> int:
    if report.error is not None:
        return 2
    return 0 if report.holds else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cmd = args.command

    spec = REGISTRY.get(cmd)
    if spec is not None:
        record = {k: v for k, v in vars(args).items() if k != "command" and v is not None}
        report = run_check(cmd, record)
        print(_dump(report.to_json_dict()))
        return _check_exit_code(report)

    if cmd in ("stabilizer", "balance"):
        try:
            ps = ParameterSet(args.p, args.a, args.t, args.k)
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
        except ValueError as exc:
            print(_dump({"error": str(exc)}), file=sys.stderr)
            return 2

    if cmd == "bernoulli":
        if args.n < 0:
            print(_dump({"error": "n must be nonnegative"}), file=sys.stderr)
            return 2
        value = bernoulli(args.n)
        print(f"{value.numerator}/{value.denominator}")
        return 0

    if cmd == "sweep":
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            config = SweepConfig.from_dict(raw)
            if args.jobs is not None:
                config.jobs = _jobs(args.jobs)
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            print(_dump({"error": str(exc)}), file=sys.stderr)
            return 2
        sweep = run_sweep(config)
        body = _dump(sweep.to_json_dict()) + "\n"
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as exc:
            print(_dump({"error": str(exc)}), file=sys.stderr)
            return 2
        print(_dump({"out": args.out, "summary": sweep.summary}))
        return sweep.exit_code()

    raise AssertionError(f"unhandled command {cmd!r}")


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
