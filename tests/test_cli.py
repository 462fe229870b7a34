import argparse
import concurrent.futures
import functools
import inspect
import json
import multiprocessing
import os
import pickle
import re
import shlex
import itertools
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

import padlab
import padlab.bernoulli as bernoulli_module
from padlab.bernoulli import BernoulliTable
from padlab.congruence_suite import case1_step_check
from padlab.params import ParameterSet
from padlab.cli import (
    _PS_FIELDS,
    REGISTRY,
    CheckerSpec,
    SweepConfig,
    SweepReport,
    _cpus,
    build_parser,
    canonical_body,
    grid_points,
    main,
    run_check,
    run_sweep,
)
from test_reference_digests import _load_workloads


# one valid, holding point per registered checker
POINTS = {
    "kummer": {"p": 5, "a": 0, "r": 2, "s": 6},
    "theorem2": {"p": 5, "a": 0, "t": 0, "k": 10, "r": 2},
    "corollary2": {"p": 5, "a": 0, "t": 0, "b": 6},
    "case1": {"p": 5, "a": 1, "r": 2},
    "case2": {"p": 5, "a": 0, "t": 0, "k": 10, "b": 2},
    "case3": {"p": 5, "a": 0, "t": 1, "k": 10},
    "lemma1": {"p": 5, "a": 1, "r": 4},
    "lemma2": {"p": 5, "a": 1, "rr": 1, "kk": 5},
    "lemma4": {"p": 5, "a": 0, "t": 0, "k": 10, "m": 1, "n": 1},
    "lemma5": {"p": 5, "a": 0, "t": 0, "k": 10, "s": 0},
    "corollary3": {"p": 5, "a": 0, "t": 0, "k": 10, "s0": 1, "kk": 1, "x": 1},
    "theorem1": {"p": 5, "a": 0, "t": 0, "k": 10},
    "theorem3": {"p": 5, "a": 0, "t": 0, "k": 10},
    "transport": {"p": 5, "a": 0, "t": 0, "k": 10, "g": 24, "xprime": 2, "n": 1},
    "corollary1": {"p": 5, "a": 0, "t": 0, "k": 10, "x": 2, "mu": 4},
    "balance": {"p": 5, "a": 1, "t": 1, "k": 125, "j": 1},
    "adams": {"r": 6, "p": 5},
    "von_staudt_clausen": {"n": 12},
}


def _fork_pool(monkeypatch):
    """Make run_sweep's pools fork their workers, whatever the default start
    method, so the workers inherit spies that a test set in this process."""
    pool = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork"))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)


@pytest.fixture(autouse=True)
def _four_cpus(monkeypatch):
    """Give run_sweep four CPUs, so that grids with jobs 2 to 4 are pooled
    on any host; tests of the CPU cap patch it again."""
    monkeypatch.setattr("padlab.cli._cpus", lambda: 4)


def _spawn_spy(monkeypatch) -> list[int]:
    """Record the max_workers of each pool as it starts a worker process."""
    spawned = []
    spawn = ProcessPoolExecutor._spawn_process

    def spy(pool):
        spawned.append(pool._max_workers)
        spawn(pool)

    monkeypatch.setattr(ProcessPoolExecutor, "_spawn_process", spy)
    return spawned


# a holding corollary3 point whose sides have 4473 digits, more than the
# 4300 that Python (>= 3.10.7) converts between int and str by default
BIG_SIDES = {"p": 5, "a": 0, "t": 0, "k": 15005, "s0": 2, "kk": 3200, "x": 1}


def _int_str_digits():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


class TestRunCheck:
    def test_library_call_checks_sides_of_any_length(self):
        # run_check lifts the digit limit around the checker and restores it
        limit = _int_str_digits()
        rep = run_check("corollary3", BIG_SIDES)
        assert rep.status == "held" and len(rep.lhs) == 4473
        assert _int_str_digits() == limit

    def test_kummer_dispatch(self):
        rep = run_check("kummer", {"p": 5, "a": 0, "r": 2, "s": 6})
        assert rep.holds and rep.error is None

    def test_invalid_math_becomes_errored_report(self):
        rep = run_check("lemma2", {"p": 5, "a": 1, "rr": 1, "kk": 4})
        assert rep.error is not None and "must not divide" in rep.error
        assert not rep.holds

    def test_theorem1_dispatch(self):
        assert run_check("theorem1", {"p": 5, "a": 0, "t": 0, "k": 10}).holds

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown checker"):
            run_check("lemma9", {})

    def test_unknown_parameter_raises(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            run_check("kummer", {"p": 5, "a": 0, "r": 2, "s": 6, "zz": 1})

    def test_missing_parameter_raises(self):
        with pytest.raises(ValueError, match="missing parameters"):
            run_check("kummer", {"p": 5})

    @pytest.mark.parametrize(
        "name, args, error",
        [
            ("corollary2", {"p": 9, "a": 0, "t": 0, "b": 6}, "9 is not an odd prime"),
            ("corollary2", {"p": 5, "a": 0, "t": -1, "b": 6}, "a and t must be nonnegative"),
            ("corollary2", {"p": 5, "a": 0, "t": 0, "b": 0}, "b must be a positive integer"),
            ("case1", {"p": 5, "a": 0, "r": 2}, "a must be a positive integer"),
            ("case1", {"p": 5, "a": 1, "r": 3}, "r must be even and positive, got 3"),
            ("kummer", {"p": 9, "a": 0, "r": 2, "s": 2}, "9 is not an odd prime"),
            ("kummer", {"p": 5, "a": -1, "r": 2, "s": 6}, "a must be nonnegative"),
            ("lemma2", {"p": 9, "a": 1, "rr": 1, "kk": 9}, "9 is not an odd prime"),
            ("lemma2", {"p": 5, "a": 0, "rr": 1, "kk": 5}, "a must be a positive integer"),
            ("lemma2", {"p": 5, "a": 1, "rr": 0, "kk": 5}, "rr must be a positive integer"),
        ],
    )
    def test_hypothesis_error_text(self, name, args, error):
        rep = run_check(name, args)
        assert rep.status == "errored" and rep.error == error

    def test_elapsed_ms_is_timed_at_dispatch(self, monkeypatch):
        # a clock that advances 5 ms per read: every report, errored ones
        # included, carries the one interval run_check measured
        ticks = itertools.count(0, 5_000_000)
        monkeypatch.setattr("padlab.cli.time", SimpleNamespace(perf_counter_ns=lambda: next(ticks)))
        held = run_check("kummer", {"p": 5, "a": 0, "r": 2, "s": 6})
        failed = run_check("lemma1", {"p": 5, "a": 1, "r": 2})
        errored = run_check("lemma2", {"p": 5, "a": 1, "rr": 1, "kk": 4})
        assert held.holds and not failed.holds and failed.error is None and errored.error
        assert [r.elapsed_ms for r in (held, failed, errored)] == [5, 5, 5]

    def test_library_calls_read_no_clock(self, monkeypatch):
        # checkers are pure: even while the clock moves 5 ms per read, a direct
        # call (case1 with its nested kummer calls) reports elapsed_ms = 0
        ticks = itertools.count(0, 0.005)
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
        first, second = case1_step_check(5, 1, 2), case1_step_check(5, 1, 2)
        assert first == second and first.elapsed_ms == 0

    def test_every_registered_checker_has_a_working_point(self, capsys):
        assert set(POINTS) == set(REGISTRY)
        for name, args in POINTS.items():
            rep = run_check(name, args)
            assert rep.error is None and rep.holds, (name, rep.error)
            # the same point as a subcommand: each flag is a parameter name
            argv = [name]
            for param, value in args.items():
                argv += [f"--{param}", str(value)]
            assert main(argv) == 0, argv
            assert json.loads(capsys.readouterr().out)["holds"] is True

    def test_registry_calls_checker_through_its_module(self, monkeypatch):
        # the registry looks each checker up on its module per call, so a
        # rebound attribute (the benchmark tracer's wrapper) is what runs
        for name, spec in REGISTRY.items():
            original = getattr(spec.module, spec.fn)
            calls = []

            def recording(*args, _original=original, **kwargs):
                calls.append(args)
                return _original(*args, **kwargs)

            expected = canonical_body(run_check(name, POINTS[name]).to_json_dict())
            monkeypatch.setattr(spec.module, spec.fn, recording)
            report = run_check(name, POINTS[name])
            monkeypatch.undo()
            assert len(calls) == 1, name
            assert canonical_body(report.to_json_dict()) == expected, name


class TestRegistryContract:
    def test_parameters_read_off_the_code_object_are_the_signatures(self):
        # inspect is imported by this test only: the registry reads
        # __code__ and __defaults__, which must give what the signature says
        assert _PS_FIELDS == tuple(inspect.signature(ParameterSet).parameters) == ("p", "a", "t", "k")
        for name, spec in REGISTRY.items():
            sig = inspect.signature(getattr(spec.module, spec.fn)).parameters.values()
            assert {q.kind for q in sig} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}, name
            required = tuple(q.name for q in sig if q.default is q.empty)
            optional = tuple(q.name for q in sig if q.default is not q.empty)
            params = (*_PS_FIELDS, *required[1:]) if required[:1] == ("ps",) else required
            assert (spec.params, spec.optional) == (params, optional), name

    def test_defaulted_parameters_are_optional(self):
        spec = CheckerSpec(SimpleNamespace(check=lambda ps, j, v=None, w=0: None), "check")
        assert (spec.params, spec.optional) == (("p", "a", "t", "k", "j"), ("v", "w"))
        spec = CheckerSpec(SimpleNamespace(check=lambda n, ps=None: None), "check")
        assert (spec.params, spec.optional) == (("n",), ("ps",))

    @pytest.mark.parametrize(
        "fn",
        [lambda p, *rest: None, lambda p, *, q: None, lambda p, *, q=1: None, lambda p, **kw: None, lambda p, /, q: None],
        ids=["varargs", "keyword-only", "keyword-only-defaulted", "varkw", "positional-only"],
    )
    def test_unbindable_parameters_raise_at_registration(self, fn):
        with pytest.raises(TypeError, match="positional-or-keyword"):
            CheckerSpec(SimpleNamespace(check=fn), "check")


class TestReportValues:
    def test_two_direct_calls_give_equal_reports(self):
        for name, args in POINTS.items():
            first, second = REGISTRY[name].run(dict(args)), REGISTRY[name].run(dict(args))
            assert first is not second and first == second, name
            second.elapsed_ms += 1
            assert first != second, name

    def test_reports_survive_a_pickle_round_trip(self):
        held = run_check("theorem3", POINTS["theorem3"])
        errored = run_check("lemma2", {"p": 5, "a": 1, "rr": 1, "kk": 4})
        assert (held.status, errored.status) == ("held", "errored")
        for rep in (held, errored):
            back = pickle.loads(pickle.dumps(rep))
            assert back is not rep and back == rep and back.to_json_dict() == rep.to_json_dict()


class TestReportJson:
    def test_big_integers_render_as_strings(self):
        rep = run_check("kummer", {"p": 5, "a": 0, "r": 2, "s": 6})
        d = rep.to_json_dict()
        assert d["inputs"] == {"p": "5", "a": "0", "r": "2", "s": "6"}
        assert d["modulus"] == {"p": "5", "exp": 1}
        assert isinstance(d["lhs"], str) and isinstance(d["rhs"], str)
        assert d["holds"] is True
        json.dumps(d)  # round-trips

    def test_errored_report_shape(self):
        d = run_check("lemma2", {"p": 5, "a": 1, "rr": 1, "kk": 4}).to_json_dict()
        assert d["error"] and d["holds"] is False and d["modulus"] is None


KUMMER_GRID = {
    "checks": [
        {"name": "kummer", "grid": {"p": [5], "a": [0], "r": [2], "s": [6, 26, 46]}}
    ]
}
# 40 holding points: a jobs-2 pool sends them in chunks of 40 // 16 = 2
VSC_40 = {"name": "von_staudt_clausen", "grid": {"n": list(range(2, 82, 2))}}
ROOT = Path(__file__).resolve().parents[1]
SWEEP_CONFIGS = {
    "kummer-grid": lambda: {"checks": [{"name": "kummer", "grid": {"p": [5, 7], "a": [0, 1], "r": [2, 6], "s": [26, 46]}}]},
    "acceptance-sweep": lambda: json.loads((ROOT / "configs" / "acceptance_sweep.json").read_text()),
    "heavy-sweep": lambda: json.loads((ROOT / "configs" / "heavy_sweep.json").read_text()),
    # the benchmark's region-map config: 10488 points from all 17 checkers
    "region-map-seed-7": lambda: _load_workloads().WORKLOADS["region-map"].config(7),
}


class TestSweep:
    def test_kummer_grid(self):
        sweep = SweepReport.collect(SweepConfig.from_dict(KUMMER_GRID))
        assert sweep.summary == {"total": 3, "held": 3, "failed": 0, "errored": 0}
        assert sweep.exit_code() == 0

    def test_empty_config(self):
        sweep = SweepReport.collect(SweepConfig.from_dict({"checks": []}))
        assert sweep.summary == {"total": 0, "held": 0, "failed": 0, "errored": 0}

    def test_invalid_point_isolated(self):
        cfg = SweepConfig.from_dict(
            {"checks": [{"name": "lemma2", "grid": {"p": [5], "a": [1], "rr": [1], "kk": [4, 5, 10]}}]}
        )
        sweep = SweepReport.collect(cfg)
        assert sweep.summary == {"total": 3, "held": 2, "failed": 0, "errored": 1}
        assert sweep.exit_code() == 2

    def test_serial_sweep_grows_table_only_for_points_that_read_it(self, monkeypatch, tmp_path):
        # k = 15 fails 2p | k, so both case2 points error before they would
        # read B_575; neither a serial nor a pooled sweep may grow a table
        # for them.  The spy is set on the class, so forked pool workers
        # inherit it and report their growth through a file.
        _fork_pool(monkeypatch)
        log = tmp_path / "grow.log"
        grow = BernoulliTable.grow

        def spy(table, n):
            if n >= len(table):
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(f"{n}\n")
            grow(table, n)

        monkeypatch.setattr(BernoulliTable, "grow", spy)
        errored = {"name": "case2", "grid": {"p": [5], "a": [0], "t": [2], "k": [15], "b": [2, 3]}}
        for jobs in (1, 2):
            monkeypatch.setattr(bernoulli_module, "_TABLE", BernoulliTable())
            sweep = SweepReport.collect(SweepConfig.from_dict({"checks": [errored], "jobs": jobs}))
            assert sweep.summary["errored"] == 2
            assert not log.exists(), jobs
        # positive control: a pooled kummer point grows its worker's table
        # to B_2 and B_6 while the parent's table stays as it was
        kummer = {"name": "kummer", "grid": {"p": [5], "a": [0], "r": [2], "s": [6]}}
        sweep = SweepReport.collect(SweepConfig.from_dict({"checks": [errored, kummer], "jobs": 2}))
        assert sweep.summary == {"total": 3, "held": 1, "failed": 0, "errored": 2}
        assert log.read_text() == "2\n6\n"
        assert len(bernoulli_module._TABLE) == 2

    def test_pool_starts_no_more_workers_than_points(self, monkeypatch):
        # a fork pool starts max_workers processes at once, however few points
        spawned = _spawn_spy(monkeypatch)
        monkeypatch.setattr("padlab.cli._cpus", lambda: 8)
        one = {"checks": [{"name": "kummer", "grid": {"p": [5], "a": [0], "r": [2], "s": [6]}}], "jobs": 4}
        sweep = SweepReport.collect(SweepConfig.from_dict(one))
        assert spawned == [] and sweep.summary["held"] == 1
        assert sweep.config["jobs"] == 4
        three = {**KUMMER_GRID, "jobs": 4}
        sweep = SweepReport.collect(SweepConfig.from_dict(three))
        assert sweep.summary["held"] == 3 and sweep.config["jobs"] == 4
        # fork, the default start method on Linux, starts all three at once
        assert spawned == [3] * len(spawned) and 1 <= len(spawned) <= 3

    def test_pool_starts_no_more_workers_than_cpus(self, monkeypatch):
        # so --jobs 100000 cannot fork 10^5 processes; the echoed jobs stays
        spawned = _spawn_spy(monkeypatch)
        monkeypatch.setattr("padlab.cli._cpus", lambda: 2)
        sweep = SweepReport.collect(SweepConfig.from_dict({**KUMMER_GRID, "jobs": 100_000}))
        assert sweep.summary["held"] == 3 and sweep.config["jobs"] == 100_000
        assert spawned == [2] * len(spawned) and 1 <= len(spawned) <= 2
        monkeypatch.setattr("padlab.cli._cpus", lambda: 1)
        sweep = SweepReport.collect(SweepConfig.from_dict({**KUMMER_GRID, "jobs": 100_000}))
        assert sweep.summary["held"] == 3 and len(spawned) <= 2

    def test_cpus_are_the_affinity_set_else_the_cpu_count(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert _cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _cpus() == 1

    def test_sweep_yields_each_report_as_it_runs(self, monkeypatch):
        calls = []
        monkeypatch.setattr("padlab.cli.run_check", lambda *a: calls.append(a) or run_check(*a))
        reports = run_sweep(SweepConfig.from_dict(KUMMER_GRID))
        assert calls == []
        assert next(reports).status == "held" and len(calls) == 1
        reports.close()

    def test_closing_a_pooled_sweep_cancels_the_chunks_not_started(self, monkeypatch, tmp_path):
        # 800 points of 1 ms in 16 chunks of 50: closing the generator after
        # the first report waits only for the few chunks a worker has taken
        _fork_pool(monkeypatch)
        log = tmp_path / "runs.log"

        def slow(name, args):
            time.sleep(0.001)
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(".")
            return run_check(name, args)

        monkeypatch.setattr("padlab.cli.run_check", slow)
        grid = {k: [v] for k, v in POINTS["lemma4"].items()} | {"n": list(range(1, 801))}
        reports = run_sweep(SweepConfig.from_dict({"checks": [{"name": "lemma4", "grid": grid}], "jobs": 2}))
        next(reports)
        reports.close()
        assert multiprocessing.active_children() == []
        assert len(log.read_text()) <= 400

    @pytest.mark.parametrize("name, jobs", [("acceptance-sweep", 1), ("region-map-seed-7", 2), ("empty", 1)])
    def test_streamed_file_is_the_whole_sweep_dumped(self, monkeypatch, tmp_path, capsys, name, jobs):
        # one list of reports, streamed by main and dumped whole as before
        raw = {"checks": []} if name == "empty" else SWEEP_CONFIGS[name]()
        config = SweepConfig.from_dict({**raw, "jobs": jobs})
        reports = list(run_sweep(config))
        statuses = [r.status for r in reports]
        whole = {
            "tool": "padlab",
            "version": padlab.__version__,
            "config": {"checks": config.checks, "jobs": jobs},
            "reports": [r.to_json_dict() for r in reports],
            "summary": {"total": len(reports), **{s: statuses.count(s) for s in ("held", "failed", "errored")}},
        }
        expected = json.dumps(whole, sort_keys=True) + "\n"
        assert json.dumps(SweepReport(whole["config"], reports).to_json_dict(), sort_keys=True) + "\n" == expected
        cfg, out_path = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg.write_text(json.dumps({**raw, "jobs": jobs}))
        monkeypatch.setattr("padlab.cli.run_sweep", lambda config: (r for r in reports))
        main(["sweep", "--config", str(cfg), "--out", str(out_path)])
        assert out_path.read_text() == expected
        if name == "empty":
            assert '"reports": []' in expected

    def test_failed_point_gives_exit_1(self):
        cfg = SweepConfig.from_dict(
            {"checks": [{"name": "lemma1", "grid": {"p": [5], "a": [1], "r": [2, 4]}}]}
        )
        sweep = SweepReport.collect(cfg)
        assert sweep.summary["failed"] == 1
        assert sweep.exit_code() == 1

    def test_ordering_is_lexicographic_in_sorted_params(self):
        cfg = SweepConfig.from_dict(
            {"checks": [{"name": "kummer", "grid": {"p": [5, 7], "a": [0], "r": [2], "s": [6, 26]}}]}
        )
        points = list(grid_points(cfg))
        # sorted keys: a, p, r, s; p varies slower than s
        assert [(pt[1]["p"], pt[1]["s"]) for pt in points] == [(5, 6), (5, 26), (7, 6), (7, 26)]

    def test_determinism_canon(self):
        one = SweepReport.collect(SweepConfig.from_dict(KUMMER_GRID)).to_json_dict()
        two = SweepReport.collect(SweepConfig.from_dict(KUMMER_GRID)).to_json_dict()
        assert json.dumps(canonical_body(one), sort_keys=True) == json.dumps(
            canonical_body(two), sort_keys=True
        )

    @pytest.mark.parametrize("name", SWEEP_CONFIGS)
    def test_parallel_matches_serial(self, name):
        cfg = SWEEP_CONFIGS[name]()
        serial, pooled = SweepConfig.from_dict(cfg), SweepConfig.from_dict(cfg)
        serial.jobs, pooled.jobs = 1, 2
        body = canonical_body(SweepReport.collect(serial).to_json_dict())
        assert body == canonical_body(SweepReport.collect(pooled).to_json_dict())
        if name == "region-map-seed-7":
            # chunks of 10488 // 16 = 655 points
            assert body["summary"]["total"] == 10488

    def test_pool_map_is_chunked(self, monkeypatch):
        # one IPC round trip per chunk of max(1, points // (8 * workers)) points
        chunksizes = []
        pool_map = ProcessPoolExecutor.map

        def spy(pool, fn, *iterables, **kwargs):
            chunksizes.append(kwargs.get("chunksize", 1))
            return pool_map(pool, fn, *iterables, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "map", spy)
        sweep = SweepReport.collect(SweepConfig.from_dict({"checks": [VSC_40], "jobs": 2}))
        assert sweep.summary["held"] == 40
        sweep = SweepReport.collect(SweepConfig.from_dict({**KUMMER_GRID, "jobs": 2}))
        assert sweep.summary["held"] == 3
        assert chunksizes == [2, 1]

    @pytest.mark.parametrize("exc", [RecursionError, MemoryError])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resource_error_becomes_errored_report(self, monkeypatch, exc, jobs):
        # one point of a 40-point grid raises; it becomes an errored report
        # and the rest of its pool chunk survives.  Forked workers inherit
        # the patched module attribute.
        _fork_pool(monkeypatch)
        failing = {"name": "lemma1", "grid": {"p": [5], "a": [1], "r": [2]}}
        configs = [({"checks": [VSC_40], "jobs": jobs}, 2), ({"checks": [VSC_40, failing], "jobs": jobs}, 1)]
        expected = [canonical_body(SweepReport.collect(SweepConfig.from_dict(cfg)).to_json_dict()) for cfg, _ in configs]
        original = bernoulli_module.von_staudt_clausen_check

        def raising(n):
            if n == 40:
                raise exc("injected at n = 40")
            return original(n)

        monkeypatch.setattr(bernoulli_module, "von_staudt_clausen_check", raising)
        for (cfg, code), clean in zip(configs, expected):
            sweep = SweepReport.collect(SweepConfig.from_dict(cfg))
            reports = canonical_body(sweep.to_json_dict())["reports"]
            errored = [i for i, r in enumerate(reports) if r["error"] is not None]
            assert errored == [19]
            assert reports[19]["error"] == "injected at n = 40" and reports[19]["holds"] is False
            assert reports[:19] + reports[20:] == clean["reports"][:19] + clean["reports"][20:]
            assert sweep.exit_code() == code

    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_verdicts_do_not_depend_on_start_method(self, monkeypatch, method):
        # only fork copies the parent's int <-> str digit limit into a worker,
        # so a spawn or forkserver pool shows whether run_check lifts it itself
        grid = {k: [v] for k, v in BIG_SIDES.items()} | {"s0": [2, 3]}
        raw = {"checks": [{"name": "corollary3", "grid": grid}], "jobs": 2}
        serial = canonical_body(SweepReport.collect(SweepConfig.from_dict({**raw, "jobs": 1})).to_json_dict())
        context = multiprocessing.get_context(method)
        pool = functools.partial(ProcessPoolExecutor, mp_context=context)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        sweep = SweepReport.collect(SweepConfig.from_dict(raw))
        assert sweep.summary == {"total": 2, "held": 2, "failed": 0, "errored": 0}
        assert canonical_body(sweep.to_json_dict()) == serial

    def test_heavy_sweep_config(self):
        # power sums over 10^6 or more terms, and corollary2 at (11,2,1),
        # (11,2,2) and (7,2,2); the summary pins every verdict
        raw = json.loads((Path(__file__).resolve().parents[1] / "configs" / "heavy_sweep.json").read_text())
        sweep = SweepReport.collect(SweepConfig.from_dict(raw))
        assert sweep.summary == {"total": 10, "held": 10, "failed": 0, "errored": 0}
        assert [r.margin for r in sweep.reports] == [0, 0, 0, 0, 1, 8, 8, 3, 4, 4]
        assert [r.details["sum_valuation"] for r in sweep.reports[-3:]] == [12, 14, 14]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="unknown checker"):
            SweepConfig.from_dict({"checks": [{"name": "nope", "grid": {"p": [5]}}]})
        with pytest.raises(ValueError, match=r"unknown parameters for 'kummer': \['q'\]"):
            SweepConfig.from_dict({"checks": [{"name": "kummer", "grid": {"p": [5], "a": [0], "r": [2], "s": [6], "q": [1]}}]})
        with pytest.raises(ValueError, match=r"missing parameters for 'kummer': \['a', 'r', 's'\]"):
            SweepConfig.from_dict({"checks": [{"name": "kummer", "grid": {"p": [5]}}]})
        with pytest.raises(ValueError, match="'checks' must be a list"):
            SweepConfig.from_dict({"checks": {}})
        for grid in (None, {}, [["p", [5]]]):
            with pytest.raises(ValueError, match="check 'kummer' needs a nonempty 'grid' object"):
                SweepConfig.from_dict({"checks": [{"name": "kummer", "grid": grid}]})
        for values in ([], 5, None):
            grid = {"p": [5], "a": [0], "r": values, "s": [6]}
            with pytest.raises(ValueError, match=r"grid entry kummer\.r must be a nonempty list"):
                SweepConfig.from_dict({"checks": [{"name": "kummer", "grid": grid}]})
        with pytest.raises(ValueError, match="checks"):
            SweepConfig.from_dict({})
        with pytest.raises(ValueError, match="must be an object"):
            SweepConfig.from_dict({"checks": [5]})
        for name in (5, ["kummer"], None):
            with pytest.raises(ValueError, match="unknown checker"):
                SweepConfig.from_dict({"checks": [{"name": name, "grid": {"p": [5]}}]})
        for bad in ("5", 5.0, True, False, None):
            grid = {"p": [5, bad], "a": [0], "r": [2], "s": [6]}
            with pytest.raises(ValueError, match="must list integers"):
                SweepConfig.from_dict({"checks": [{"name": "kummer", "grid": grid}]})
        for jobs in (-3, 0, True, False, 2.0, "2", None):
            with pytest.raises(ValueError, match="jobs"):
                SweepConfig.from_dict({"checks": [], "jobs": jobs})
        with pytest.raises(ValueError, match=r"unknown sweep config keys: \['jbos'\]"):
            SweepConfig.from_dict({"checks": [], "jbos": 4})
        grid = {"p": [5], "a": [0], "r": [2], "s": [6]}
        with pytest.raises(ValueError, match=r"unknown keys in check 'kummer': \['grdi'\]"):
            SweepConfig.from_dict({"checks": [{"name": "kummer", "grid": grid, "grdi": {}}]})
        assert SweepConfig.from_dict({"checks": [], "jobs": 3}).jobs == 3


class TestMain:
    def test_single_check_holds(self, capsys):
        code = main(["kummer", "--p", "5", "--a", "0", "--r", "2", "--s", "6"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["holds"] is True

    def test_single_check_fails(self, capsys):
        code = main(["lemma1", "--p", "5", "--a", "1", "--r", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1 and out["holds"] is False
        assert out["lhs"] == "55" and out["rhs"] == "105"

    def test_single_check_invalid(self, capsys):
        code = main(["lemma2", "--p", "5", "--a", "1", "--rr", "1", "--k", "4"])
        out = json.loads(capsys.readouterr().out)
        assert code == 2 and out["error"]

    def test_single_check_prints_sides_of_any_length(self, capsys):
        limit = _int_str_digits()
        code = main(["corollary3", *(f"--{k}={v}" for k, v in BIG_SIDES.items())])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["holds"] is True and out["margin"] == 0
        assert out["error"] is None and len(out["lhs"]) == 4473
        assert _int_str_digits() == limit

    def test_pooled_sweep_prints_sides_of_any_length(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out_path = tmp_path / "report.json"
        grid = {k: [v] for k, v in BIG_SIDES.items()} | {"x": [1, 2]}
        cfg.write_text(json.dumps({"checks": [{"name": "corollary3", "grid": grid}], "jobs": 2}))
        assert main(["sweep", "--config", str(cfg), "--out", str(out_path)]) == 0
        body = json.loads(out_path.read_text())
        assert body["summary"] == {"total": 2, "held": 2, "failed": 0, "errored": 0}
        assert [r["margin"] for r in body["reports"]] == [0, 0]

    @pytest.mark.skipif(_int_str_digits() is None, reason="Python < 3.10.7 has no digit limit")
    def test_inputs_keep_the_digit_limit(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"checks": [{"name": "adams", "grid": {"r": [6], "p": [' + "7" * 5000 + "]}}]}")
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
        assert code == 2 and "limit" in json.loads(capsys.readouterr().err)["error"]

    def test_lemma2_kk_flag_and_its_abbreviation(self):
        # every flag is its parameter's name; argparse also takes --k, the
        # unambiguous abbreviation of --kk, which lemma2 once required
        for flag in ("--kk", "--k"):
            args = build_parser().parse_args(["lemma2", "--p", "5", "--a", "1", "--rr", "1", flag, "5"])
            assert args.kk == 5, flag

    def test_corollary2_optional_v(self, capsys):
        code = main(["corollary2", "--p", "5", "--a", "0", "--t", "0", "--b", "6", "--v", "0"])
        assert code == 0
        code = main(["corollary2", "--p", "5", "--a", "0", "--t", "0", "--b", "6"])
        assert code == 0

    def test_bernoulli_output(self, capsys):
        assert main(["bernoulli", "--n", "12"]) == 0
        assert capsys.readouterr().out.strip() == "-691/2730"
        assert main(["bernoulli", "--n", "0"]) == 0
        assert capsys.readouterr().out.strip() == "1/1"

    def test_stabilizer_output(self, capsys):
        # theorem3 reports the stabilizer's order as lhs and its generator
        code = main(["theorem3", "--p", "5", "--a", "0", "--t", "0", "--k", "10"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["lhs"] == "2" and out["details"]["generator"] == "24"

    def test_balance_output(self, capsys):
        code = main(["balance", "--p", "5", "--a", "1", "--t", "1", "--k", "125", "--j", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["details"]["balanced"] is True

    def test_balance_invalid_input_is_errored_report(self, capsys):
        # a j outside 1 <= j < M, or a p that is not an odd prime, is
        # rejected inside the checker: an errored report on stdout, exit 2
        for argv in ("balance --p 5 --a 1 --t 1 --k 125 --j 0", "balance --p 4 --a 0 --t 0 --k 4 --j 1"):
            code = main(argv.split())
            captured = capsys.readouterr()
            out = json.loads(captured.out)
            assert code == 2 and captured.err == "", argv
            assert out["name"] == "balance" and out["error"] and out["holds"] is False, argv

    def test_sweep_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out_path = tmp_path / "report.json"
        cfg.write_text(json.dumps(KUMMER_GRID))
        code = main(["sweep", "--config", str(cfg), "--out", str(out_path)])
        assert code == 0
        body = json.loads(out_path.read_text())
        assert body["summary"]["held"] == 3
        assert body["tool"] == "padlab"
        assert [r["name"] for r in body["reports"]] == ["kummer"] * 3

    def test_pooled_sweep_joins_its_workers(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": [VSC_40]}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.json"), "--jobs", "2"]) == 0
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_sweep_write_error_exits_2_and_stops_the_pool(self, tmp_path, capsys):
        # 400 reports pass the write buffer, so the write fails mid-sweep
        cfg = tmp_path / "cfg.json"
        grid = {k: [v] for k, v in POINTS["lemma4"].items()} | {"n": list(range(1, 401))}
        cfg.write_text(json.dumps({"checks": [{"name": "lemma4", "grid": grid}], "jobs": 2}))
        code = main(["sweep", "--config", str(cfg), "--out", "/dev/full"])
        assert code == 2 and "No space left" in json.loads(capsys.readouterr().err)["error"]
        assert multiprocessing.active_children() == []

    def test_sweep_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
        assert code == 2

    @pytest.mark.parametrize(
        "raw, extra",
        [
            ({"checks": [5]}, []),
            ({"checks": [{"name": "kummer", "grid": {"p": [5], "a": [0], "r": ["2"], "s": [6]}}]}, []),
            ({"checks": [{"name": "kummer", "grid": {"p": [5], "a": [0], "r": [2.0], "s": [6]}}]}, []),
            ({"checks": [], "jobs": -3}, []),
            ({"checks": [], "jobs": True}, []),
            (KUMMER_GRID, ["--jobs", "0"]),
            ({**KUMMER_GRID, "jbos": 4}, []),
            ({"checks": [{**KUMMER_GRID["checks"][0], "grdi": {"p": [7]}}]}, []),
        ],
    )
    def test_sweep_malformed_config_exits_2(self, tmp_path, capsys, raw, extra):
        cfg = tmp_path / "cfg.json"
        out_path = tmp_path / "o.json"
        cfg.write_text(json.dumps(raw))
        code = main(["sweep", "--config", str(cfg), "--out", str(out_path)] + extra)
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]
        assert not out_path.exists()

    def test_sweep_unwritable_out_runs_no_checks(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(KUMMER_GRID))
        calls = []
        monkeypatch.setattr("padlab.cli.run_check", lambda *a: calls.append(a) or run_check(*a))
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "missing" / "o.json")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]
        assert calls == []

    @pytest.mark.parametrize(
        "argv",
        [
            "bernoulli --n -1",
        ],
    )
    def test_non_checker_command_invalid_exits_2(self, capsys, argv):
        code = main(argv.split())
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert json.loads(captured.err)["error"]


def _exits(capsys, parse, argv) -> tuple:
    """(exit code, stdout, stderr) of parse(argv), which must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestCliSurface:
    """main builds only the subparser its command names; what it prints and
    how it exits must be what the parser with every subcommand gives."""

    @pytest.mark.parametrize("argv", [["--help"], *([name, "--help"] for name in [*REGISTRY, "sweep", "bernoulli"])], ids=" ".join)
    def test_help_is_the_full_parsers(self, capsys, argv):
        full = _exits(capsys, build_parser().parse_args, argv)
        assert full[0] == 0 and full[1].startswith("usage: padlab") and full[2] == ""
        assert _exits(capsys, main, argv) == full

    @pytest.mark.parametrize(
        "argv",
        [
            "",
            "stabilizer",
            "kumm --p 5 --a 0 --r 2 --s 6",
            "kummer --p 5",
            "kummer --p 5 --a 0 --r 2 --s x",
            "kummer --p 5 --a 0 --r 2 --s 6 --zz 1",
            "kummer --p 5 --a 0 --r 2 --s 6 extra",
            "sweep --config c.json",
            "bernoulli",
        ],
    )
    def test_usage_errors_exit_2_as_the_full_parser_does(self, capsys, argv):
        full = _exits(capsys, build_parser().parse_args, argv.split())
        assert full[0] == 2 and full[1] == "" and "error:" in full[2]
        assert _exits(capsys, main, argv.split()) == full

    def test_main_builds_only_the_subparser_it_runs(self, monkeypatch, tmp_path, capsys):
        built = []
        add_parser = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            built.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        assert main(["kummer", "--p", "5", "--a", "0", "--r", "2", "--s", "6"]) == 0
        assert built == ["kummer"]
        built.clear()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(KUMMER_GRID))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.json")]) == 0
        assert built == ["sweep"]
        built.clear()
        build_parser()
        assert built == [*REGISTRY, "bernoulli", "sweep"]


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_examples() -> list[tuple[str, str]]:
    """(command, comment) for each ``padlab`` line of the README's CLI block,
    with every ``[optional]`` part both left out and spelled in."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?```sh\n(.*?)```", text, re.S | re.M).group(1)
    out = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if not command.startswith("padlab "):
            continue
        bare = re.sub(r"\s*\[[^]]*\]", "", command).strip()
        full = re.sub(r"\[([^]]*)\]", r"\1", command).strip()
        out += [(bare, comment)] + ([(full, comment)] if full != bare else [])
    return out


def _readme_argv(command: str, out_dir: Path) -> list[str]:
    """A README example's arguments, its config read from the repository
    and its --out written under out_dir."""
    argv = shlex.split(command)[1:]
    for flag, path in (("--config", README.parent), ("--out", out_dir)):
        if flag in argv:
            i = argv.index(flag) + 1
            argv[i] = str(path / argv[i])
    return argv


class TestReadme:
    def test_cli_examples_exit_as_documented(self, tmp_path, capsys):
        examples = readme_cli_examples()
        assert len(examples) >= 20
        for command, comment in examples:
            code = main(_readme_argv(command, tmp_path))
            stdout = capsys.readouterr().out
            assert code == (1 if "exits 1" in comment else 0), command
            if "->" in comment:
                assert stdout.strip() == comment.split("->")[1].strip(), command

    def test_cli_examples_print_their_recorded_output(self, tmp_path, capsys):
        # readme_cli_stdout.json holds each example's exit code and stdout as
        # padlab printed them when its value types were dataclasses and its
        # parser held every subcommand; elapsed_ms reads 0 and the --out
        # directory {tmp}
        recorded = json.loads((README.parent / "tests" / "readme_cli_stdout.json").read_text(encoding="utf-8"))
        assert [r["command"] for r in recorded] == [command for command, _ in readme_cli_examples()]
        for r in recorded:
            code = main(_readme_argv(r["command"], tmp_path))
            stdout = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', capsys.readouterr().out)
            assert (code, stdout.replace(str(tmp_path), "{tmp}")) == (r["exit_code"], r["stdout"]), r["command"]


def test_cli_import_is_lean():
    # serial runs never import the process pool, and the package namespace
    # does not shadow its submodules with their functions
    code = (
        "import sys, padlab.cli\n"
        "assert 'concurrent.futures.process' not in sys.modules\n"
        "import padlab.bernoulli as m\n"
        "m.BernoulliTable\n"
    )
    src = str(Path(padlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def _new_modules(statement: str) -> set[str]:
    """The modules that `statement` adds to sys.modules in a fresh
    interpreter without site, so no .pth hook of the environment has
    loaded any of them beforehand."""
    code = f"import sys\nbefore = set(sys.modules)\n{statement}\nprint(*sorted(set(sys.modules) - before))"
    env = {**os.environ, "PYTHONPATH": str(Path(padlab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-S", "-c", code], check=True, env=env, capture_output=True, text=True)
    return set(proc.stdout.split())


def test_cli_import_loads_only_padlab_and_argparse_json_fractions():
    # the cold start of every CLI call and sweep process: padlab's own
    # modules, plus what its three stdlib needs load themselves
    loaded = _new_modules("import padlab.cli")
    assert {"padlab.cli", "padlab.spectrum", "argparse", "json", "fractions"} <= loaded
    assert not {"inspect", "dataclasses", "concurrent.futures", "__future__"} & loaded
    own = {m for m in loaded if m == "padlab" or m.startswith("padlab.")}
    assert loaded - own <= _new_modules("import argparse, json, fractions")


def test_over_nested_config_exits_2(tmp_path):
    # json.load raises RecursionError on this; the real process exit code
    # is pinned, so the error cannot escape main as a traceback (exit 1)
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 100_000)
    out_path = tmp_path / "o.json"
    src = str(Path(padlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "padlab.cli", "sweep", "--config", str(cfg), "--out", str(out_path)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"]
    assert not out_path.exists()
