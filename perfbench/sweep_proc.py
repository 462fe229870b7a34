"""Run one padlab CLI command in this process, as the ``padlab`` console
script does (``sys.exit(padlab.cli.main(argv))``), and record timestamps.

    python3 sweep_proc.py MARKS [--trace SPANS] -- <padlab arguments>

MARKS receives a JSON object with ``import_s`` (the cost of
``import padlab.cli``), ``setup_end`` (the CLOCK_MONOTONIC time at which
``run_sweep`` was entered: the config is loaded and validated, Bernoulli
prewarm has not started), ``main_end`` (when ``main`` returned) and
``peak_rss_kb`` (the largest resident set of this process and of the pool
workers it waited for).  The parent compares the times with the time it
spawned this process; on Linux ``time.monotonic`` reads the same clock in
every process.

With ``--trace``, the padlab modules are wrapped by spans.Tracer before
``main`` runs, and the spans are written to SPANS after it returns.
PYTHONPATH must point at the ``src`` directory under test.
"""

import json
import resource
import sys
import time


def _own_peak_rss_kb() -> int:
    """Peak resident set of this process since it was exec'd, in KiB.

    getrusage(RUSAGE_SELF) would also count the resident set of the
    benchmark process this one was spawned from, which Linux carries into
    ru_maxrss across exec; VmHWM covers only this program's memory.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    own, padlab_argv = argv[:split], argv[split + 1 :]
    marks_path = own[0]
    spans_path = own[2] if own[1:2] == ["--trace"] else None

    t0 = time.monotonic()
    from padlab import cli

    marks = {"import_s": time.monotonic() - t0}

    tracer = None
    if spans_path is not None:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    run_sweep = cli.run_sweep

    def marked_run_sweep(config):
        marks["setup_end"] = time.monotonic()
        return run_sweep(config)

    cli.run_sweep = marked_run_sweep
    code = cli.main(padlab_argv)
    marks["main_end"] = time.monotonic()
    marks["peak_rss_kb"] = max(_own_peak_rss_kb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    with open(marks_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    if tracer is not None:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
