"""Per-layer tracing of padlab from outside the program.

Tracer.install wraps the public functions of each padlab module in every
namespace that binds them (``cli.adams_check``, ``powersum.bernoulli``,
``congruence_suite.bernoulli`` ... as well as the defining module), so a
call is caught however the caller reached it.  Each call records a span
(name, parent span, start, end) in flat in-memory arrays; counts such as
loop lengths are summed at the same boundary.  Nothing is written until
``dump``, which the traced process calls once at exit.

summarize turns a dump into per-layer metrics.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# module -> public functions (and methods as "Class.method") to wrap.
# params is not listed: it has no hot path of its own, so its cost shows
# up in the self time of the checker or dispatcher that built the tuple.
TRACED: dict[str, tuple[str, ...]] = {
    "padic_core": ("reduce_rational", "vp", "vp_rational", "roots_of_unity", "primitive_root", "element_order"),
    "bernoulli": ("prewarm", "bernoulli", "adams_check", "von_staudt_clausen_check"),
    "powersum": ("power_sum_mod", "power_sum_exact", "lemma1_check", "lemma2_check"),
    "congruence_suite": (
        "kummer_check",
        "case1_step_check",
        "case2_check",
        "case3_branch_check",
        "theorem2_check",
        "corollary2_check",
    ),
    "spectrum": (
        "build_S",
        "build_S_x",
        "act",
        "stabilizer",
        "theorem1_check",
        "theorem3_check",
        "corollary1_check",
        "transport_check",
    ),
    "jet": ("derivative_mod", "derivative_valuation", "lemma5_count", "lemma4_check", "corollary3_check"),
    "report": ("integer_margin", "rational_margin", "CheckReport.to_json_dict"),
    "cli": ("run_check", "run_sweep", "SweepReport.to_json_dict", "_dump"),
}

# span names that differ from the attribute name
ALIASES = {"cli._dump": "cli.json_dump"}

# per-span counts: span name -> (metric suffix, how to count, reduction)
COUNTERS = {
    "powersum.power_sum_mod": ("terms", lambda args, out: args[0], sum),
    "powersum.power_sum_exact": ("terms", lambda args, out: args[0], sum),
    "spectrum.build_S": ("terms", lambda args, out: args[0].p ** (args[0].a + 1), sum),
    "spectrum.build_S_x": ("terms", lambda args, out: args[0].p ** args[0].a, sum),
    "spectrum.act": ("terms", lambda args, out: len(args[1].counts), sum),
    "spectrum.stabilizer": ("terms", lambda args, out: len(args[0].counts), sum),
    "bernoulli.prewarm": ("max_index", lambda args, out: args[0], max),
    "cli.json_dump": ("bytes", lambda args, out: len(out), sum),  # json.dumps output is ASCII
}

# the inclusive time of the whole sweep is reported instead of its self time
TOTALS = {"cli.run_sweep": "total_s"}


def span_names() -> list[str]:
    return [ALIASES.get(f"{mod}.{fn}", f"{mod}.{fn}") for mod, fns in TRACED.items() for fn in fns]


def metric_names() -> list[str]:
    """Every per-layer metric summarize reports, in a stable order."""
    out = []
    for name in span_names():
        if name in TOTALS:
            out.append(f"{name}.{TOTALS[name]}")
            continue
        out += [f"{name}.calls", f"{name}.self_s"]
        if name in COUNTERS:
            out.append(f"{name}.{COUNTERS[name][0]}")
    return out


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.parent = array("i")
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {}
        self._stack = [-1]

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "padlab" or key.startswith("padlab.")]
        nid = 0
        for mod, fns in TRACED.items():
            home = sys.modules[f"padlab.{mod}"]
            for fn in fns:
                name = self.names[nid]
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self._wrap(nid, name, getattr(cls, meth)))
                else:
                    original = getattr(home, fn)
                    wrapped = self._wrap(nid, name, original)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, attr, wrapped)
                nid += 1

    def _wrap(self, nid: int, name: str, fn):
        parent, names, start, end = self.parent, self.name, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        suffix, count, reduce = COUNTERS.get(name, (None, None, None))
        key = f"{name}.{suffix}"
        counts = self.counts

        def traced(*args, **kwargs):
            sid = len(names)
            parent.append(stack[-1])
            names.append(nid)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if count is not None:
                counts[key] = reduce((counts.get(key, 0), count(args, out)))
            return out

        return traced

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line, then the four arrays."""
        header = {"names": self.names, "counts": self.counts, "spans": len(self.name)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.parent, self.name, self.start, self.end):
                fh.write(arr.tobytes())


def summarize(path: str) -> dict[str, float]:
    """Per-layer metrics of one dump: calls, self seconds, counts, totals."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in "iHqq":
            arr = array(code)
            arr.frombytes(fh.read(n * arr.itemsize))
            arrays.append(arr)
    parent, name, start, end = arrays
    names = header["names"]
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    total_ns = [0] * len(names)
    child_ns = [0] * n
    # children are allocated after their parent, so walking backwards sees
    # every child before the parent it must be subtracted from
    for i in range(n - 1, -1, -1):
        dur = end[i] - start[i]
        k = name[i]
        calls[k] += 1
        total_ns[k] += dur
        self_ns[k] += dur - child_ns[i]
        if parent[i] >= 0:
            child_ns[parent[i]] += dur
    out: dict[str, float] = {}
    for k, span in enumerate(names):
        if span in TOTALS:
            out[f"{span}.{TOTALS[span]}"] = total_ns[k] / 1e9
            continue
        out[f"{span}.calls"] = calls[k]
        out[f"{span}.self_s"] = self_ns[k] / 1e9
        if span in COUNTERS:
            key = f"{span}.{COUNTERS[span][0]}"
            out[key] = header["counts"].get(key, 0)
    return out
