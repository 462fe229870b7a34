"""Host-speed probe: a fixed piece of pure-Python work, timed.

The benchmark's host is a small share of a machine other tenants use, and
its speed swings by tens of percent within seconds and drifts over
minutes, and each CPU swings on its own: on the 2-vCPU host this was
built on, probe times on CPU 0 and CPU 1 taken back to back had a
correlation of 0.09.  So run.py pins every sweep process to as many CPUs
as it has workers, times this probe on those same CPUs right before and
right after the sweep, and scales the sweep's times by REFERENCE_S over
the mean of the probes on those CPUs around nearby repetitions
(run.PROBE_WINDOW): the sweep's time at the speed at which the probe
takes REFERENCE_S.  The probe runs in the benchmark's own process while no
padlab process runs, so the program under test cannot change it.

The work mixes, in about equal parts of time, what padlab's layers do:
interpreted loops on small ints, exact power sums, modular powers,
Fraction arithmetic and a JSON round trip.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from fractions import Fraction

# about the mean probe time on a 2-vCPU Intel Xeon VM, Python 3.11.7; it
# only sets the scale: a change of it moves every scaled time by one factor
REFERENCE_S = 0.1


def probe() -> float:
    """Seconds taken by one fixed batch of work."""
    start = time.perf_counter()
    # interpreted loops on small ints and a dict, as in dispatch and counting
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    table: dict[int, int] = {}
    for i in range(50_000):
        table[i % 97] = table.get(i % 97, 0) + i
    # exact power sums (powersum)
    acc += sum(n**400 for n in range(1, 4_000)) % 1_000_003
    # modular powers into a Counter (spectrum, jet)
    modulus = 13**12
    counts: Counter[int] = Counter()
    for n in range(1, 1_500):
        counts[(pow(n, 10**9 + 7, modulus) + pow(n, 10**6 + 3, modulus)) % modulus] += 1
    # rational arithmetic: the Akiyama-Tanigawa recurrence (bernoulli)
    row = [Fraction(0)] * 100
    for m in range(100):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    # JSON round trip of report-like records (report, cli)
    records = [{"name": f"c{i}", "inputs": {"p": i, "a": 2}, "holds": True, "lhs": str(i * 7919), "margin": i % 5} for i in range(3_000)]
    json.loads(json.dumps(records, sort_keys=True))
    return time.perf_counter() - start


def probe_on(cpus: list[int]) -> float:
    """Mean probe time over the given CPUs, this process pinned to each in
    turn.  Leaves this process pinned to exactly those CPUs."""
    times = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times.append(probe())
    os.sched_setaffinity(0, set(cpus))
    return sum(times) / len(times)
