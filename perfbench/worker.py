"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Usage: worker.py WORKLOAD SEED SIZE TRACE SPAWNED_AT_NS

``SPAWNED_AT_NS`` is the parent's ``time.monotonic_ns()`` just before it
started this process; the system-wide monotonic clock makes the set-up
time (interpreter start, ``import thetaran``, seeded inputs) comparable
across the two processes.  The reference loop runs right before and right
after the timed body; their mean is the sample's ``reference_s``.  Prints
one JSON object on stdout.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def reference_s() -> float:
    """Seconds for a fixed pure-Python loop: a gauge of the host's speed now.

    It mixes what the program spends its time on (tuple-keyed dicts,
    integer row operations, exact fractions, recursion) and uses no
    program code, so a change to the program cannot move it.
    """
    started = time.perf_counter()
    table: dict = {}
    for i in range(400_000):
        key = (i % 61, i % 67)
        table[key] = table.get(key, 0) + i
    rows = [[(i * 7 + j * 13) % 19 - 9 for j in range(70)] for i in range(70)]
    for t in range(69):
        pivot = rows[t][t] or 1
        for i in range(t + 1, 70):
            q = rows[i][t] // pivot
            rows[i] = [a - q * b for a, b in zip(rows[i], rows[t])]
    total = Fraction(0)
    for i in range(1, 5000):
        total += Fraction(i % 7 + 1, i % 11 + 2)

    def fib(n: int) -> int:
        return n if n < 2 else fib(n - 1) + fib(n - 2)

    fib(23)
    return time.perf_counter() - started


def main(argv: list[str]) -> int:
    workload, seed, size, trace, spawned_at = argv
    seed = int(seed)
    sys.path[:0] = [SRC, HERE]
    import thetaran

    if not os.path.abspath(thetaran.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported thetaran from {thetaran.__file__}, not {SRC}")
    import workloads

    inputs = workloads.make_inputs(workload, seed, size)
    setup_s = (time.monotonic_ns() - int(spawned_at)) / 1e9
    layers: dict[str, float] = {}
    gauge = reference_s()
    if trace == "1":
        import tracer

        before = {id(m): dict(vars(m)) for m in tracer.TRACED_OWNERS}
        with tracer.Tracer() as spans:
            sample = workloads.run(workload, inputs, seed)
        layers = spans.metrics()
        for owner in tracer.TRACED_OWNERS:
            if dict(vars(owner)) != before[id(owner)]:
                raise SystemExit(f"tracer left {owner.__name__} patched")
    else:
        sample = workloads.run(workload, inputs, seed)
    gauge = (gauge + reference_s()) / 2
    json.dump(
        {
            "pid": os.getpid(),
            "reference_s": gauge,
            "wall_s": sample.wall_s,
            "part_wall_s": dict(sample.part_wall_s),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "attempted": sample.attempted,
            "failed": sample.failed,
            "first_failure": sample.first_failure,
            "counters": dict(sample.counters),
            "layers": layers,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
