"""Benchmark of the thetaran pipeline: one workload, fresh process per sample.

Run from the repository root:

    python3 perfbench/run.py --workload homology --seed 1 --seconds 60 --trace 0

Samples run one at a time, each in its own interpreter (``worker.py``), so
every sample starts with empty program caches, as a ``theta-ran``
invocation does.  A new sample starts while one as long as the last still
fits in ``--seconds``; each metric is the median over samples.

``--trace 0`` runs untraced samples only and reports the end-to-end
metrics.  Its time metric, ``wall_ref``, is each sample's wall time in the
program calls divided by ``reference_s``, the time of a fixed loop timed
in the same process around those calls (see ``worker.reference_s``).  The
host's speed drifts by a third over minutes; the ratio cancels that drift
where raw seconds cannot.  Raw seconds are in the report line.

``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics, including ``trace.overhead_s``: the traced wall time's
median minus the untraced one's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the machine, the seed and every sample.  The exit code is 0 when
every oracle check passed, 1 when one failed, and 2 when the program to
measure is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("homology", "rows-paths")
SIZES = ("full", "tiny")
SAMPLE_TIMEOUT_S = 150

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}

_SPANS = (
    "homology.build_category",
    "homology.validate",
    "homology.nerve_chain_complex",
    "homology.homology_from_boundaries",
    "homology.smith_normal_form",
    "theta.compose_theta",
    "theta.enumerate_theta_hom",
    "theta.verify_initiality_by_rows",
    "theta.w_hom_rows",
    "simplex.compose_delta",
    "simplex.enumerate_delta_hom",
    "config.random_exit_path",
    "config.induced_morphism",
    "config.morphism_of_exit_path",
    "config.random_configuration",
    "harness.run_suite",
)
_COUNTERS = (
    "homology.arrows",
    "homology.composable_pairs",
    "homology.cells",
    "homology.boundary_nonzeros",
    "theta.rows_checked",
    "theta.targets_checked",
    "harness.cases",
)
PER_LAYER = {
    **{f"{span}_s": "s" for span in _SPANS},
    **{f"{span}_calls": "count" for span in _SPANS},
    **{f"{layer}.self_s": "s"
       for layer in ("homology", "theta", "simplex", "config", "harness")},
    **{counter: "count" for counter in _COUNTERS},
    "theta.rows_per_s": "1/s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def machine() -> dict:
    """The host, read without changing anything."""
    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": platform.processor() or platform.machine(),
        "loadavg": None,
    }
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    record["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        with open("/proc/loadavg") as handle:
            record["loadavg"] = [float(v) for v in handle.read().split()[:3]]
    except OSError:
        pass
    return record


def run_sample(workload: str, seed: int, size: str, traced: bool) -> dict:
    """One worker process, waited for before returning."""
    started = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, workload, str(seed), size,
             "1" if traced else "0", str(started)],
            capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        proc = None
    ended = time.monotonic_ns()
    record = {"traced": traced, "started_ns": started, "ended_ns": ended}
    if proc is None:
        record.update(error=f"timed out after {SAMPLE_TIMEOUT_S} s")
    elif proc.returncode != 0:
        record.update(error=f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    else:
        record.update(json.loads(proc.stdout))
    return record


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def summarize(samples: list[dict], trace: bool) -> tuple[dict, dict]:
    """(result line, report) from the samples of one run."""
    good = [s for s in samples if "error" not in s]
    plain = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    attempted = sum(s.get("attempted", 1) for s in samples)
    failed = sum(s.get("failed", 1) for s in samples)
    failures = [s.get("first_failure") or s.get("error") for s in samples
                if s.get("failed", 1)]

    # the same code and seed must do exactly the same work in every sample
    counters = good[0]["counters"] if good else {}
    attempted += 1
    if any(s["counters"] != counters for s in good):
        failed += 1
        failures.append("exact counters differ between samples")

    # one worker at a time, each in a process of its own
    attempted += 1
    pids = [s["pid"] for s in good]
    spans = sorted((s["started_ns"], s["ended_ns"]) for s in samples)
    serial = all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))
    fresh = len(set(pids)) == len(pids) and os.getpid() not in pids
    if not (serial and fresh):
        failed += 1
        failures.append("samples overlapped or shared a process")

    wall = _median([s["wall_s"] for s in plain])
    if trace:
        layers = {}
        for name in PER_LAYER:
            if name in _COUNTERS:
                layers[name] = counters.get(name, 0)
            elif name.endswith("_calls"):
                layers[name] = traced[0]["layers"].get(name, 0) if traced else 0
            else:
                layers[name] = _median([s["layers"].get(name, 0.0) for s in traced])
        rows_s = layers["theta.verify_initiality_by_rows_s"]
        layers["theta.rows_per_s"] = (
            layers["theta.rows_checked"] / rows_s if rows_s else 0.0
        )
        layers["trace.wall_s"] = _median([s["wall_s"] for s in traced])
        layers["trace.untraced_wall_s"] = wall
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall
        if any(s["layers"].get(n) != traced[0]["layers"].get(n)
               for s in traced for n in traced[0]["layers"] if n.endswith("_calls")):
            attempted += 1
            failed += 1
            failures.append("call counts differ between traced samples")
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER.items()}
    else:
        values = {
            "wall_ref": _median([s["wall_s"] / s["reference_s"] for s in plain]),
            "setup_s": _median([s["setup_s"] for s in good]),
            "peak_rss_mb": _median([s["peak_rss_mb"] for s in plain]),
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}

    result = {
        "correct": failed == 0 and bool(plain) and (bool(traced) or not trace),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "samples": len(samples),
        "untraced_samples": len(plain),
        "traced_samples": len(traced),
        "fail_ratio": failed / attempted,
        "first_failures": failures[:5],
        "one_worker_at_a_time": serial,
        "fresh_process_per_sample": fresh,
        "wall_s": wall,
        "reference_s": _median([s["reference_s"] for s in plain]),
        "counters": counters,
        "part_wall_s": {
            part: _median([s["part_wall_s"][part] for s in plain])
            for part in (plain[0]["part_wall_s"] if plain else ())
        },
        "per_sample": [
            {k: s.get(k) for k in ("pid", "traced", "wall_s", "reference_s",
                                   "setup_s", "peak_rss_mb", "error")}
            for s in samples
        ],
    }
    return result, report


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny inputs for the benchmark's self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "thetaran", "__init__.py")):
        print(f"no thetaran package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    host = machine()
    # compile bytecode and fill the file cache before the first timed start
    subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path[:0] = {[SRC, HERE]!r}; "
         "import thetaran.cli, workloads, tracer"],
        check=True, timeout=SAMPLE_TIMEOUT_S,
    )
    # start another sample only while one as long as the last still fits,
    # so a run stays within --seconds
    deadline = time.monotonic_ns() + int(args.seconds * 1e9)
    samples: list[dict] = []
    traced = False
    while (
        not samples
        or (args.trace and len(samples) < 2)
        or deadline - time.monotonic_ns()
        > samples[-1]["ended_ns"] - samples[-1]["started_ns"]
    ):
        samples.append(run_sample(args.workload, args.seed, args.size, traced))
        if args.trace:
            traced = not traced
    result, report = summarize(samples, bool(args.trace))
    report.update(workload=args.workload, seed=args.seed, size=args.size,
                  trace=args.trace, seconds=args.seconds, machine=host)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
