"""Self-test of the benchmark on tiny inputs.

Run from the repository root:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the workloads and metrics the
benchmark produces, that every workload prints every metric with its unit
and passes its oracle checks, that the exact work counters repeat for the
same code and seed, that the tracer puts back every name it wraps, and
that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from math import factorial

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from thetaran import harness  # noqa: E402


def bench(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


class SelfTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(run.WORKLOADS, tuple(workloads.WORKLOADS))
        self.assertEqual(
            sorted(p for parts in workloads.WORKLOADS.values() for p in parts),
            sorted(workloads.PARTS),
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER
        )

    def test_every_workload_reports_every_metric_and_repeats_its_counts(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                plain_report, plain = bench(workload, 0)
                self.assertEqual(plain_report["machine"]["nproc"],
                                 len(os.sched_getaffinity(0)))
                self.assertTrue(plain_report["one_worker_at_a_time"])
                self.assertTrue(plain_report["fresh_process_per_sample"])
                self.assertEqual(sorted(plain_report["part_wall_s"]),
                                 sorted(workloads.WORKLOADS[workload]))
                traced_runs = [bench(workload, 1) for _ in range(2)]
                for report, result in [(plain_report, plain)] + traced_runs:
                    self.assertEqual(sorted(result), ["attempted", "correct",
                                                      "failed", "metrics"])
                    self.assertTrue(result["correct"], report["first_failures"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(report["fail_ratio"], 0)
                    self.assertGreater(result["attempted"], 0)
                expected = [(plain, run.END_TO_END)] + [
                    (result, run.PER_LAYER) for _, result in traced_runs
                ]
                for result, table in expected:
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()}, table
                    )
                for name in run.END_TO_END:
                    self.assertGreater(plain["metrics"][name]["value"], 0)
                (first_report, first), (second_report, second) = traced_runs
                self.assertEqual(plain_report["counters"], first_report["counters"])
                self.assertTrue(first_report["counters"])
                exact = [n for n, u in run.PER_LAYER.items() if u == "count"]
                self.assertEqual(
                    {n: first["metrics"][n]["value"] for n in exact},
                    {n: second["metrics"][n]["value"] for n in exact},
                )
                self.assertTrue(any(first["metrics"][n]["value"] for n in exact
                                    if n.endswith("_calls")))

    def test_tracer_restores_every_wrapped_name(self):
        before = [dict(vars(owner)) for owner in tracer.TRACED_OWNERS]
        original = harness.random_exit_path
        with self.assertRaises(ZeroDivisionError):
            with tracer.Tracer() as spans:
                self.assertIsNot(harness.random_exit_path, original)
                1 / 0
        self.assertEqual([dict(vars(o)) for o in tracer.TRACED_OWNERS], before)
        self.assertEqual(spans._saved, [])

    def test_pinned_groups_match_the_euler_characteristic(self):
        for (n, k), (betti, _) in workloads.PINNED_UNORDERED.items():
            ordered = harness.ordered_betti_oracle(n, k)
            chi_ordered = sum((-1) ** d * b for d, b in enumerate(ordered))
            self.assertEqual(chi_ordered % factorial(k), 0)
            self.assertEqual(
                sum((-1) ** d * b for d, b in enumerate(betti)),
                chi_ordered // factorial(k),
            )

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "rows-paths",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
