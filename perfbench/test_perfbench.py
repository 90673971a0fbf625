#!/usr/bin/env python3
"""Quick-mode checks of the benchmark itself.

For every workload: a timed run reports every end-to-end metric of
BENCHMARK.json with its unit, and two traced runs with the same seed report
every per-layer metric with its unit and repeat the per-layer counts exactly.

Run from the root of a checkout: python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
EXACT_COUNTS = (
    "core.states",
    "core.transitions",
    "core.guard_charges",
    "automata.cache_hits_per_check",
    "core.prefilter_decided_ratio",
)


def run(workload, trace, seed=7):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise AssertionError(f"{workload} exited {out.returncode}: {out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result


class Perfbench(unittest.TestCase):
    def check_metrics(self, result, specs):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_workloads(self):
        for name in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=name):
                timed = run(name, 0)
                self.check_metrics(timed, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(timed["metrics"][m["name"]]["value"], 0, m["name"])
                first, second = run(name, 1), run(name, 1)
                for traced in (first, second):
                    self.check_metrics(traced, SPEC["per_layer"])
                for count in EXACT_COUNTS:
                    self.assertEqual(
                        first["metrics"][count]["value"],
                        second["metrics"][count]["value"],
                        f"{name}: {count} did not repeat",
                    )


if __name__ == "__main__":
    unittest.main()
