#!/usr/bin/env python3
"""Tests of the nmcount benchmark itself.

  python3 benchmark/test_benchmark.py

The smoke test builds the library (first run only) and runs every workload
at n = 2^16, traced; the other tests need no build.
"""

import json
import re
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summary(median, q1, q3, samples=None):
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples or [median]),
            "samples": samples or [median]}


class AggregationTest(unittest.TestCase):
    def test_median_and_quartiles_on_fixed_inputs(self):
        s = run.summarize([7, 1, 3, 10, 5, 9, 2, 8, 4, 6])
        self.assertEqual(s["median"], 5.5)
        self.assertEqual((s["q1"], s["q3"]), (2.75, 8.25))
        self.assertEqual(s["n"], 10)

    def test_single_sample_has_zero_spread(self):
        s = run.summarize([3.0])
        self.assertEqual((s["median"], s["q1"], s["q3"], s["n"]), (3.0, 3.0, 3.0, 1))

    def test_empty_samples_are_an_error(self):
        with self.assertRaises(run.BenchError):
            run.summarize([])


class CompareTest(unittest.TestCase):
    def test_verdicts(self):
        base = summary(100.0, 99.0, 101.0, [99.0, 100.0, 101.0])
        # updates_per_sec: higher is better, bound 10%.
        self.assertEqual(compare.verdict(base, summary(85.0, 84.0, 86.0), "higher", 0.10)[0],
                         "regressed")
        self.assertEqual(compare.verdict(base, summary(95.0, 94.0, 96.0), "higher", 0.10)[0],
                         "no worse")
        self.assertEqual(compare.verdict(base, summary(120.0, 119.0, 121.0), "higher", 0.10)[0],
                         "improved")
        noisy = summary(100.0, 70.0, 130.0, [70.0, 100.0, 130.0])
        self.assertEqual(compare.verdict(base, noisy, "higher", 0.10)[0], "unresolved")
        # A lower-is-better metric reads the other way round.
        self.assertEqual(compare.verdict(base, summary(120.0, 119.0, 121.0), "lower", 0.10)[0],
                         "regressed")

    def test_wide_spread_but_disjoint_samples_resolve(self):
        a = summary(100.0, 70.0, 130.0, [70.0, 100.0, 130.0])
        b = summary(300.0, 250.0, 350.0, [250.0, 300.0, 350.0])
        self.assertEqual(compare.verdict(a, b, "higher", 0.10)[0], "improved")

    def test_zero_bound_metric(self):
        zero = summary(0.0, 0.0, 0.0)
        self.assertEqual(compare.verdict(zero, zero, "lower", 0.0)[0], "no worse")
        self.assertEqual(compare.verdict(zero, summary(1e-6, 1e-6, 1e-6), "lower", 0.0)[0],
                         "regressed")


class BenchmarkJsonTest(unittest.TestCase):
    def test_matches_the_metrics_run_py_reports(self):
        spec = load_benchmark_json()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)
        self.assertEqual({m["name"]: (m["unit"], m["better"], m["bound"])
                          for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual([m["name"] for m in spec["per_layer"]], run.PER_LAYER)
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.LAYER_UNITS[m["name"]], m["name"])

    def test_limits(self):
        spec = load_benchmark_json()
        names = [m["name"] for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
        for w in spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(1 <= spec["run_seconds"] <= 60)


class SmokeTest(unittest.TestCase):
    """run.py --smoke: every workload, one traced process at n = 2^16."""

    @classmethod
    def setUpClass(cls):
        run.build()
        start = time.monotonic()
        cls.proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                                  capture_output=True, text=True, timeout=300)
        cls.seconds = time.monotonic() - start
        cls.result = json.loads((run.BUILD / "results" / "smoke-seed1.json").read_text())

    def test_passes_quickly(self):
        self.assertEqual(self.proc.returncode, 0, self.proc.stderr)
        self.assertLess(self.seconds, 15.0)

    def test_every_metric_present_with_its_unit(self):
        spec = load_benchmark_json()
        for w in spec["workloads"]:
            rec = self.result["workloads"][w["name"]]
            self.assertTrue(rec["correct"], rec["errors"])
            for section, metrics in (("end_to_end", spec["end_to_end"]),
                                     ("per_layer", spec["per_layer"])):
                for m in metrics:
                    got = rec[section].get(m["name"])
                    self.assertIsNotNone(got, f"{w['name']}: {m['name']}")
                    self.assertEqual(got["unit"], m["unit"])
            self.assertEqual(rec["end_to_end"]["failed_update_fraction"]["median"], 0.0)

    def test_host_facts(self):
        host = self.result["host"]
        for key in ("nproc", "cpu_model", "compiler", "compile_flags", "build_type",
                    "simd", "git_commit", "seed"):
            self.assertIn(key, host)
        self.assertEqual(host["build_type"], "Release")

    def test_concurrent_workloads_pass_the_outside_check(self):
        for w in run.CONCURRENT:
            verify = self.result["workloads"][w]["verify"]
            self.assertTrue(verify["self_test_flagged_corrupt_log"])
            self.assertTrue(verify["linearizable"])
            self.assertEqual(verify["violation_steps"], 0)
            self.assertEqual(verify["steps_checked"], 1 << run.SMOKE_LOG2_N)

    def test_trace_files_hold_every_span(self):
        for w in run.WORKLOADS:
            trace = json.loads((ROOT / self.result["workloads"][w]["trace_file"]).read_text())
            names = {e["name"] for e in trace["traceEvents"]}
            expected = {"setup.generate", "setup.construct", "run", "core.process", "verify"}
            if w in run.CONCURRENT:
                expected.add("setup.shard")
            self.assertLessEqual(expected, names, w)


class WorkloadInterfaceTest(unittest.TestCase):
    """run.py --workload: one result line per call."""

    def last_line(self, *args):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                              capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_result_line(self):
        spec = load_benchmark_json()
        for trace, metrics in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            line = self.last_line("--workload", "sim_drift_block", "--seed", "7",
                                  "--seconds", "1", "--trace", trace)
            self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(line["correct"])
            self.assertEqual(line["failed"], 0)
            self.assertGreaterEqual(line["attempted"], 1)
            self.assertEqual({m: v["unit"] for m, v in line["metrics"].items()},
                             {m["name"]: m["unit"] for m in metrics})

    def test_fails_without_the_repository(self):
        import shutil
        import tempfile
        with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
            shutil.copytree(HERE, Path(tmp) / "benchmark",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload",
                                   "sim_drift_block", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], cwd=tmp, capture_output=True,
                                  text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
