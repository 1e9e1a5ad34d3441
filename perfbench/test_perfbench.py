#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from the repository root (builds the driver on first use, ~1 minute
of short workload runs):

    python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECONDS = "1"


def run_wrapper(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def record(workload, seed, trace):
    path = os.path.join(run.OUT_DIR, "result_%s_seed%d_trace%d.json"
                        % (workload, seed, trace))
    with open(path) as f:
        return json.load(f)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")
        cls.spec = run.load_spec()
        cls.runs = {}
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                cls.runs[(workload, 1, trace)] = run_wrapper(
                    "--workload", workload, "--seed", "1",
                    "--seconds", SECONDS, "--trace", str(trace))
            cls.runs[(workload, 2, 0)] = run_wrapper(
                "--workload", workload, "--seed", "2",
                "--seconds", SECONDS, "--trace", "0")

    def test_every_metric_printed_with_unit(self):
        for (workload, seed, trace), proc in self.runs.items():
            with self.subTest(workload=workload, seed=seed, trace=trace):
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                result = last_json(proc.stdout)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                wanted = self.spec["per_layer" if trace else "end_to_end"]
                self.assertEqual(
                    {n: m["unit"] for n, m in result["metrics"].items()},
                    {m["name"]: m["unit"] for m in wanted})
                for metric in wanted:
                    value = result["metrics"][metric["name"]]["value"]
                    self.assertIsInstance(value, (int, float))
                    self.assertRegex(
                        proc.stdout, r"metric %s +\S+ %s\n" % (
                            metric["name"].replace(".", r"\."),
                            metric["unit"].replace(".", r"\.")))
                if not trace:
                    for metric in wanted:
                        self.assertGreater(
                            result["metrics"][metric["name"]]["value"], 0,
                            metric["name"])

    def test_same_seed_same_hashes_other_seed_differs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                untraced = record(workload, 1, 0)["observed"]
                traced = record(workload, 1, 1)["observed"]
                other = record(workload, 2, 0)["observed"]
                self.assertEqual(untraced, traced)
                self.assertNotEqual(untraced["fleet_hash"],
                                    other["fleet_hash"])

    def test_fingerprint_beside_result(self):
        fp = record("fleet_serial", 1, 0)["fingerprint"]
        for key in ("nproc", "cpu_model", "governor", "compiler",
                    "build_type", "sanitizers", "git_commit"):
            self.assertIn(key, fp)
        self.assertEqual(fp["build_type"], "Release")
        self.assertEqual(fp["sanitizers"], "none")

    def test_traced_run_writes_spans(self):
        spans = record("fleet_sharded", 1, 1)["spans_file"]
        with open(spans) as f:
            events = json.load(f)["traceEvents"]
        self.assertTrue(any(e["cat"] == "cluster" for e in events))
        self.assertTrue(all(e["ph"] == "X" for e in events))

    def test_span_self_time_fixture(self):
        proc = subprocess.run([run.SPAN_TEST], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_failed_check_is_named(self):
        checks = run.golden_checks("fleet_serial", run.GOLDEN_SEED,
                                   {"fleet_hash": "0x0"})
        failed = [c["name"] for c in checks if not c["ok"]]
        self.assertIn("golden.fleet_serial.fleet_hash", failed)
        check, _ = run.metric_check(self.spec, 0, {})
        self.assertFalse(check["ok"])
        self.assertIn("events_per_s", check["detail"])

    def test_refuses_without_program_sources(self):
        build_root = os.path.join(run.ROOT, ".bench_build")
        with tempfile.TemporaryDirectory(dir=build_root) as bare:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.BENCH_DIR, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_wrapper("--workload", "fleet_serial", "--seed", "1",
                               "--seconds", SECONDS, "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
