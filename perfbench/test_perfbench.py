#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Checks BENCHMARK.json against the metric-name and size rules, that every
workload's output parses and carries exactly the declared metrics (untraced
and traced), and that the EvalBackend timing decorator is result-inert.
Builds the program through run.py first (about a minute from scratch).
"""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seconds=1, seed=5):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc


class BenchmarkSpec(unittest.TestCase):
    def test_names_units_and_sizes(self):
        bench = load_benchmark()
        self.assertLessEqual(len(bench["end_to_end"]), 16)
        self.assertLessEqual(len(bench["per_layer"]), 128)
        self.assertTrue(2 <= len(bench["workloads"]) <= 8)
        names = []
        for group in ("workloads", "end_to_end", "per_layer"):
            for entry in bench[group]:
                self.assertRegex(entry["name"], NAME)
                names.append(entry["name"])
                if group != "workloads":
                    self.assertRegex(entry["unit"], UNIT)
                    self.assertIn(entry["better"], ("lower", "higher"))
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for metric in bench["end_to_end"]:
            self.assertTrue(0 < metric["bound"] <= 0.25, metric)
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in bench["end_to_end"]))


class BenchmarkOutput(unittest.TestCase):
    def check(self, workload, trace):
        bench = load_benchmark()
        group = "per_layer" if trace else "end_to_end"
        code, result, proc = run_bench(workload, trace)
        self.assertEqual(code, 0, proc.stdout[-2000:] + proc.stderr[-2000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = {m["name"]: m["unit"] for m in bench[group]}
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], declared[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        return result["metrics"]

    def test_every_workload_untraced(self):
        for workload in [w["name"] for w in load_benchmark()["workloads"]]:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 0)
                for name in ("front_hv", "missions_per_charge", "wall_s"):
                    self.assertGreater(metrics[name]["value"], 0, name)
                self.assertEqual(metrics["ok_rate"]["value"], 1)

    def test_traced_split(self):
        metrics = self.check("service-mix", 1)
        for name in ("dse.backend_s", "systolic.cycle.cycles", "io.replayed_rows",
                     "dse.tiered.screened", "dse.dram.row_hits", "pool.tasks"):
            self.assertGreater(metrics[name]["value"], 0, name)

    def test_same_seed_same_results(self):
        first = self.check("bo-analytical", 0)
        second = self.check("bo-analytical", 0)
        for name in ("front_hv", "missions_per_charge"):
            self.assertEqual(first[name]["value"], second[name]["value"], name)

    def test_fails_without_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, pathlib.Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "service-mix", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class DecoratorInert(unittest.TestCase):
    def test_decorated_runs_match_plain_runs(self):
        code, _, proc = run_bench("bo-analytical", 0)  # Builds the program.
        self.assertEqual(code, 0, proc.stderr[-2000:])
        build = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
        proc = subprocess.run(
            [str(build / "perfbench"), "--selftest", "decorator",
             "--workdir", str(build / "selftest-work")],
            capture_output=True, text=True, timeout=600, check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        for backend in ("analytical", "cycle", "tiered", "dram"):
            self.assertIn("decorator %s: identical" % backend, proc.stdout)


if __name__ == "__main__":
    unittest.main()
