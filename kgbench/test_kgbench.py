#!/usr/bin/env python3
"""Self-tests of the kgbench benchmark.

    python3 kgbench/test_kgbench.py            # from the repository root

Checks that BENCHMARK.json keeps to its contract, that every workload
prints every end-to-end metric with its unit and the traced run every
per-layer metric, that a deliberately wrong expected report is caught,
that the counts which must repeat do repeat, and that the command fails
cleanly where the sources are missing. Takes a few minutes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seconds, trace, *extra, cwd=ROOT, seed=3):
    command = load_spec()["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done, result


class ContractTest(unittest.TestCase):
    def test_spec_keeps_to_the_contract(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(spec["paths"]) <= 16)
        for path in spec["paths"]:
            self.assertRegex(path, r"^[A-Za-z0-9_./-]{1,200}$")
            self.assertTrue(os.path.isdir(os.path.join(ROOT, path)))
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_fails_cleanly_without_the_sources(self):
        bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in load_spec()["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, "build"))
        command = load_spec()["command"] + [
            "--workload", "replicate", "--seed", "1", "--seconds", "1",
            "--trace", "0"]
        done = subprocess.run(command, cwd=bare, capture_output=True,
                              text=True, timeout=180, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


class RunTest(unittest.TestCase):
    def check_metrics(self, result, wanted):
        got = result["metrics"]
        self.assertEqual(set(got), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_every_workload_prints_every_metric(self):
        spec = load_spec()
        for w in spec["workloads"]:
            done, result = run(w["name"], 1, 0)
            self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.check_metrics(result, spec["end_to_end"])
            for m in spec["end_to_end"]:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                   (w["name"], m["name"]))
            self.assertRegex(done.stdout, r"error_rate\s+0 ratio")
            for tail in ("op_ms_p99", "batch_ms_p99"):
                self.assertRegex(done.stdout, tail + r"\s+[0-9.e+-]+ ms")

    def test_wrong_expected_report_is_an_error(self):
        for w in load_spec()["workloads"]:
            done, result = run(w["name"], 1, 0, "--corrupt-expected")
            self.assertNotEqual(done.returncode, 0, w["name"])
            self.assertFalse(result["correct"], w["name"])
            self.assertGreaterEqual(result["failed"], 1, w["name"])

    def test_traced_counts_repeat(self):
        spec = load_spec()
        first = run("replicate", 2, 1)
        second = run("replicate", 2, 1)
        for done, result in (first, second):
            self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
            self.assertTrue(result["correct"])
            self.check_metrics(result, spec["per_layer"])
        for name in ("ladder.annotations_per_audit",
                     "intervals.hpd_solves_per_audit",
                     "store.fsyncs_per_audit", "daemon.steps_executed"):
            self.assertEqual(first[1]["metrics"][name]["value"],
                             second[1]["metrics"][name]["value"], name)

    def test_annotations_per_audit_repeats(self):
        for w in load_spec()["workloads"]:
            a = run(w["name"], 1, 0)[1]["metrics"]["annotations_per_audit"]
            b = run(w["name"], 1, 0)[1]["metrics"]["annotations_per_audit"]
            self.assertEqual(a, b, w["name"])


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(unittest.main(verbosity=2))
