#!/usr/bin/env python3
"""The benchmark's own tests: tiny-size runs of every workload.

    python3 perfbench/tests/test_perfbench.py

Checks that BENCHMARK.json is well formed, that an untraced run of each
workload prints every end-to-end metric and a traced run every per-layer
metric (names and units exactly as BENCHMARK.json lists them), that a
deliberately wrong expected value is counted as failed, and that the
benchmark refuses to run without the VM sources.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
WORKLOADS = ["compute", "coldstart", "serve"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra, cwd=ROOT, cmd=None):
    done = subprocess.run(
        (cmd or RUN) + ["--workload", workload, "--seed", "3",
                        "--seconds", "1", "--trace", str(trace), "--tiny",
                        *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return done


def result_of(done):
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.rstrip("\n").split("\n")
    return json.loads(lines[-1]), lines


class BenchmarkJson(unittest.TestCase):
    def test_schema(self):
        self.assertEqual(sorted(SPEC), sorted(
            ["command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"]))
        self.assertEqual([w["name"] for w in SPEC["workloads"]], WORKLOADS)
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in SPEC["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertRegex(m["unit"], UNIT)
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))
        for m in SPEC["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
            self.assertRegex(m["unit"], UNIT)
        self.assertLessEqual(len(SPEC["per_layer"]), 128)


class TinyRuns(unittest.TestCase):
    def check_metrics(self, result, defs):
        self.assertEqual(list(result["metrics"]), [m["name"] for m in defs])
        for m in defs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_untraced_runs_emit_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, lines = result_of(run(w, 0))
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.check_metrics(result, SPEC["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                stamp = [l for l in lines if l.startswith("# stamp ")]
                self.assertEqual(len(stamp), 1)
                facts = json.loads(stamp[0][len("# stamp "):])
                for key in ["nproc", "compiler", "build_type", "seed",
                            "HPCNET_TELEMETRY_env", "HPCNET_SIMD_build",
                            "HPCNET_GC_THREADS_env",
                            "HPCNET_GC_LAZY_SWEEP_env", "setup_min_reps",
                            "offered_rate_per_s"]:
                    self.assertIn(key, facts)
                self.assertTrue(
                    any(l.startswith("# failed_frac") for l in lines))

    def test_traced_runs_emit_every_per_layer_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, _ = result_of(run(w, 1))
                self.assertTrue(result["correct"])
                self.check_metrics(result, SPEC["per_layer"])
                trace = os.path.join(ROOT, ".bench_build", "perfbench",
                                     "traces", f"{w}-seed3.json")
                if os.environ.get("CARGO_TARGET_DIR") is None:
                    with open(trace) as f:
                        events = json.load(f)["traceEvents"]
                    self.assertTrue(any(e.get("cat") == "bench" for e in events))

    def test_untraced_run_ignores_vm_env(self):
        env = dict(os.environ, HPCNET_TELEMETRY="1", HPCNET_GC_THREADS="1",
                   HPCNET_GC_LAZY_SWEEP="1")
        done = subprocess.run(
            RUN + ["--workload", "coldstart", "--seed", "1", "--seconds", "1",
                   "--trace", "0", "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=900, env=env)
        result, lines = result_of(done)
        self.assertTrue(result["correct"])
        stamp = json.loads([l for l in lines if l.startswith("# stamp ")][0][8:])
        self.assertEqual(stamp["HPCNET_TELEMETRY_env"], "1")
        self.assertTrue(stamp["telemetry_forced_off_in_untraced_legs"])
        self.assertEqual(stamp["HPCNET_GC_THREADS_env"], "1")
        self.assertEqual(stamp["HPCNET_GC_LAZY_SWEEP_env"], "1")
        self.assertTrue(stamp["gc_env_cleared"])

    def test_wrong_expected_value_counts_as_failed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, lines = result_of(run(w, 0, "--corrupt-expected"))
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.check_metrics(result, SPEC["end_to_end"])
                frac = [l for l in lines if l.startswith("# failed_frac")][0]
                self.assertGreater(float(frac.split()[2]), 0)

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
        try:
            done = run("compute", 0, cwd=bare,
                       cmd=[sys.executable, os.path.join(bare, "perfbench", "run.py")])
            self.assertNotEqual(done.returncode, 0)
            self.assertFalse(done.stdout.strip().endswith("}"))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
