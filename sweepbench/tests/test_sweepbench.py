#!/usr/bin/env python3
"""The benchmark's own tests, on smoke-sized inputs (seconds in total).

Run from anywhere:  python3 sweepbench/tests/test_sweepbench.py
The first run builds the binary through run.py (under .bench_build/).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN_PY = os.path.join(ROOT, "sweepbench", "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "sweepbench", "sweepbench")
WORKLOADS = ("ladder", "adaptive", "fates")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(*args, threads=None):
    """Runs the binary on smoke inputs; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--smoke", "--seconds", "1"] + list(args)
    if threads is not None:
        cmd += ["--threads", str(threads)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    return p.returncode, p.stdout.splitlines()


def result(lines):
    return json.loads(lines[-1])


def digests(lines):
    return {line.split()[0]: line.split()[1] for line in lines
            if line.startswith("sweep_") and "_digest " in line}


class SweepbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # Builds the binary (a no-op when it is up to date).
        p = subprocess.run(
            [sys.executable, RUN_PY, "--workload", "ladder", "--seed", "1",
             "--seconds", "1", "--trace", "0", "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=1800)
        if p.returncode != 0:
            raise RuntimeError("run.py failed:\n" + p.stderr[-4000:])

    def test_every_metric_present_with_its_unit(self):
        bench = spec()
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            expected = {m["name"]: m["unit"] for m in bench[kind]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, lines = run("--workload", workload, "--seed", "3",
                                      "--trace", trace)
                    self.assertEqual(code, 0)
                    out = result(lines)
                    self.assertEqual(
                        set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(out["failed"], 0)
                    got = {k: v["unit"] for k, v in out["metrics"].items()}
                    self.assertEqual(got, expected)
                    if trace == "0":
                        for name, v in out["metrics"].items():
                            self.assertGreater(v["value"], 0, name)

    def test_worker_count_does_not_change_the_model(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                outs = []
                for threads in (1, 3):
                    code, lines = run("--workload", workload, "--seed", "7",
                                      "--trace", "0", threads=threads)
                    self.assertEqual(code, 0)
                    outs.append(lines)
                self.assertEqual(digests(outs[0]), digests(outs[1]))
                self.assertEqual(len(digests(outs[0])), 2)
                sim = [{k: v["value"] for k, v in result(o)["metrics"].items()
                        if k.startswith("sim_")} for o in outs]
                self.assertEqual(sim[0], sim[1])
                # The seed reaches the inputs: another seed, another sweep.
                code, other = run("--workload", workload, "--seed", "8",
                                  "--trace", "0")
                self.assertEqual(code, 0)
                self.assertNotEqual(digests(other)["sweep_jsonl_digest"],
                                    digests(outs[0])["sweep_jsonl_digest"])

    def test_usage_errors_exit_2(self):
        bad = [
            ["--workload", "nope", "--seed", "1", "--trace", "0"],
            ["--workload", "ladder", "--seed", "12x", "--trace", "0"],
            ["--workload", "ladder", "--seed", "-1", "--trace", "0"],
            ["--workload", "ladder", "--seed", "", "--trace", "0"],
            ["--workload", "ladder", "--seed", "1", "--trace", "2"],
            ["--workload", "ladder", "--trace", "0"],
            ["--workload", "ladder", "--seed", "1", "--trace", "0", "--x"],
        ]
        for args in bad:
            with self.subTest(args=args):
                code, lines = run(*args)
                self.assertEqual(code, 2)
                self.assertEqual(lines, [])
                p = subprocess.run(
                    [sys.executable, RUN_PY, "--seconds", "1"] + args,
                    cwd=ROOT, capture_output=True, text=True, timeout=60)
                self.assertEqual(p.returncode, 2)
                self.assertEqual(p.stdout, "")

    def test_fails_without_the_repository_sources(self):
        alone = os.path.join(ROOT, ".bench_build", "alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
            shutil.copytree(os.path.join(ROOT, "sweepbench"),
                            os.path.join(alone, "sweepbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, "sweepbench/run.py", "--workload", "ladder",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=alone, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout, "")
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
