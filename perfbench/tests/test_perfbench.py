"""The benchmark's own tests, on the smoke sizes (seconds per workload).

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench/tests -v

The first test to run builds the benchmark (perfbench/run.py does that).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ("fleet_month", "fleet_mixed", "paper_sweep")
DEFAULT_SEED = 20150615


def scratch_dir():
    """A temporary directory inside the checkout's build tree."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = base if os.path.isabs(base) else os.path.join(ROOT, base)
    os.makedirs(base, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=DEFAULT_SEED, reference=None, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    if reference:
        cmd += ["--reference", reference]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def parsed(proc):
    """(result, lines by prefix) of a successful run."""
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.rstrip("\n").split("\n")
    prefixed = {}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        prefixed.setdefault(key, []).append(rest)
    return json.loads(lines[-1]), prefixed


class MetricNames(unittest.TestCase):
    def check(self, trace, section):
        expected = {m["name"]: m["unit"] for m in spec()[section]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = parsed(run(workload, trace))
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, expected)

    def test_end_to_end_metrics_are_printed_with_units(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics_are_printed_with_units(self):
        self.check(1, "per_layer")

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in spec()["workloads"]], list(WORKLOADS))


class Correctness(unittest.TestCase):
    def test_wrong_reference_digest_is_a_failed_op(self):
        with scratch_dir() as tmp:
            ref = os.path.join(tmp, "reference.txt")
            with open(ref, "w") as f:
                for workload in WORKLOADS:
                    f.write(f"{workload} smoke {DEFAULT_SEED} 0123456789abcdef\n")
            for workload in WORKLOADS:
                with self.subTest(workload=workload):
                    result, lines = parsed(run(workload, 0, reference=ref))
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)
                    self.assertLess(result["metrics"]["ops_ok_pct"]["value"], 100.0)
                    self.assertTrue(any("differs from the reference" in r
                                        for r in lines["REPORT"]))

    def test_traced_run_reproduces_the_untraced_digest(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                plain, plain_lines = parsed(run(workload, 0))
                traced, traced_lines = parsed(run(workload, 1))
                self.assertTrue(plain["correct"] and traced["correct"])
                self.assertEqual(plain_lines["DIGEST"], traced_lines["DIGEST"])


class Counters(unittest.TestCase):
    def test_work_counters_repeat_exactly_for_a_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first = parsed(run(workload, 1, seed=7))
                _, second = parsed(run(workload, 1, seed=7))
                _, other = parsed(run(workload, 1, seed=8))
                self.assertEqual(first["COUNTERS"], second["COUNTERS"])
                self.assertNotEqual(first["COUNTERS"], other["COUNTERS"])
                counters = json.loads(first["COUNTERS"][0])
                self.assertGreater(counters["simcore.events"], 0)


class RunContext(unittest.TestCase):
    def test_pool_size_ignores_the_callers_environment(self):
        env = dict(os.environ, SPOTHOST_THREADS="1")
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", "paper_sweep", "--seed", "1",
             "--seconds", "0.2", "--trace", "0", "--smoke"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
        _, lines = parsed(proc)
        context = json.loads(lines["CONTEXT"][0])
        self.assertEqual(context["pool_threads"], str(min(4, os.cpu_count() or 1)))

    def test_out_of_range_arguments_are_refused(self):
        for seed, seconds in (("-1", "1"), ("1", "0"), ("1", "3601")):
            with self.subTest(seed=seed, seconds=seconds):
                proc = subprocess.run(
                    [sys.executable, RUN, "--workload", "fleet_month", "--seed", seed,
                     "--seconds", seconds, "--trace", "0", "--smoke"],
                    cwd=ROOT, capture_output=True, text=True, timeout=900)
                self.assertNotEqual(proc.returncode, 0)
                self.assertNotIn('"correct"', proc.stdout)


class Packaging(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        with scratch_dir() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fleet_month",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
