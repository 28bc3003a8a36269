"""Tests of the benchmark itself (not collected by the library's pytest run).

    python3 perfbench/selftest.py

- the job draw is a function of the seed: the same seed gives the same
  jobs, another seed changes them;
- two traced runs with the same seed give identical per-layer counts;
- a job killed by its timeout is counted as failed and the run goes on;
- outputs that differ from the reference values are rejected;
- without the program's sources the benchmark exits nonzero and prints
  no result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import expected  # noqa: E402
import run  # noqa: E402
from jobs import WORKLOADS, cycles  # noqa: E402


def first_cycles(workload, seed, count=2):
    stream = cycles(workload, seed)
    return [next(stream) for _ in range(count)]


class JobDrawTest(unittest.TestCase):
    def test_same_seed_same_jobs_other_seed_other_jobs(self):
        for w in WORKLOADS:
            self.assertEqual(first_cycles(w, 7), first_cycles(w, 7))
            self.assertNotEqual(first_cycles(w, 7), first_cycles(w, 8))

    def test_every_job_has_reference_values(self):
        for w in WORKLOADS:
            for batch in first_cycles(w, 3, count=4):
                for job in batch:
                    if job[0] in ("verify", "dim-rank", "finite-model"):
                        self.assertTrue(expected.expected_labels(job), job)


class TracedRunTest(unittest.TestCase):
    def test_counts_repeat_for_the_same_seed(self):
        results = [run.measure("exact-qv", 5, 0, trace=True, max_jobs=3)[0]
                   for _ in range(2)]
        for r in results:
            self.assertTrue(r["correct"])
            self.assertEqual(r["attempted"], 6)
        a, b = (r["metrics"] for r in results)
        self.assertEqual(set(a), set(b))
        counted = [k for k in a if not k.endswith("self_s")
                   and k != "trace.overhead_ratio"]
        self.assertIn("scalars.rf_ops", counted)
        self.assertIn("linalg.echelon_useful_ratio", counted)
        for k in counted:
            self.assertEqual(a[k]["value"], b[k]["value"], k)
        self.assertGreater(a["scalars.calls"]["value"], 0)


class FailureTest(unittest.TestCase):
    def test_timeout_counts_as_failed_and_run_continues(self):
        result, _, records = run.measure("exact-qv", 1, 0, trace=False,
                                         job_timeout=0.05, max_jobs=3)
        self.assertEqual(result["attempted"], 3)
        self.assertEqual(result["failed"], 3)
        self.assertFalse(result["correct"])
        self.assertTrue(all(r["reason"].startswith("timeout")
                            for r in records))
        self.assertEqual(result["metrics"]["verified_share"]["value"], 0.0)

    def test_wrong_output_is_a_mismatch(self):
        job = ["verify", "--n", "1", "--suite", "hecke", "--seed", "1",
               "--format", "json", "--out", "out.json"]
        labels = expected.HECKE_LABELS
        with tempfile.TemporaryDirectory(dir=HERE) as d:
            path = os.path.join(d, "out.json")

            def write(checks):
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"checks": checks, "ok": True}, fh)

            write([[label, True] for label in labels])
            self.assertGreater(expected.check_output(job, d), 0)
            for bad in ([[label, True] for label in labels[:-1]],
                        [[label, i != 1] for i, label in enumerate(labels)],
                        [[label + "!", True] for label in labels]):
                write(bad)
                with self.assertRaises(expected.Mismatch):
                    expected.check_output(job, d)

    def test_no_sources_exits_nonzero_without_result(self):
        with tempfile.TemporaryDirectory(dir=HERE) as d:
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("tmp*",
                                                          "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "exact-qv", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
