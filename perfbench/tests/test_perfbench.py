"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

The golden-check tests take milliseconds. The smoke tests build perfbench
when needed and run every workload once in each trace mode at --seconds 1
(two or three passes each, about three minutes in all on a 4-core x86 box).
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (the module under test)

BENCHMARK = run.BENCHMARK


def table2_rows_of(experiments_text):
    """The rows a correct paper-table2 run prints, in its "a|<row>" form."""
    return [f"{part}|{line}" for (part, _), line in
            run.experiments_table2_rows(experiments_text).items()]


def change_one_digit(text):
    """`text` with its last digit replaced by another digit."""
    match = list(re.finditer(r"\d", text))[-1]
    digit = "1" if match.group() != "1" else "2"
    return text[:match.start()] + digit + text[match.end():]


class GoldenChecks(unittest.TestCase):
    def setUp(self):
        self.experiments = run.EXPERIMENTS_FILE.read_text()
        self.golden = json.loads(run.GOLDEN_FILE.read_text())

    def test_table2_block_has_every_row(self):
        rows = run.experiments_table2_rows(self.experiments)
        self.assertEqual(len(rows), 24)  # 12 datasets x labels (a), (b)

    def test_table2_rows_match_themselves(self):
        rows = table2_rows_of(self.experiments)
        self.assertEqual(run.check_table2_rows(rows, self.experiments), [])

    def test_table2_one_digit_change_in_experiments_fails(self):
        rows = table2_rows_of(self.experiments)
        row = next(r for r in rows if "| T-AB |" in r and r.startswith("b|"))
        line = row.split("|", 1)[1]
        edited = self.experiments.replace(line, change_one_digit(line))
        self.assertNotEqual(edited, self.experiments)
        failures = run.check_table2_rows(rows, edited)
        self.assertEqual(len(failures), 1)
        self.assertIn("T-AB", failures[0])

    def test_table2_one_digit_change_in_output_fails(self):
        rows = table2_rows_of(self.experiments)
        rows[0] = change_one_digit(rows[0])
        self.assertEqual(len(run.check_table2_rows(rows, self.experiments)), 1)

    def test_table2_missing_rows_fail(self):
        self.assertNotEqual(run.check_table2_rows([], self.experiments), [])

    def test_digest_one_digit_change_fails(self):
        for workload in run.WORKLOADS:
            digest = self.golden[workload]
            self.assertEqual(run.check_digest(workload, digest, self.golden), [])
            edited = dict(self.golden, **{workload: change_one_digit(digest)})
            self.assertNotEqual(run.check_digest(workload, digest, edited), [])

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        samples = [float(i) for i in range(1000)]
        p, value, beyond = run.tail(samples, 1000)
        self.assertEqual((p, value, beyond), (99.0, 989.0, 10))
        self.assertEqual(run.tail(samples, 100)[0], 90.0)


class Smoke(unittest.TestCase):
    """Every workload, briefly: all checks pass and every metric named in
    BENCHMARK.json is printed with its unit."""

    def run_bench(self, workload, trace):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", "0", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr[-2000:])
        lines = done.stdout.strip().splitlines()
        return lines[:-1], json.loads(lines[-1])

    def check(self, workload, trace, section):
        text, result = self.run_bench(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertIn("checks   all passed", "\n".join(text))
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, unit in expected.items():
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], unit, name)
            self.assertIsInstance(metric["value"], (int, float), name)
            self.assertTrue(any(re.match(rf"\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\b",
                                         line) for line in text), name)
            if section == "end_to_end":
                self.assertGreater(metric["value"], 0, name)
        return text

    def test_workloads(self):
        for workload in [w["name"] for w in BENCHMARK["workloads"]]:
            with self.subTest(workload=workload, trace=0):
                self.check(workload, 0, "end_to_end")
            with self.subTest(workload=workload, trace=1):
                text = self.check(workload, 1, "per_layer")
                attribution = next(l for l in text if l.startswith("attribution:"))
                self.assertNotIn("FLAG", attribution)

    def test_fails_without_repository_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "paper-table2",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
