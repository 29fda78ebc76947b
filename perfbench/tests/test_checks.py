"""Output checks: the designed theorem-b failure passes, corruption fails."""
from __future__ import annotations

import copy
import json
import unittest

from support import BENCH, scratch_dir

import finalg.cli  # noqa: F401  (run_pass looks the module up)
import checks
import run
import workloads
from run import check_results, run_pass


def checked(ops, expected, recorded=None):
    done, _ = run_pass(ops)
    results = [(0, i, r) for i, r in enumerate(done)]
    return done, check_results(results, expected, recorded or {})


class Checks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.expected = checks.load_expected()
        cls.suite_ops = [op for op in workloads.suite_sweep(1)
                         if op.key in ("theorem-b", "nat-chain", "rank0")]

    def test_designed_theorem_b_failure_counts_as_correct(self):
        done, failures = checked(self.suite_ops, self.expected)
        self.assertEqual(failures, [])
        theorem_b = next(r for r in done if r[0].key == "theorem-b")
        self.assertEqual(theorem_b[1], 1)
        self.assertTrue(theorem_b[2].startswith("FAIL theorem-b 209 67\n"))

    def test_negative_control_one_corrupted_recorded_line(self):
        corrupted = copy.deepcopy(self.expected)
        lines = corrupted["suites"]["nat-chain"]["stdout"].splitlines(keepends=True)
        lines[0] = lines[0].replace("PASS", "FAIL")
        corrupted["suites"]["nat-chain"]["stdout"] = "".join(lines)
        _, failures = checked(self.suite_ops, corrupted)
        self.assertEqual(len(failures), 1)
        self.assertGreater(len(failures) / len(self.suite_ops), 0)

    def test_cli_cold_ops_pass_and_wrong_outputs_fail(self):
        with scratch_dir("checks") as d:
            ops = workloads.build("cli-cold", 1, 0, d)
            small = [op for op in ops if op.kind == "random"][:24]
            small += [op for op in ops if op.kind == "shape" and op.spec.size <= 8]
            done, failures = checked(small, self.expected)
        self.assertEqual(failures, [])
        for op, rc, stdout, _ in done:
            if op.cmd in ("cong", "semicong", "normal", "clot"):
                wrong = stdout.replace("\n", "", 1) if stdout.count("\n") > 1 else stdout + "0 0\n"
                self.assertIsNotNone(checks.check(op, rc, wrong, self.expected), op.argv)
            self.assertIsNotNone(checks.check(op, 2, stdout, self.expected))
            self.assertIsNotNone(checks.check(op, "exception: boom", stdout, self.expected))

    def test_recorded_digest_mismatch_fails(self):
        with scratch_dir("digest") as d:
            op = workloads.build("cli-cold", 1, 0, d)[-1]
            done, failures = checked([op], self.expected, {"0": ["0" * 16]})
        self.assertEqual(len(failures), 1)
        self.assertIn("recorded", failures[0])

    def test_relabelled_recording_matches_relabelled_run(self):
        text = "{0,2}\n{0} ⊂ {0,2}\n"
        self.assertEqual(checks.relabel_output("ind", text, (2, 0, 1)), "{1,2}\n{2} ⊂ {1,2}\n")
        self.assertEqual(checks.relabel_output("cong", "0 0\n0 1\n1 1\n", (1, 0)),
                         "0 0\n1 0\n1 1\n")


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(run.PER_LAYER))
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.layer_unit(m["name"]), m["name"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
