"""Seeded input generation: reproducible per seed, fixed mix across seeds.

    python3 -m unittest discover -s perfbench/tests
"""
from __future__ import annotations

import unittest
from collections import Counter

from support import scratch_dir

import workloads


def snapshot(workload: str, seed: int, pass_index: int, workdir) -> tuple[list, dict]:
    ops = workloads.build(workload, seed, pass_index, workdir)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    argv = [tuple(arg.replace(str(workdir), "DIR") for arg in op.argv) for op in ops]
    return argv, files


def histogram(ops) -> Counter:
    return Counter(
        (op.spec.size if op.spec else None,
         tuple(arity for _, arity, _ in op.spec.ops) if op.spec else None,
         op.argv[0])
        for op in ops
    )


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_identical_files_and_argv(self):
        for workload in workloads.WORKLOADS:
            with scratch_dir("same") as d, scratch_dir("other") as other:
                first = snapshot(workload, 7, 0, d)
                workloads.build(workload, 8, 0, other)
                # rewritten in place over another seed's files
                second = snapshot(workload, 7, 0, other)
            self.assertEqual(first, second, workload)

    def test_other_seed_changes_files_not_the_mix(self):
        for workload in ("cli-cold", "rank-sweep"):
            with scratch_dir("a") as a, scratch_dir("b") as b:
                ops_a = workloads.build(workload, 1, 0, a)
                ops_b = workloads.build(workload, 2, 0, b)
                files_a = {p.name: p.read_bytes() for p in a.iterdir()}
                files_b = {p.name: p.read_bytes() for p in b.iterdir()}
            self.assertEqual(files_a.keys(), files_b.keys())
            changed = sum(files_a[name] != files_b[name] for name in files_a)
            self.assertEqual(changed, len(files_a), workload)
            self.assertEqual(histogram(ops_a), histogram(ops_b))

    def test_suite_sweep_permutes_all_twelve_suites(self):
        first = [op.argv for op in workloads.suite_sweep(1)]
        second = [op.argv for op in workloads.suite_sweep(2)]
        self.assertNotEqual(first, second)
        self.assertEqual(sorted(first), sorted(second))
        self.assertEqual(sorted(a[2] for a in first), sorted(workloads.SUITES))

    def test_cli_cold_passes_draw_fresh_inputs(self):
        with scratch_dir("p") as d:
            ops0 = workloads.build("cli-cold", 3, 0, d)
            ops1 = workloads.build("cli-cold", 3, 1, d)
        self.assertEqual(histogram(ops0), histogram(ops1))
        self.assertNotEqual([op.spec for op in ops0], [op.spec for op in ops1])
        self.assertGreaterEqual(len(ops0), 200)

    def test_relabel_is_an_isomorphism(self):
        base = workloads.shape("ring5")
        perm = (3, 0, 4, 1, 2)
        copy = workloads.relabel(base, perm)
        self.assertEqual(copy.top, perm[base.top])
        add = dict((name, table) for name, _, table in base.ops)["add"]
        add2 = dict((name, table) for name, _, table in copy.ops)["add"]
        for a in range(5):
            for b in range(5):
                self.assertEqual(add2[perm[a] * 5 + perm[b]], perm[add[a * 5 + b]])


if __name__ == "__main__":
    unittest.main()
