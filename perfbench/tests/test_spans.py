"""Layer tracing: self-time arithmetic, and wrappers that leave no trace."""
from __future__ import annotations

import sys
import unittest

from support import scratch_dir

import finalg.cli  # noqa: F401  (loads every finalg module)
import workloads
from run import run_pass
from spans import Tracer, self_times


def finalg_attributes() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "finalg" or name.startswith("finalg.")
        for attr, value in vars(module).items()
    }


class SelfTime(unittest.TestCase):
    # span: [layer, start, end, parent, op, tag]
    TREE = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 4.0, 0, 0, None],
        ["a.leaf", 2.0, 3.0, 1, 0, None],
        ["b", 5.0, 9.0, 0, 0, None],
        ["b.leaf", 6.0, 6.5, 3, 0, None],
        ["b.leaf", 7.0, 8.0, 3, 0, None],
    ]

    def test_self_time_is_duration_minus_children(self):
        self.assertEqual(self_times(self.TREE), [3.0, 2.0, 1.0, 2.5, 0.5, 1.0])

    def test_nested_self_times_add_up_to_the_root(self):
        self.assertEqual(sum(self_times(self.TREE)), 10.0)
        tracer = Tracer()
        tracer.spans = [list(rec) for rec in self.TREE]
        self.assertEqual(tracer.op_gaps({0: 10.5}), {0: 0.5})

    def test_op_without_a_cli_main_root_has_an_infinite_gap(self):
        tracer = Tracer()
        tracer.spans = [list(rec) for rec in self.TREE[1:3]]  # no root, orphan "a"
        tracer.spans[0][3] = -1
        tracer.spans[1][3] = 0
        self.assertEqual(tracer.op_gaps({0: 10.0, 1: 1.0}),
                         {0: float("inf"), 1: float("inf")})

    def test_overlapping_children_are_counted_once(self):
        spans = [
            ["root", 0.0, 10.0, -1, 0, None],
            ["x", 2.0, 6.0, 0, 0, None],
            ["y", 5.0, 8.0, 0, 0, None],
            ["z", 9.0, 12.0, 0, 0, None],
        ]
        self.assertEqual(self_times(spans)[0], 10.0 - 6.0 - 1.0)


class TracedRun(unittest.TestCase):
    def test_traced_run_restores_every_finalg_attribute(self):
        before = finalg_attributes()
        with scratch_dir("trace") as d:
            ops = workloads.build("rank-sweep", 1, 0, d)[-2:]  # monoid8, both modes
            ops += [op for op in workloads.suite_sweep(1) if op.key in ("nat-chain", "rank0")]
            tracer = Tracer()
            with tracer:
                self.assertIsNot(sys.modules["finalg.cli"].main, before[("finalg.cli", "main")])
                done, _ = run_pass(ops, tracer)
            tracer.end_pass()
        after = finalg_attributes()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])
        self.assertEqual([rc for _, rc, _, _ in done], [0, 0, 0, 0])

        metrics = tracer.layer_metrics(passes=1)
        self.assertEqual(metrics["cli.main.calls"], 4)
        # two rank ops, plus both modes on pointed-2..4 inside rank0
        self.assertEqual(metrics["ranks.algebra_rank.calls"], 2 + 6)
        self.assertGreater(metrics["ranks.subsets"], 2 * 255)
        self.assertGreater(metrics["suites.rank0.s"], 0)
        self.assertGreater(metrics["oracles.calls"], 0)
        gaps = tracer.op_gaps({i: r[3] for i, r in enumerate(done)})
        self.assertEqual(sorted(gaps), [0, 1, 2, 3])
        for gap in gaps.values():
            self.assertTrue(0 <= gap < 1e-3, gap)
        roots = [rec for rec in tracer.spans if rec[3] < 0]
        self.assertEqual([rec[0] for rec in roots], ["cli.main"] * 4)


if __name__ == "__main__":
    unittest.main()
