"""Named verification suites: pass/fail status, counts, and report format.

One suite (theorem-b) checks a claimed equivalence whose converse direction
is genuinely false on small instances; its failure count and minimal
counterexample are pinned here on purpose. Weakening that check would hide
real behavior; acceptance criterion 2 checks the forward direction on every
case and that the reported failures are exactly the converse's
counterexamples, computed by term enumeration.
"""
from __future__ import annotations

import pytest

from finalg import SUITE_NAMES, closure, run_suite
from finalg.errors import UnknownSuite

PASSING_SUITES = (
    "theorem-a",
    "theorem-c",
    "clot-idempotent",
    "term-oracle",
    "semiring",
    "comm-monoid",
    "maltsev",
    "subtractive",
    "jonsson-tarski",
    "rank0",
    "nat-chain",
)


class TestSuiteRuns:
    @pytest.mark.parametrize("name", PASSING_SUITES)
    def test_suite_passes(self, name):
        report = run_suite(name)
        assert report.passed, "\n".join(report.lines())
        assert report.cases > 0
        assert report.elapsed >= 0.0

    def test_all_names_are_runnable(self):
        assert set(PASSING_SUITES) | {"theorem-b"} == set(SUITE_NAMES)

    def test_frozen_case_counts(self):
        assert run_suite("theorem-a").cases == 209
        assert run_suite("clot-idempotent").cases == 240
        assert run_suite("term-oracle").cases == 720
        assert run_suite("theorem-c").cases == 2090
        assert run_suite("nat-chain").cases == 9

    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("no-such-suite")

    def test_deterministic(self):
        a = run_suite("theorem-a")
        b = run_suite("theorem-a")
        assert a.cases == b.cases
        assert a.failures == b.failures

    def test_smaller_limit_shrinks_scope(self):
        assert run_suite("theorem-a", limit=2).cases < 209

    def test_nat_chain_custom_config(self):
        report = run_suite("nat-chain", primes=(2, 3, 5), depth=2)
        assert report.passed
        assert report.cases == 5  # seed check + two stages with two checks each


class TestKernelRuns:
    # every nonempty set of every entry closes its R_I once, for the suite's
    # own checks, its ranks and its semicongruence_generated calls together;
    # maltsev also closes its 603 pair sets but the 72 seeds that are some
    # I x {top}, and each two-pair set grows from its kept singleton
    @pytest.mark.parametrize("name, runs", [
        ("subtractive", 78), ("jonsson-tarski", 78), ("maltsev", 609), ("rank0", 25),
        ("theorem-c", 209), ("term-oracle", 209), ("semiring", 54),
    ])
    def test_kernel_runs_per_suite(self, name, runs, monkeypatch):
        closes = []
        close = closure._close
        monkeypatch.setattr(closure, "_close", lambda *args: closes.append(1) or close(*args))
        run_suite(name)
        assert len(closes) == runs


class TestTheoremBSuite:
    """The equivalence 'set covers the subalgebra of top iff induction covers
    the generated subalgebra' fails in the converse direction; the suite
    reports those instances instead of masking them."""

    def test_failure_count_is_stable(self):
        report = run_suite("theorem-b")
        assert not report.passed
        assert report.cases == 209
        assert len(report.failures) == 67

    def test_minimal_counterexample_reported(self):
        report = run_suite("theorem-b")
        first = report.failures[0]
        assert first.algebra == "z2-monoid"
        assert first.subset == "{1}"
        assert first.expected == "set-covers-top-subalgebra=False"
        assert first.actual == "induction-covers-generated=True"

    def test_summary_and_failure_lines(self):
        report = run_suite("theorem-b")
        lines = report.lines()
        assert lines[0] == "FAIL theorem-b 209 67"
        assert lines[1] == (
            "fail algebra=z2-monoid set={1} "
            "check=covers-top-subalgebra-iff-induction-covers-generated "
            "expected=set-covers-top-subalgebra=False "
            "actual=induction-covers-generated=True"
        )
        assert len(lines) == 68


class TestReportFormat:
    def test_pass_summary_shape(self):
        report = run_suite("rank0")
        assert report.summary() == f"PASS rank0 {report.cases} 0"
        assert report.lines() == [report.summary()]
