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

from finalg import (
    SUITE_NAMES,
    BinRel,
    algebra_rank,
    build_catalog,
    closure,
    generate_subalgebra,
    left_image,
    product_square,
    right_image,
    run_suite,
    subsets_in_order,
)
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
    # a seed runs the kernel only when no kept candidate (the seed without
    # one pair, the stage iterate steps on from, the diagonal) already holds
    # all its pairs; the suite's own checks, its ranks and its
    # semicongruence_generated calls share one kept Closures per entry
    RUNS = [
        ("subtractive", 18), ("jonsson-tarski", 18), ("maltsev", 60), ("rank0", 11),
        ("theorem-c", 54), ("term-oracle", 54), ("semiring", 18),
    ]

    @pytest.mark.parametrize("name, runs", RUNS, ids=[name for name, _ in RUNS])
    def test_kernel_runs_per_suite(self, name, runs, monkeypatch):
        closes = []
        close = closure._close
        monkeypatch.setattr(closure, "_close", lambda *args: closes.append(1) or close(*args))
        run_suite(name)
        assert len(closes) == runs

    @pytest.mark.parametrize("mode", ["induction", "deduction"])
    def test_kernel_runs_per_rank(self, mode, monkeypatch):
        # of z8-ring's 255 nonempty sets only the seven singletons but {top}
        # run the kernel; for every larger set, the kept relation of the set
        # less one element already holds its pairs
        alg = next(e.algebra for e in build_catalog(8) if e.name == "z8-ring")
        closes = []
        close = closure._close
        monkeypatch.setattr(closure, "_close", lambda *args: closes.append(1) or close(*args))
        assert algebra_rank(alg, alg.top, mode).rank == 1
        assert len(closes) == 7


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


def _theorem_c_violations(limit: int):
    """Every check of the `theorem-c` suite, computed without `finalg.closure`:
    R_J is the subalgebra of A x A generated by Δ ∪ J x {top} (the square's
    worklist closure), stage k+1 is the image of stage k under R of stage k,
    and R_I^k(I) is the k-th image of I under R_I. Returns the case count and
    each violated (algebra, set, check, lower bound holds)."""
    max_n, hi = 3, 7
    cases, violations = 0, []
    for entry in build_catalog(limit):
        alg, top = entry.algebra, entry.algebra.top
        n = alg.size
        square = product_square(alg)
        kept = {}

        def relation(subset):
            if subset.mask not in kept:
                seed = BinRel.from_pairs(n, [(x, top) for x in subset]).union(BinRel.diagonal(n))
                kept[subset.mask] = BinRel.from_support(
                    generate_subalgebra(square, seed.support()), n)
            return kept[subset.mask]

        for subset in subsets_in_order(n):
            for mode, image in (("induction", left_image), ("deduction", right_image)):
                stages = [subset]
                while (nxt := image(relation(stages[-1]), stages[-1])) != stages[-1]:
                    stages.append(nxt)
                powers = [subset]
                while (nxt := image(relation(subset), powers[-1])) != powers[-1]:
                    powers.append(nxt)
                stages += stages[-1:] * (max_n + 1 - len(stages))
                union = powers[-1]
                powers += powers[-1:] * (hi + 1 - len(powers))
                for k in range(max_n + 1):
                    lower = powers[k].issubset(stages[k])
                    if not (lower and stages[k].issubset(powers[2**k - 1])):
                        violations.append(
                            (entry.name, str(subset), f"{mode}-sandwich-n{k}", lower))
                if stages[-1] != union:
                    violations.append(
                        (entry.name, str(subset), f"{mode}-fixpoint-is-union-of-powers", True))
                cases += max_n + 2
    return cases, violations


class TestTheoremCSuite:
    """`theorem-c` passes at its default limit and is refuted at limit 6, in
    deduction only, by the upper bound stage(n) ⊆ R_I^(2^n-1)(I) and by the
    fixpoint being the union of the powers. On `sat5-monoid` with top 0 and
    I = {3,4}, the stages are {3,4} ⊂ {0,1,3,4} ⊂ {0,1,2,3,4}, while every
    power of R_I takes I to {0,1,3,4}. At limit 8 the failing sets are, on
    `sat5`, `sat6` and `sat7`, exactly those whose deduction takes two or
    more steps."""

    def test_failures_at_limit_six_are_exactly_the_violations(self):
        report = run_suite("theorem-c", limit=6)
        cases, violations = _theorem_c_violations(6)
        assert report.cases == cases == 9610
        assert all(lower for *_, lower in violations)
        assert not [v for v in violations if v[2].startswith("induction")]
        assert [(f.algebra, f.subset, f.check) for f in report.failures] == \
            [v[:3] for v in violations] == [
                ("sat5-monoid", subset, check)
                for subset in ("{3,4}", "{0,3,4}")
                for check in ("deduction-sandwich-n2", "deduction-sandwich-n3",
                              "deduction-fixpoint-is-union-of-powers")
            ]
        assert report.failures[0].actual == "{0,1,2,3,4}"
        assert report.failures[0].expected == "{0,1,3,4}<=stage<={0,1,3,4}"

    def test_failures_at_limit_eight_are_the_multi_step_deductions(self):
        # read off the engine: a set fails iff its deduction needs two or
        # more steps, iff its fixpoint is not the union of the R_I powers;
        # the engine-independent pin at this limit takes 45 s, too slow here
        report = run_suite("theorem-c", limit=8)
        assert report.summary() == "FAIL theorem-c 40170 102"
        failing: dict[tuple[str, str], list[str]] = {}
        for f in report.failures:
            failing.setdefault((f.algebra, f.subset), []).append(f.check)
        assert [name for name, _ in failing] == \
            ["sat5-monoid"] * 2 + ["sat6-monoid"] * 10 + ["sat7-monoid"] * 22
        assert all(checks == ["deduction-sandwich-n2", "deduction-sandwich-n3",
                              "deduction-fixpoint-is-union-of-powers"]
                   for checks in failing.values())
        multi_step, not_union = set(), set()
        for entry in build_catalog(8):
            alg, top = entry.algebra, entry.algebra.top
            for subset in subsets_in_order(alg.size):
                ded = closure.iterate(alg, top, subset, "deduction")
                rel = closure.semicongruence_generated(alg, [(x, top) for x in subset])
                key = (entry.name, str(subset))
                if ded.steps_to_fixpoint >= 2:
                    multi_step.add(key)
                if closure.power_images(rel, subset, "right")[-1] != ded.final():
                    not_union.add(key)
        assert set(failing) == multi_step == not_union


class TestReportFormat:
    def test_pass_summary_shape(self):
        report = run_suite("rank0")
        assert report.summary() == f"PASS rank0 {report.cases} 0"
        assert report.lines() == [report.summary()]
