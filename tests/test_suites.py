"""Named verification suites: pass/fail status, counts, and report format.

One suite (theorem-b) checks a claimed equivalence whose converse direction
is genuinely false on small instances; its failure count and minimal
counterexample are pinned here on purpose. Weakening that check would hide
real behavior; acceptance criterion 2 checks the forward direction on every
case and that the reported failures are exactly the converse's
counterexamples, computed by term enumeration.
"""
from __future__ import annotations

import random

import pytest

from finalg import (
    SUITE_NAMES,
    BinRel,
    CatalogEntry,
    ElementSet,
    algebra_rank,
    build_catalog,
    closure,
    generate_subalgebra,
    left_image,
    make_algebra,
    product_square,
    right_image,
    run_suite,
    subsets_in_order,
    suites,
)
from finalg.errors import InvalidPrimeList, UnknownSuite
from finalg.catalog import cyclic_ring, saturating_monoid
from references import square_seed

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

    @pytest.mark.parametrize("name", ["theorem-a", "theorem-c", "term-oracle", "maltsev"])
    def test_passing_checks_format_no_set(self, name, monkeypatch):
        # a check formats its set and both sides only when it fails, and
        # lists no relation's pairs for it
        def refuse(self):
            raise AssertionError("a passing check formatted a set")

        monkeypatch.setattr(ElementSet, "__str__", refuse)
        monkeypatch.setattr(BinRel, "pairs", refuse)
        report = run_suite(name)
        assert report.passed
        assert report.cases == {"theorem-a": 209, "theorem-c": 2090, "term-oracle": 720,
                                "maltsev": 729}[name]

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

    def test_nat_chain_past_its_truncation(self):
        # seed check, stage 1 with two checks, stage 2 stable after truncation:
        # stages 3 and 4 equal stage 2 and are not checked again
        assert run_suite("nat-chain", primes=(2, 3), depth=4).summary() == "PASS nat-chain 4 0"

    def test_nat_chain_huge_depth_ends_at_the_fixpoint(self, ten_seconds):
        # the chain ends at stage 2, so a depth of 10**8 costs what depth 2 does
        assert run_suite("nat-chain", primes=(2, 3), depth=10**8).summary() == \
            "PASS nat-chain 4 0"

    def test_nat_chain_empty_primes_are_refused(self):
        with pytest.raises(InvalidPrimeList):
            run_suite("nat-chain", primes=())

    def test_nat_chain_on_random_prime_lists(self):
        # the seed check, two checks per stage up to stage m - 1, and one
        # stability check once the depth reaches m
        rng = random.Random("nat-chain-suite")
        small_primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
        for _ in range(50):
            primes = tuple(rng.sample(small_primes, rng.randint(2, 12)))
            depth = rng.randint(0, 14)
            m = len(primes)
            cases = 1 + 2 * min(depth, m - 1) + (depth >= m)
            assert run_suite("nat-chain", primes=primes, depth=depth).summary() == \
                f"PASS nat-chain {cases} 0", (primes, depth)


# the entries each catalog suite takes at limits 4 and 8, in catalog order;
# jonsson-tarski checks every entry it takes
_EVERY_4 = (
    "z1-monoid z1-group z1-ring z1-semiring z1-module pointed-1 z2-monoid z3-monoid z4-monoid "
    "sat1-monoid sat2-monoid sat3-monoid z2-group z3-group z4-group z2-ring z3-ring z4-ring "
    "bool-semiring z2-semiring z3-semiring z4-semiring minplus0-semiring minplus1-semiring "
    "minplus2-semiring z2-module z3-module z4-module pointed-2 pointed-3 pointed-4"
)
_EVERY_8 = (
    "z1-monoid z1-group z1-ring z1-semiring z1-module pointed-1 z2-monoid z3-monoid z4-monoid "
    "z5-monoid z6-monoid z7-monoid z8-monoid sat1-monoid sat2-monoid sat3-monoid sat4-monoid "
    "sat5-monoid sat6-monoid sat7-monoid z2-group z3-group z4-group z5-group z6-group z7-group "
    "z8-group z2-ring z3-ring z4-ring z5-ring z6-ring z7-ring z8-ring bool-semiring z2-semiring "
    "z3-semiring z4-semiring z5-semiring z6-semiring z7-semiring z8-semiring minplus0-semiring "
    "minplus1-semiring minplus2-semiring minplus3-semiring minplus4-semiring minplus5-semiring "
    "minplus6-semiring z2-module z3-module z4-module z5-module z6-module z7-module z8-module "
    "pointed-2 pointed-3 pointed-4 pointed-5 pointed-6 pointed-7 pointed-8"
)
_SUBTRACTIVE_4 = (
    "z1-group z1-ring z1-module z2-group z3-group z4-group z2-ring z3-ring z4-ring "
    "z2-module z3-module z4-module"
)
_SUBTRACTIVE_8 = (
    "z1-group z1-ring z1-module z2-group z3-group z4-group z5-group z6-group z7-group z8-group "
    "z2-ring z3-ring z4-ring z5-ring z6-ring z7-ring z8-ring z2-module z3-module z4-module "
    "z5-module z6-module z7-module z8-module"
)
TAKEN = {
    "theorem-a": (_EVERY_4, _EVERY_8),
    "theorem-b": (_EVERY_4, _EVERY_8),
    "theorem-c": (_EVERY_4, _EVERY_8),
    "clot-idempotent": (_EVERY_4, _EVERY_8),
    "term-oracle": (_EVERY_4, _EVERY_4),
    "semiring": (
        "z1-semiring bool-semiring z2-semiring z3-semiring z4-semiring minplus0-semiring "
        "minplus1-semiring minplus2-semiring",
        "z1-semiring bool-semiring z2-semiring z3-semiring z4-semiring z5-semiring z6-semiring "
        "z7-semiring z8-semiring minplus0-semiring minplus1-semiring minplus2-semiring "
        "minplus3-semiring minplus4-semiring minplus5-semiring minplus6-semiring",
    ),
    "comm-monoid": (
        "z1-monoid z2-monoid z3-monoid z4-monoid sat1-monoid sat2-monoid sat3-monoid",
        "z1-monoid z2-monoid z3-monoid z4-monoid z5-monoid z6-monoid z7-monoid z8-monoid "
        "sat1-monoid sat2-monoid sat3-monoid sat4-monoid sat5-monoid sat6-monoid sat7-monoid",
    ),
    "maltsev": (_SUBTRACTIVE_4, _SUBTRACTIVE_8),
    "subtractive": (_SUBTRACTIVE_4, _SUBTRACTIVE_8),
    "jonsson-tarski": (_SUBTRACTIVE_4, _SUBTRACTIVE_8),
    "rank0": (
        "pointed-2 pointed-3 pointed-4",
        "pointed-2 pointed-3 pointed-4 pointed-5 pointed-6 pointed-7 pointed-8",
    ),
}


class TestSelection:
    def test_every_catalog_suite_is_pinned(self):
        assert set(TAKEN) == set(SUITE_NAMES) - {"nat-chain"}

    @pytest.mark.parametrize("limit", [4, 8])
    @pytest.mark.parametrize("name", sorted(TAKEN))
    def test_entries_taken(self, name, limit, monkeypatch):
        # the suite's checks are replaced by a recorder of the entries they get
        taken = []
        _, takes, default_limit = suites._SUITES[name]
        record = (lambda col, alg, top: taken.append(col.algebra), takes, default_limit)
        monkeypatch.setitem(suites._SUITES, name, record)
        run_suite(name, limit=limit)
        assert taken == TAKEN[name][limit == 8].split()

    def test_each_failure_names_its_own_entry(self, monkeypatch):
        # a check that fails on every entry the suite takes: one failure
        # line per entry, in catalog order, each naming that entry
        _, takes, default_limit = suites._SUITES["semiring"]
        fail = (lambda col, alg, top: col.check(False, "-", "fails", True, False),
                takes, default_limit)
        monkeypatch.setitem(suites._SUITES, "semiring", fail)
        assert [f.line() for f in run_suite("semiring").failures] == [
            f"fail algebra={entry} set=- check=fails expected=True actual=False"
            for entry in TAKEN["semiring"][0].split()]

    def test_nat_chain_failures_name_nat_mult(self, monkeypatch):
        monkeypatch.setattr(suites, "nat_mult_deduction_chain",
                            lambda primes, depth: [frozenset({1})] * (depth + 1))
        lines = run_suite("nat-chain").lines()
        assert lines[0].startswith("FAIL nat-chain 9 ") and len(lines) > 1
        assert all(line.startswith("fail algebra=nat-mult ") for line in lines[1:])

    @pytest.mark.parametrize("limit, cases", [(4, 36), (8, 72)])
    def test_jonsson_tarski_checks_every_entry_it_takes(self, limit, cases):
        # three cases per entry: the term and both ranks
        assert run_suite("jonsson-tarski", limit=limit).cases == cases == 3 * len(
            TAKEN["jonsson-tarski"][limit == 8].split())

    def test_jonsson_tarski_skips_an_entry_whose_sub_fails(self, monkeypatch):
        # s(x, y) = x fails s(x, x) = top: the entry counts no case at all
        z3 = next(e for e in build_catalog(4) if e.name == "z3-group")
        tables = {name: z3.algebra.table(name) for name, _ in z3.algebra.sig}
        tables["sub"] = [x for x in range(3) for _ in range(3)]
        broken = make_algebra(z3.algebra.sig, 3, tables, top=0)
        monkeypatch.setattr(suites, "build_catalog",
                            lambda limit: [z3, CatalogEntry("z3-left-sub", broken, z3.kind)])
        report = run_suite("jonsson-tarski")
        assert (report.cases, report.failures) == (3, ())


class TestKernelRuns:
    # a seed runs the kernel only when no kept candidate (the seed without
    # one pair, the stage iterate steps on from, the diagonal) already holds
    # all its pairs; `stopped` counts the runs that end at a kept principal
    # relation, and `folds` the kernel's folds, which see what the run
    # counts cannot: a run that stops later, or not before its first round,
    # folds more; the suite's own checks, its ranks and its
    # semicongruence_generated calls share the Closures of the entry's
    # algebra, which every later suite on that entry shares too
    RUNS = [
        ("subtractive", 18), ("jonsson-tarski", 18), ("maltsev", 60), ("rank0", 11),
        ("theorem-c", 54), ("term-oracle", 54), ("semiring", 18),
    ]

    @pytest.mark.parametrize("name, runs", RUNS, ids=[name for name, _ in RUNS])
    def test_kernel_runs_per_suite(self, name, runs, kernel_runs):
        run_suite(name)
        assert len(kernel_runs) == runs

    def test_kernel_runs_over_every_suite(self, kernel_runs):
        # on a cold catalog the 12 suites close 107 distinct seeds, each
        # once, in 264 folds, and 57 of those runs end at a kept principal
        # relation; a second run of any suite finds every relation kept and
        # folds nothing
        for name in SUITE_NAMES:
            run_suite(name)
        assert len(kernel_runs) == 107
        assert sum(run.stopped for run in kernel_runs) == 57
        assert sum(run.folds for run in kernel_runs) == 264
        for name in SUITE_NAMES:
            kernel_runs.clear()
            run_suite(name)
            assert not kernel_runs, name

    @pytest.mark.parametrize("mode", ["induction", "deduction"])
    def test_kernel_runs_per_rank(self, mode, kernel_runs):
        # of z8-ring's 255 nonempty sets only the seven singletons but {top}
        # run the kernel; for every larger set, the kept relation of the set
        # less one element already holds its pairs. Four singletons {x} end
        # at the kept R of an earlier singleton {y}, y = gcd(x, 8), once
        # their rows hold (y, top); the seven runs fold 41 times
        alg = next(e.algebra for e in build_catalog(8) if e.name == "z8-ring")
        assert algebra_rank(alg, alg.top, mode).rank == 1
        assert len(kernel_runs) == 7
        assert sum(run.stopped for run in kernel_runs) == 4
        assert sum(run.folds for run in kernel_runs) == 41

    @pytest.mark.parametrize("builder, rank, runs, stops, folds", [
        (saturating_monoid, 4, 186, 38, 792), (cyclic_ring, 1, 21, 16, 83),
    ], ids=["sat12-monoid", "z12-ring"])
    def test_kernel_runs_per_deduction_rank(self, builder, rank, runs, stops, folds,
                                            kernel_runs):
        # pins the candidate order on carriers past z8-ring: a seed runs the
        # kernel only when no kept candidate holds its pairs, and a run ends
        # early once it reaches the generator of a kept principal relation
        # that holds the seed
        alg = builder(12).algebra
        assert algebra_rank(alg, alg.top, "deduction").rank == rank
        assert len(kernel_runs) == runs
        assert sum(run.stopped for run in kernel_runs) == stops
        assert sum(run.folds for run in kernel_runs) == folds

    def test_equal_relations_share_one_tuple_after_a_rank(self, kernel_runs):
        # z16-ring induction keeps 65,536 seeds over 5 distinct relations;
        # its 15 kernel runs fold 65 times, and 11 of them end at a kept
        # principal relation and keep that very tuple, so the seeds share
        # 5 tuples, not 16
        alg = cyclic_ring(16).algebra
        assert algebra_rank(alg, alg.top, "induction").rank == 1
        kept = vars(alg)["_closures"]._rows
        assert len(kept) == 1 << 16
        assert len({id(rows) for rows in kept.values()}) == len(set(kept.values())) == 5
        assert len(kernel_runs) == 15
        assert sum(run.stopped for run in kernel_runs) == 11
        assert sum(run.folds for run in kernel_runs) == 65


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
                seed = square_seed(n, [(x, top) for x in subset])
                kept[subset.mask] = BinRel.from_support(generate_subalgebra(square, seed), n)
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


def drop_pair(monkeypatch, name, pairs, dropped):
    """Make the suites' `semicongruence_generated` leave `dropped` out of the
    relation it returns for exactly these pairs on the entry of this name."""
    target = next(e.algebra for e in build_catalog(4) if e.name == name)
    generated = suites.semicongruence_generated

    def drop(alg, given):
        rel = generated(alg, given)
        if alg == target and sorted(given) == pairs:
            return BinRel.from_pairs(rel.size, [p for p in rel.pairs() if p != dropped])
        return rel

    monkeypatch.setattr(suites, "semicongruence_generated", drop)


class TestFailureLines:
    """A check whose sides are relations formats them only when it fails;
    these pin the lines it then prints."""

    def test_term_oracle_lists_both_relations(self, monkeypatch):
        # z4-ring with I = {0,2} generates congruence mod 2, less (2,0) here
        drop_pair(monkeypatch, "z4-ring", [(0, 0), (2, 0)], (2, 0))
        assert run_suite("term-oracle").lines() == [
            "FAIL term-oracle 720 1",
            "fail algebra=z4-ring set={0,2} check=semicongruence-equals-term-enumeration "
            "expected=[(0, 0), (0, 2), (1, 1), (1, 3), (2, 0), (2, 2), (3, 1), (3, 3)] "
            "actual=[(0, 0), (0, 2), (1, 1), (1, 3), (2, 2), (3, 1), (3, 3)]",
        ]

    def test_maltsev_labels_the_pair_set(self, monkeypatch):
        # z3-group is simple: (0,1) generates the full relation, less (1,0) here
        drop_pair(monkeypatch, "z3-group", [(0, 1)], (1, 0))
        assert run_suite("maltsev").lines() == [
            "FAIL maltsev 729 1",
            "fail algebra=z3-group set=(0,1) check=semicongruence-already-congruence "
            "expected=symmetric and transitive "
            "actual=[(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]",
        ]


class TestReportFormat:
    def test_pass_summary_shape(self):
        report = run_suite("rank0")
        assert report.summary() == f"PASS rank0 {report.cases} 0"
        assert report.lines() == [report.summary()]
