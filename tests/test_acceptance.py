"""Acceptance criteria, one test per criterion.

Each test records a single PASS/FAIL line (echoed again in a summary block at
the end of the pytest run) and then asserts the verdict. Every check is exact
— discrete data needs no tolerances. Criterion 2 checks the coverage theorem
as it holds: the forward direction on every case, and a converse whose
counterexamples, computed independently by term enumeration, are exactly the
failures the `theorem-b` suite reports.
"""
from __future__ import annotations

from finalg import (
    BinRel,
    ElementSet,
    algebra_rank,
    build_catalog,
    congruence_by_unionfind,
    congruence_generated,
    left_image,
    nat_mult_deduction_chain,
    product_square,
    run_suite,
    stabilized_term_images,
    subsets_in_order,
)


def test_criterion_01_normality_equivalence(acceptance):
    catalog = build_catalog(4)
    report = run_suite("theorem-a")
    scope_ok = len(catalog) >= 10 and report.cases == sum(
        2**e.algebra.size - 1 for e in catalog
    )
    ok = acceptance(
        "criterion-01 normal-iff-inductive-and-deductive",
        report.passed and scope_ok,
        f"{report.cases} cases over {len(catalog)} algebras, "
        f"{len(report.failures)} failures",
    )
    assert ok, "\n".join(report.lines()[:6])


def _coverage_by_term_enumeration(entry):
    """Per nonempty subset I: (I, Sg{top}, Sg(I), Ind(I)), every set computed
    by term enumeration, R_I being the term images of Δ ∪ I×{top} in A×A."""
    alg, top = entry.algebra, entry.algebra.top
    n = alg.size
    square = product_square(alg)
    diagonal = sum(1 << (a * n + a) for a in range(n))
    top_sub = stabilized_term_images(alg, ElementSet.of(n, (top,)))
    for subset in subsets_in_order(n):
        mask = diagonal
        for x in subset:
            mask |= 1 << (x * n + top)
        rel = BinRel.from_support(
            stabilized_term_images(square, ElementSet(n * n, mask)), n
        )
        sg = stabilized_term_images(alg, subset)
        yield subset, top_sub, sg, left_image(rel, subset)


def test_criterion_02_coverage_equivalence(acceptance):
    # Sg{top} ⊆ I implies Sg(I) ⊆ Ind(I); the converse is false, and its
    # counterexamples must be exactly the failures the theorem-b suite reports
    report = run_suite("theorem-b")
    cases = 0
    forward_broken = []
    converse_refuted = set()
    z2_sets = None
    for entry in build_catalog(4):
        for subset, top_sub, sg, ind in _coverage_by_term_enumeration(entry):
            cases += 1
            covers_top = top_sub.issubset(subset)
            covers_generated = sg.issubset(ind)
            case = (entry.name, str(subset))
            if covers_top and not covers_generated:
                forward_broken.append(f"{case[0]} {case[1]}: Sg={sg} Ind={ind}")
            if covers_generated and not covers_top:
                converse_refuted.add(case)
            if case == ("z2-monoid", "{1}"):
                z2_sets = (str(top_sub), str(sg), str(ind))
    reported = {(f.algebra, f.subset) for f in report.failures}
    problems = []
    if report.cases != cases:
        problems.append(f"suite ran {report.cases} cases, term enumeration {cases}")
    if forward_broken:
        problems.append("forward direction broken: " + "; ".join(forward_broken[:5]))
    if ("z2-monoid", "{1}") not in converse_refuted:
        problems.append("z2-monoid {1} is not a counterexample to the converse")
    if z2_sets != ("{0}", "{0,1}", "{0,1}"):
        problems.append(f"z2-monoid {{1}}: (Sg{{top}}, Sg(I), Ind(I)) = {z2_sets}")
    for label, extra in (
        ("reported but not a counterexample", reported - converse_refuted),
        ("counterexample not reported", converse_refuted - reported),
    ):
        if extra:
            shown = ", ".join(" ".join(c) for c in sorted(extra)[:5])
            problems.append(f"{label}: {shown}")
    first = report.failures[0] if report.failures else None
    ok = acceptance(
        "criterion-02 covers-top-subalgebra-implies-induction-covers-generated; "
        "converse-refuted",
        not problems,
        f"{cases} cases, forward {cases - len(forward_broken)}/{cases}, "
        f"{len(converse_refuted & reported)} confirmed counterexamples "
        f"(first {first.algebra + ' ' + first.subset if first else 'none'})",
    )
    assert ok, "\n".join(problems)


def test_criterion_03_power_sandwich(acceptance):
    report = run_suite("theorem-c")
    ok = acceptance(
        "criterion-03 iterate-sandwiched-by-relation-powers",
        report.passed and report.cases == 2090,
        f"{report.cases} cases (steps 0..3 both modes plus fixpoint "
        f"decompositions), {len(report.failures)} failures",
    )
    assert ok, "\n".join(report.lines()[:6])


def test_criterion_04_semiring_oracles(acceptance):
    report = run_suite("semiring")
    names = {e.name for e in build_catalog(4) if e.kind == "semiring"}
    scope_ok = {
        "bool-semiring", "z2-semiring", "z3-semiring", "z4-semiring",
        "minplus0-semiring", "minplus1-semiring", "minplus2-semiring",
    } <= names
    ok = acceptance(
        "criterion-04 semiring-formula-equivalence",
        report.passed and scope_ok,
        f"{report.cases} cases over {len(names)} semirings, "
        f"{len(report.failures)} failures",
    )
    assert ok, "\n".join(report.lines()[:6])


def test_criterion_05_commutative_monoids(acceptance):
    report = run_suite("comm-monoid")
    names = {e.name for e in build_catalog(5) if e.kind == "monoid"}
    scope_ok = {
        "z2-monoid", "z3-monoid", "z4-monoid", "z5-monoid",
        "sat1-monoid", "sat2-monoid", "sat3-monoid", "sat4-monoid",
    } <= names
    ok = acceptance(
        "criterion-05 monoid-subsemigroup-and-subtractive-oracles",
        report.passed and scope_ok,
        f"{report.cases} cases over {len(names)} monoids, "
        f"{len(report.failures)} failures",
    )
    assert ok, "\n".join(report.lines()[:6])


def test_criterion_06_unbounded_deduction_witness(acceptance):
    primes = (2, 3, 5, 7, 11)
    ps = [1, *primes]
    seed = frozenset(ps[k] * ps[k + 1] for k in range(5))
    universe = {d for s in seed for d in range(1, s + 1) if s % d == 0}
    stages = nat_mult_deduction_chain(primes, 4)
    problems = []
    if stages[0] != seed:
        problems.append(f"stage 0 is {sorted(stages[0])}, seed is {sorted(seed)}")
    for n in range(1, 5):
        closed_form = (set(ps[: n + 2]) | seed) & universe
        if stages[n] != closed_form:
            problems.append(
                f"stage {n} is {sorted(stages[n])}, closed form {sorted(closed_form)}"
            )
    for n in range(4):
        if not len(stages[n + 1]) > len(stages[n]):
            problems.append(f"no strict growth at step {n}")
    suite = run_suite("nat-chain")
    ok = acceptance(
        "criterion-06 exact-deduction-chain-on-naturals",
        not problems and suite.passed,
        "5 stages, strict growth at every step, "
        f"{len(problems)} mismatches; suite: {suite.summary()}",
    )
    assert ok, "; ".join(problems) or "\n".join(suite.lines()[:6])


def test_criterion_07_maltsev_collapse(acceptance):
    report = run_suite("maltsev")
    names = {e.name for e in build_catalog(4) if "mal" in e.algebra.sig}
    scope_ok = {
        "z2-group", "z3-group", "z4-group", "z2-ring", "z3-ring", "z4-ring",
    } <= names
    ok = acceptance(
        "criterion-07 maltsev-forces-congruences",
        report.passed and scope_ok,
        f"{report.cases} cases over {len(names)} algebras "
        f"(induction=deduction, generated relations already congruences, "
        f"rank<=1), {len(report.failures)} failures",
    )
    assert ok, "\n".join(report.lines()[:6])


def test_criterion_08_subtractive_bounds(acceptance):
    report = run_suite("subtractive")
    ok = acceptance(
        "criterion-08 subtractive-rank-bounds-and-clot-fixpoints",
        report.passed,
        f"{report.cases} cases (rank<=2 and both fixpoints equal the clot), "
        f"{len(report.failures)} failures",
    )
    assert ok, "\n".join(report.lines()[:6])


def test_criterion_09_pointed_set_ranks(acceptance):
    report = run_suite("rank0")
    direct_ok = True
    for entry in build_catalog(4):
        if entry.kind == "pointed" and entry.algebra.size >= 2:
            ind = algebra_rank(entry.algebra, entry.algebra.top, "induction")
            ded = algebra_rank(entry.algebra, entry.algebra.top, "deduction")
            direct_ok = direct_ok and ind.rank == 0 and ded.rank == 1
    ok = acceptance(
        "criterion-09 constants-only-rank-zero-and-one",
        report.passed and direct_ok,
        f"{report.cases} cases on pointed sets of sizes 2..4, "
        f"{len(report.failures)} failures",
    )
    assert ok, "\n".join(report.lines()[:6])


def test_criterion_10_term_descriptions(acceptance):
    report = run_suite("term-oracle")
    ok = acceptance(
        "criterion-10 relation-closures-equal-term-enumerations",
        report.passed and report.cases == 720,
        f"{report.cases} exact set comparisons, {len(report.failures)} failures",
    )
    assert ok, "\n".join(report.lines()[:6])


def test_criterion_11_congruence_cross_check(acceptance):
    cases = 0
    mismatches = []
    for entry in build_catalog(6):
        n = entry.algebra.size
        for a in range(n):
            for b in range(n):
                cases += 1
                engine = congruence_generated(entry.algebra, [(a, b)])
                oracle = congruence_by_unionfind(entry.algebra, [(a, b)])
                if engine != oracle:
                    mismatches.append(f"{entry.name} pair ({a},{b})")
    ok = acceptance(
        "criterion-11 congruence-engine-vs-unionfind",
        not mismatches,
        f"{cases} singleton-pair seeds across the size<=6 catalog, "
        f"{len(mismatches)} mismatches",
    )
    assert ok, "; ".join(mismatches[:5])
