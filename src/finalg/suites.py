"""Named verification suites over the catalog.

Each suite exhaustively replays one family of claims on every applicable
catalog algebra and subset, comparing the generic closure engine against the
per-variety oracles. Suites are deterministic; every failure carries the
algebra name, the subset, and both sides of the failed comparison.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .algebra import (
    ElementSet,
    FiniteAlgebra,
    generate_subalgebra,
    product_square,
    stabilized_term_images,
)
from .catalog import build_catalog
from .closure import (
    clot_closure,
    is_top_normal,
    iterate,
    power_images,
    semicongruence_generated,
    top_deduction,
    top_induction,
)
from .errors import UnknownSuite
from .oracles import (
    SemiringView,
    check_jonsson_tarski_term,
    check_maltsev_term,
    check_subtractive_term,
    nat_mult_deduction_chain,
    semiring_ded_oracle,
    semiring_ind_oracle,
    is_subtractive_ideal,
    subsemigroup_generated,
    subtractive_closure_submonoid,
)
from .ranks import algebra_rank, subsets_in_order
from .relations import BinRel, compose, left_image, right_image

DEFAULT_PRIMES = (2, 3, 5, 7, 11)
DEFAULT_DEPTH = 4


@dataclass(frozen=True)
class SuiteFailure:
    algebra: str
    subset: str
    check: str
    expected: str
    actual: str

    def line(self) -> str:
        return (
            f"fail algebra={self.algebra} set={self.subset} check={self.check} "
            f"expected={self.expected} actual={self.actual}"
        )


@dataclass(frozen=True)
class SuiteReport:
    name: str
    cases: int
    failures: tuple[SuiteFailure, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return f"{word} {self.name} {self.cases} {len(self.failures)}"

    def lines(self) -> list[str]:
        return [self.summary()] + [f.line() for f in self.failures]


class _Collector:
    """Counts cases and keeps failures, each under `algebra`, the name of
    the algebra the checks are on now, which the caller sets before them.
    The set (or its label) and both sides of a check are formatted with
    `str` only when the check fails."""

    def __init__(self) -> None:
        self.algebra = ""
        self.cases = 0
        self.failures: list[SuiteFailure] = []

    def check(self, ok: bool, subset, check: str, expected, actual) -> None:
        self.cases += 1
        if not ok:
            self.failures.append(
                SuiteFailure(self.algebra, str(subset), check, str(expected), str(actual))
            )

    def equal(self, subset, check: str, expected, actual) -> None:
        self.check(expected == actual, subset, check, expected, actual)


def _suite_theorem_a(col: _Collector, alg: FiniteAlgebra, top: int) -> None:
    # nonempty set normal iff one induction step and one deduction step fix it
    for subset in subsets_in_order(alg.size):
        fixed = top_induction(alg, top, subset) == subset and \
            top_deduction(alg, top, subset) == subset
        normal = is_top_normal(alg, top, subset).is_normal
        col.equal(subset, "normal-iff-inductive-and-deductive", fixed, normal)


def _suite_theorem_b(col: _Collector, alg: FiniteAlgebra, top: int) -> None:
    # claimed equivalence: I covers the subalgebra generated by {top} iff one
    # induction step covers the subalgebra generated by I.  The forward
    # implication holds everywhere; the converse has genuine counterexamples
    # (smallest: the additive cyclic monoid of order 2 with I = {1}), so this
    # suite reports real failures rather than a weakened check.
    top_sub = generate_subalgebra(alg, ElementSet.of(alg.size, (top,)))
    for subset in subsets_in_order(alg.size):
        lhs = top_sub.issubset(subset)
        rhs = generate_subalgebra(alg, subset).issubset(top_induction(alg, top, subset))
        col.check(lhs == rhs, subset, "covers-top-subalgebra-iff-induction-covers-generated",
                  f"set-covers-top-subalgebra={lhs}", f"induction-covers-generated={rhs}")


def _suite_theorem_c(col: _Collector, alg: FiniteAlgebra, top: int) -> None:
    # iterated closures sandwiched between relation powers n and 2^n - 1,
    # and the fixpoints equal the unions of all powers
    max_n = 3
    hi = 2**max_n - 1
    for subset in subsets_in_order(alg.size):
        rel = semicongruence_generated(alg, [(x, top) for x in subset])
        for mode, side in (("induction", "left"), ("deduction", "right")):
            report = iterate(alg, top, subset, mode)
            # R_I is reflexive: every power past the chain's end is its last set
            powers = power_images(rel, subset, side)
            powers += powers[-1:] * (hi + 1 - len(powers))
            for n in range(max_n + 1):
                stage, low, high = report.stage(n), powers[n], powers[2**n - 1]
                ok = low.issubset(stage) and stage.issubset(high)
                col.check(ok, subset, f"{mode}-sandwich-n{n}",
                          None if ok else f"{low}<=stage<={high}", stage)
            col.equal(subset, f"{mode}-fixpoint-is-union-of-powers", powers[-1], report.final())


def _suite_clot_idempotent(col: _Collector, alg: FiniteAlgebra, top: int) -> None:
    for subset in subsets_in_order(alg.size, nonempty=False):
        once = clot_closure(alg, top, subset)
        twice = clot_closure(alg, top, once)
        col.equal(subset, "clot-idempotent", once, twice)


def _suite_term_oracle(col: _Collector, alg: FiniteAlgebra, top: int) -> None:
    # relation closure vs term enumeration to its fixpoint on the square,
    # whose seed is the diagonal and I x {top}, pair (a, b) at a * n + b
    n = alg.size
    square = product_square(alg)
    diagonal = sum(1 << (a * n + a) for a in range(n))
    for subset in subsets_in_order(n, nonempty=False):
        seed = diagonal
        for x in subset:
            seed |= 1 << (x * n + top)
        enum = BinRel.from_support(stabilized_term_images(square, ElementSet(n * n, seed)), n)
        rel = semicongruence_generated(alg, [(x, top) for x in subset])
        ok = enum == rel
        col.check(ok, subset, "semicongruence-equals-term-enumeration",
                  None if ok else sorted(enum.pairs()), None if ok else sorted(rel.pairs()))
        col.equal(subset, "induction-equals-term-description",
                  left_image(enum, subset), top_induction(alg, top, subset))
        col.equal(subset, "deduction-equals-term-description",
                  right_image(enum, subset), top_deduction(alg, top, subset))


def _suite_semiring(col: _Collector, alg: FiniteAlgebra, top: int) -> None:
    view = SemiringView(alg)
    for subset in subsets_in_order(alg.size, nonempty=False):
        rel = semicongruence_generated(alg, [(x, top) for x in subset])
        ind = top_induction(alg, top, subset)
        ded = top_deduction(alg, top, subset)
        col.equal(subset, "induction-equals-sum-with-ideal",
                  semiring_ind_oracle(view, subset), ind)
        col.equal(subset, "deduction-equals-ideal-difference",
                  semiring_ded_oracle(view, subset), ded)
        col.equal(subset, "induction-idempotent", ind, top_induction(alg, top, ind))
        col.equal(subset, "deduction-idempotent", ded, top_deduction(alg, top, ded))
        col.equal(subset, "relation-composition-idempotent", rel, compose(rel, rel))
        if subset:
            col.equal(subset, "normal-iff-subtractive-ideal",
                      is_subtractive_ideal(view, subset),
                      is_top_normal(alg, top, subset).is_normal)


def _suite_comm_monoid(col: _Collector, alg: FiniteAlgebra, top: int) -> None:
    table = alg.table("add")
    n = alg.size
    for subset in subsets_in_order(n):
        ind = top_induction(alg, top, subset)
        col.equal(subset, "induction-equals-generated-subsemigroup",
                  subsemigroup_generated(alg, subset), ind)
        col.equal(subset, "induction-idempotent", ind, top_induction(alg, top, ind))
    zero = alg.table("zero")[0]
    for subset in subsets_in_order(n, nonempty=False):
        # the submonoids: sets that hold zero and are closed under add
        if zero not in subset or subsemigroup_generated(alg, subset) != subset:
            continue
        ded = top_deduction(alg, top, subset)
        one_step = ElementSet.of(
            n,
            (x for x in range(n) if any(table[x * n + y] in subset for y in subset)),
        )
        col.equal(subset, "submonoid-deduction-one-step-formula", one_step, ded)
        col.equal(subset, "deductively-closed-iff-subtractive",
                  subtractive_closure_submonoid(alg, subset) == subset,
                  ded.issubset(subset))


def _pair_sets(size: int) -> list[list[tuple[int, int]]]:
    """The pair sets by size: all of them for size <= 2, those of at most two pairs above."""
    codes = [(a, b) for a in range(size) for b in range(size)]
    most = len(codes) if size <= 2 else 2
    return [list(c) for r in range(most + 1) for c in combinations(codes, r)]


def _check_ranks(col: _Collector, alg: FiniteAlgebra, bound: int) -> None:
    """Check that the algebra's induction and deduction ranks are at most `bound`."""
    for mode in ("induction", "deduction"):
        result = algebra_rank(alg, alg.top, mode)
        col.check(result.rank is not None and result.rank <= bound,
                  result.witness, f"{mode}-rank-at-most-{bound}",
                  f"<={bound}", result.describe())


def _suite_maltsev(col: _Collector, alg: FiniteAlgebra, top: int) -> None:
    verified = check_maltsev_term(alg, "mal")
    col.check(verified, "-", "maltsev-term-verifies", True, verified)
    for subset in subsets_in_order(alg.size, nonempty=False):
        col.equal(subset, "induction-equals-deduction",
                  top_induction(alg, top, subset), top_deduction(alg, top, subset))
    # an entry's pair sets close to few relations (24 verdicts over every
    # entry for the 603 pair sets at the default limit, 60 for 13,503 at
    # limit 8): one verdict per relation
    congruent: dict[tuple[int, ...], bool] = {}
    for pairs in _pair_sets(alg.size):
        rel = semicongruence_generated(alg, pairs)
        if (ok := congruent.get(rel.rows)) is None:
            ok = congruent[rel.rows] = rel.is_symmetric() and rel.is_transitive()
        label = None if ok else ("".join(f"({a},{b})" for a, b in pairs) or "()")
        col.check(ok, label, "semicongruence-already-congruence",
                  "symmetric and transitive", None if ok else sorted(rel.pairs()))
    _check_ranks(col, alg, 1)


def _suite_subtractive(col: _Collector, alg: FiniteAlgebra, top: int) -> None:
    verified = check_subtractive_term(alg, "sub", top)
    col.check(verified, "-", "subtractive-term-verifies", True, verified)
    _check_ranks(col, alg, 2)
    for subset in subsets_in_order(alg.size):
        ind_fix = iterate(alg, top, subset, "induction").final()
        ded_fix = iterate(alg, top, subset, "deduction").final()
        clot = clot_closure(alg, top, subset)
        col.equal(subset, "induction-fixpoint-equals-clot", clot, ind_fix)
        col.equal(subset, "deduction-fixpoint-equals-clot", clot, ded_fix)


def _suite_jonsson_tarski(col: _Collector, alg: FiniteAlgebra, top: int) -> None:
    if not check_subtractive_term(alg, "sub", top):
        return
    verified = check_jonsson_tarski_term(alg, "add", top)
    col.check(verified, "-", "jonsson-tarski-term-verifies", True, verified)
    _check_ranks(col, alg, 1)


def _suite_rank0(col: _Collector, alg: FiniteAlgebra, top: int) -> None:
    # pointed sets: every non-projection term is constant, induction is the
    # identity, deduction stabilizes after exactly one step
    for subset in subsets_in_order(alg.size, nonempty=False):
        col.equal(subset, "induction-is-identity", subset, top_induction(alg, top, subset))
        if subset:
            col.equal(subset, "deduction-adds-top",
                      subset.with_element(top), top_deduction(alg, top, subset))
    ind_rank = algebra_rank(alg, top, "induction")
    col.check(ind_rank.rank == 0, ind_rank.witness, "induction-rank-0", 0, ind_rank.describe())
    ded_rank = algebra_rank(alg, top, "deduction")
    col.check(ded_rank.rank == 1, ded_rank.witness, "deduction-rank-1", 1, ded_rank.describe())


def _format_nat(stage: frozenset[int]) -> str:
    return "{" + ",".join(str(x) for x in sorted(stage)) + "}"


def _suite_nat_chain(col: _Collector, primes: tuple[int, ...], depth: int) -> None:
    # exact chain on (N, *, 1): stage k adds p_{k+1} while the truncation
    # lasts, and stage m repeats stage m - 1; the chain ends at its first
    # repeated stage, which every later stage equals
    m = len(primes)
    stages = nat_mult_deduction_chain(primes, depth)
    stages += stages[-1:] * (min(depth, m) + 1 - len(stages))
    ps = [1] + list(primes)
    seed = stages[0]
    col.algebra = "nat-mult"
    col.equal(_format_nat(seed), "stage-0-is-seed",
              _format_nat(frozenset(ps[k] * ps[k + 1] for k in range(m))), _format_nat(seed))
    for k in range(1, min(depth, m - 1) + 1):
        expected = frozenset(ps[: k + 2]) | seed
        col.equal(f"stage-{k}", "stage-matches-closed-form",
                  _format_nat(expected), _format_nat(stages[k]))
        col.check(len(stages[k]) > len(stages[k - 1]), f"stage-{k}", "strict-growth",
                  f">{len(stages[k - 1])} elements", f"{len(stages[k])} elements")
    if depth >= m:
        col.equal(f"stage-{m}", "stage-stable-after-truncation",
                  _format_nat(stages[m - 1]), _format_nat(stages[m]))


# each catalog suite: its checks on one entry's algebra and top, under the
# entry's name that `run_suite` gives the collector, which entries it takes
# (None: every entry), by kind or by a symbol the signature names, and its
# default catalog limit
_SUITES = {
    "theorem-a": (_suite_theorem_a, None, 4),
    "theorem-b": (_suite_theorem_b, None, 4),
    "theorem-c": (_suite_theorem_c, None, 4),
    "clot-idempotent": (_suite_clot_idempotent, None, 4),
    "term-oracle": (_suite_term_oracle, lambda e: e.algebra.size <= 4, 4),
    "semiring": (_suite_semiring, lambda e: e.kind == "semiring", 4),
    "comm-monoid": (_suite_comm_monoid, lambda e: e.kind == "monoid", 5),
    "maltsev": (_suite_maltsev, lambda e: "mal" in e.algebra.sig, 4),
    "subtractive": (_suite_subtractive, lambda e: "sub" in e.algebra.sig, 4),
    "jonsson-tarski": (_suite_jonsson_tarski, lambda e: "sub" in e.algebra.sig, 4),
    "rank0": (_suite_rank0, lambda e: e.kind == "pointed" and e.algebra.size >= 2, 4),
}

SUITE_NAMES = (*_SUITES, "nat-chain")


def run_suite(
    name: str,
    limit: int | None = None,
    primes: tuple[int, ...] | None = None,
    depth: int | None = None,
) -> SuiteReport:
    """Run one named suite and report cases, failures, and elapsed time."""
    if name not in SUITE_NAMES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    col = _Collector()
    start = time.perf_counter()
    if name == "nat-chain":
        _suite_nat_chain(col, DEFAULT_PRIMES if primes is None else primes,
                         DEFAULT_DEPTH if depth is None else depth)
    else:
        fn, takes, default_limit = _SUITES[name]
        for entry in build_catalog(default_limit if limit is None else limit):
            if takes is None or takes(entry):
                col.algebra = entry.name
                fn(col, entry.algebra, entry.algebra.top)
    elapsed = time.perf_counter() - start
    return SuiteReport(name, col.cases, tuple(col.failures), elapsed)
