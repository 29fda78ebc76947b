"""Per-variety oracles: semiring views and formulas, monoid closures, term
condition checkers, the union-find congruence, and the exact deduction chain
on naturals under multiplication."""
from __future__ import annotations

import random
from itertools import product as iterprod

import pytest

from finalg import (
    ElementSet,
    SemiringView,
    Signature,
    build_catalog,
    check_jonsson_tarski_term,
    check_maltsev_term,
    check_subtractive_term,
    congruence_by_unionfind,
    congruence_generated,
    is_subtractive_ideal,
    is_top_normal,
    make_algebra,
    nat_mult_deduction_chain,
    semiring_ded_oracle,
    semiring_ideal_generated,
    semiring_ind_oracle,
    subsemigroup_generated,
    subsets_in_order,
    subtractive_closure_submonoid,
    top_deduction,
    top_induction,
)
from finalg.errors import (
    ArityMismatch,
    AxiomViolation,
    InvalidPrimeList,
    SizeMismatch,
    ValueOutOfRange,
)
from finalg.oracles import _is_prime, _nat_ded_step, is_ideal


def by_name(name: str):
    for entry in build_catalog(6):
        if entry.name == name:
            return entry
    raise LookupError(name)


def tabled(n: int, ops):
    """The algebra on {0..n-1} whose ops are given as (name, arity, function)."""
    return make_algebra(
        [(name, arity) for name, arity, _ in ops],
        n,
        {name: [fn(*args) for args in iterprod(range(n), repeat=arity)]
         for name, arity, fn in ops},
    )


def bool_view():
    return SemiringView(by_name("bool-semiring").algebra)


def z4_view():
    return SemiringView(by_name("z4-semiring").algebra)


class TestSemiringView:
    def test_catalog_semirings_validate(self):
        for entry in build_catalog(4):
            if entry.kind == "semiring":
                view = SemiringView(entry.algebra)
                assert view.zero == entry.algebra.table("zero")[0]
                assert view.one == entry.algebra.table("one")[0]

    def test_identity_violation_is_named(self):
        # left projection as addition: zero fails as a left identity
        alg = make_algebra(
            Signature.of(("add", 2), ("mul", 2), ("zero", 0)),
            2,
            {"add": [0, 0, 1, 1], "mul": [0, 0, 0, 1], "zero": [0]},
        )
        with pytest.raises(AxiomViolation, match="additive identity"):
            SemiringView(alg)

    def test_commutativity_violation_is_named(self):
        # subtraction-like table: has identity 0 both sides? 0-b = -b, so pick
        # a table that keeps identities but breaks commutativity
        add = [0, 1, 2, 3,
               1, 0, 3, 2,
               2, 3, 0, 1,
               3, 1, 2, 0]  # last row tweaked: 3+1=1 but 1+3=2
        mul = [0] * 16
        alg = make_algebra(
            Signature.of(("add", 2), ("mul", 2), ("zero", 0)),
            4,
            {"add": add, "mul": mul, "zero": [0]},
        )
        with pytest.raises(AxiomViolation, match="commutative"):
            SemiringView(alg)

    def test_absorption_violation_is_named(self):
        alg = make_algebra(
            Signature.of(("add", 2), ("mul", 2), ("zero", 0)),
            2,
            {"add": [0, 1, 1, 0], "mul": [0, 1, 1, 1], "zero": [0]},
        )
        with pytest.raises(AxiomViolation, match="absorbing"):
            SemiringView(alg)

    def test_arity_validation(self):
        alg = make_algebra(
            Signature.of(("add", 1), ("mul", 2), ("zero", 0)),
            2,
            {"add": [0, 1], "mul": [0, 0, 0, 1], "zero": [0]},
        )
        with pytest.raises(ArityMismatch):
            SemiringView(alg)

    def test_missing_one_is_allowed(self):
        # drop the unit from the boolean tables; validation must still pass
        alg = make_algebra(
            Signature.of(("add", 2), ("mul", 2), ("zero", 0)),
            2,
            {"add": [0, 1, 1, 1], "mul": [0, 0, 0, 1], "zero": [0]},
        )
        assert SemiringView(alg).one is None

    @pytest.mark.parametrize("error, message, n, ops", [
        (ArityMismatch, "zero must be a constant", 2,
         [("add", 2, max), ("mul", 2, min), ("zero", 1, lambda a: 0)]),
        (ArityMismatch, "one must be a constant", 2,
         [("add", 2, max), ("mul", 2, min), ("zero", 0, lambda: 0), ("one", 1, lambda a: a)]),
        (AxiomViolation, "one is not a multiplicative identity at 1", 2,
         [("add", 2, max), ("mul", 2, min), ("zero", 0, lambda: 0), ("one", 0, lambda: 0)]),
        # 1 + 1 = 2, 2 + 2 = 1 and 1 + 2 = 2: (1 + 1) + 2 = 1, 1 + (1 + 2) = 2
        (AxiomViolation, r"addition not associative at \(1,1,2\)", 3,
         [("add", 2, lambda a, b: a + b if 0 in (a, b) else 3 - a if a == b else 2),
          ("mul", 2, lambda a, b: 0), ("zero", 0, lambda: 0)]),
        # 1 * 1 = 2, every other product of nonzeros 1: (1 * 1) * 2 = 1, 1 * (1 * 2) = 2
        (AxiomViolation, r"multiplication not associative at \(1,1,2\)", 3,
         [("add", 2, max), ("mul", 2, lambda a, b: 0 if 0 in (a, b) else 2 if a == b == 1 else 1),
          ("zero", 0, lambda: 0)]),
        # every product of nonzeros is 1 over (Z3, +): 1 * (1 + 1) = 1, 1 * 1 + 1 * 1 = 2
        (AxiomViolation, r"left distributivity fails at \(1,1,1\)", 3,
         [("add", 2, lambda a, b: (a + b) % 3), ("mul", 2, lambda a, b: int(0 not in (a, b))),
          ("zero", 0, lambda: 0)]),
        # a * b = b for a nonzero distributes on the left only: (1 + 1) * 1 = 1, not 2
        (AxiomViolation, r"right distributivity fails at \(1,1,1\)", 3,
         [("add", 2, lambda a, b: (a + b) % 3), ("mul", 2, lambda a, b: b if a else 0),
          ("zero", 0, lambda: 0)]),
    ], ids=["zero-arity", "one-arity", "one-identity", "add-associative", "mul-associative",
            "left-distributive", "right-distributive"])
    def test_refusal_is_named(self, error, message, n, ops):
        with pytest.raises(error, match=f"^{message}$"):
            SemiringView(tabled(n, ops))


class TestSemiringFormulas:
    def test_ideal_generated(self):
        assert set(semiring_ideal_generated(bool_view(), ElementSet.empty(2))) == {0}
        assert set(semiring_ideal_generated(bool_view(), ElementSet.of(2, [1]))) == {0, 1}
        assert set(semiring_ideal_generated(z4_view(), ElementSet.of(4, [2]))) == {0, 2}

    def test_subset_over_another_carrier(self):
        with pytest.raises(SizeMismatch, match=r"^subset over a different carrier$"):
            semiring_ideal_generated(z4_view(), ElementSet.of(2, [1]))

    def test_ind_oracle(self):
        assert set(semiring_ind_oracle(bool_view(), ElementSet.of(2, [1]))) == {1}
        assert set(semiring_ind_oracle(z4_view(), ElementSet.of(4, [2]))) == {0, 2}
        assert not semiring_ind_oracle(bool_view(), ElementSet.empty(2))

    def test_ind_oracle_with_zero_inside_returns_the_ideal(self):
        view = z4_view()
        subset = ElementSet.of(4, [0, 2])
        assert semiring_ind_oracle(view, subset) == semiring_ideal_generated(view, subset)

    def test_ded_oracle(self):
        assert set(semiring_ded_oracle(bool_view(), ElementSet.of(2, [1]))) == {0, 1}
        assert set(semiring_ded_oracle(z4_view(), ElementSet.of(4, [0, 2]))) == {0, 2}
        assert not semiring_ded_oracle(z4_view(), ElementSet.empty(4))

    def test_ideal_predicates(self):
        assert is_ideal(bool_view(), ElementSet.of(2, [0]))
        assert is_subtractive_ideal(bool_view(), ElementSet.of(2, [0]))
        assert not is_subtractive_ideal(bool_view(), ElementSet.of(2, [1]))
        assert is_subtractive_ideal(bool_view(), ElementSet.of(2, [0, 1]))
        assert is_subtractive_ideal(z4_view(), ElementSet.of(4, [0, 2]))
        # ideal but not subtractive: {0,1} in the boolean semiring is everything,
        # so use min-plus where {inf} alone is the zero ideal
        mp = by_name("minplus2-semiring")
        view = SemiringView(mp.algebra)
        whole = ElementSet.full(mp.algebra.size)
        assert is_subtractive_ideal(view, whole)

    @pytest.mark.parametrize("predicate", [is_ideal, is_subtractive_ideal])
    @pytest.mark.parametrize("size", [2, 8])
    def test_ideal_predicates_refuse_another_carrier(self, predicate, size):
        with pytest.raises(SizeMismatch, match=r"^subset over a different carrier$"):
            predicate(z4_view(), ElementSet.of(size, [0]))


def truncated_naturals(k: int):
    """{0..k} with + and * truncated at k, zero 0, one 1, top 0. Outside the
    catalog, so no frozen count moves."""
    n = k + 1
    return make_algebra(
        Signature.of(("add", 2), ("mul", 2), ("zero", 0), ("one", 0)),
        n,
        {"add": [min(a + b, k) for a, b in iterprod(range(n), repeat=2)],
         "mul": [min(a * b, k) for a, b in iterprod(range(n), repeat=2)],
         "zero": [0], "one": [1]},
        top=0,
    )


class TestTruncatedNaturals:
    # no catalog semiring up to limit 8 has a non-subtractive ideal; here all
    # but {0} and the carrier are, the first being {0, k}
    @pytest.mark.parametrize("k, ideals, non_subtractive", [
        (2, 3, 1), (3, 4, 2), (4, 6, 4), (5, 8, 6), (6, 13, 11), (7, 17, 15),
    ])
    def test_normal_iff_subtractive_ideal(self, k, ideals, non_subtractive):
        alg = truncated_naturals(k)
        view = SemiringView(alg)
        subsets = list(subsets_in_order(alg.size, nonempty=False))
        found = [s for s in subsets if is_ideal(view, s)]
        others = [s for s in found if not is_subtractive_ideal(view, s)]
        assert (len(found), len(others)) == (ideals, non_subtractive)
        assert set(others[0]) == {0, k}
        bounds = [ElementSet.of(alg.size, [0]), ElementSet.full(alg.size)]
        assert [s for s in subsets if is_top_normal(alg, 0, s).is_normal] == bounds
        assert [s for s in found if is_subtractive_ideal(view, s)] == bounds

    def test_subtractive_closure_alone_is_not_an_ideal(self):
        # {0, 1} is fixed by the subtractive closure, but 1 + 1 = 2 leaves it
        view = SemiringView(truncated_naturals(3))
        subset = ElementSet.of(4, [0, 1])
        assert subtractive_closure_submonoid(view.algebra, subset) == subset
        assert not is_subtractive_ideal(view, subset)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_formulas_match_the_engine(self, k):
        alg = truncated_naturals(k)
        view = SemiringView(alg)
        for subset in subsets_in_order(alg.size, nonempty=False):
            assert semiring_ind_oracle(view, subset) == top_induction(alg, 0, subset)
            assert semiring_ded_oracle(view, subset) == top_deduction(alg, 0, subset)


class TestMonoidOracles:
    def test_subsemigroup_generated(self):
        z3 = by_name("z3-monoid").algebra
        z4 = by_name("z4-monoid").algebra
        assert not subsemigroup_generated(z3, ElementSet.empty(3))
        assert set(subsemigroup_generated(z3, ElementSet.of(3, [1]))) == {0, 1, 2}
        assert set(subsemigroup_generated(z4, ElementSet.of(4, [2]))) == {0, 2}

    def test_subsemigroup_need_not_contain_identity(self):
        sat = by_name("sat3-monoid").algebra
        assert set(subsemigroup_generated(sat, ElementSet.of(4, [3]))) == {3}

    def test_subset_over_another_carrier(self):
        z4 = by_name("z4-monoid").algebra
        for oracle in (subsemigroup_generated, subtractive_closure_submonoid):
            with pytest.raises(SizeMismatch, match=r"^subset over a different carrier$"):
                oracle(z4, ElementSet.of(3, [1]))

    def test_subtractive_closure(self):
        z4 = by_name("z4-monoid").algebra
        sat3 = by_name("sat3-monoid").algebra
        assert subtractive_closure_submonoid(z4, ElementSet.full(4)) == ElementSet.full(4)
        assert set(subtractive_closure_submonoid(z4, ElementSet.of(4, [0, 2]))) == {0, 2}
        assert set(subtractive_closure_submonoid(sat3, ElementSet.of(4, [0, 3]))) == {
            0, 1, 2, 3,
        }


class TestTermConditionCheckers:
    def test_maltsev(self):
        entry = by_name("z4-group")
        assert check_maltsev_term(entry.algebra, "mal")
        # three-way join in the boolean semiring fails the cancellation identity
        alg = make_algebra(
            [("p", 3)],
            2,
            {"p": [a | b | c for a in range(2) for b in range(2) for c in range(2)]},
        )
        assert not check_maltsev_term(alg, "p")
        one = make_algebra([("p", 3)], 1, {"p": [0]})
        assert check_maltsev_term(one, "p")
        with pytest.raises(ArityMismatch):
            check_maltsev_term(entry.algebra, "add")

    def test_maltsev_needs_both_identities(self):
        # the first projection meets p(x, y, y) = x and fails only p(x, x, y) = y
        first = tabled(2, [("p", 3, lambda x, y, z: x)])
        assert not check_maltsev_term(first, "p")

    def test_subtractive(self):
        entry = by_name("z4-group")
        assert check_subtractive_term(entry.algebra, "sub", 0)
        bool_alg = by_name("bool-semiring").algebra
        assert not check_subtractive_term(bool_alg, "add", 0)
        with pytest.raises(ArityMismatch):
            check_subtractive_term(entry.algebra, "mal", 0)

    def test_subtractive_needs_both_identities(self):
        # the constant 0 meets s(x, x) = 0 and fails only s(x, 0) = x
        constant = tabled(2, [("s", 2, lambda x, y: 0)])
        assert not check_subtractive_term(constant, "s", 0)

    def test_subtraction_derived_from_maltsev(self):
        # s(x, y) = p(x, y, 0) satisfies the subtraction identities whenever p
        # passes the Mal'tsev check
        entry = by_name("z4-group")
        mal = entry.algebra.table("mal")
        n = entry.algebra.size
        derived = [mal[(x * n + y) * n + 0] for x in range(n) for y in range(n)]
        alg = make_algebra([("s", 2)], n, {"s": derived})
        assert check_subtractive_term(alg, "s", 0)

    def test_jonsson_tarski(self):
        assert check_jonsson_tarski_term(by_name("z4-monoid").algebra, "add", 0)
        assert not check_jonsson_tarski_term(by_name("z4-ring").algebra, "mul", 0)
        one = make_algebra([("u", 2)], 1, {"u": [0]})
        assert check_jonsson_tarski_term(one, "u", 0)
        with pytest.raises(ArityMismatch):
            check_jonsson_tarski_term(by_name("z4-group").algebra, "neg", 0)

    @pytest.mark.parametrize("check, arity, fn, zero", [
        (check_maltsev_term, 3, lambda x, y, z: z, ()),
        (check_jonsson_tarski_term, 2, lambda x, y: x, (0,)),
        (check_jonsson_tarski_term, 2, lambda x, y: y, (0,)),
    ], ids=["maltsev-third-projection", "jonsson-tarski-first", "jonsson-tarski-second"])
    def test_a_projection_fails_the_identity_it_misses(self, check, arity, fn, zero):
        # p(x, y, z) = z meets only p(x, x, y) = y; u(x, y) = x meets only
        # u(x, 0) = x, and u(x, y) = y only u(0, x) = x
        assert not check(tabled(2, [("f", arity, fn)]), "f", *zero)

    @pytest.mark.parametrize("check, symbol", [
        (check_jonsson_tarski_term, "add"), (check_subtractive_term, "sub"),
    ])
    @pytest.mark.parametrize("zero", [4, 7, -1])
    def test_zero_outside_the_carrier(self, check, symbol, zero):
        with pytest.raises(ValueOutOfRange, match=rf"^argument {zero} outside carrier of size 4$"):
            check(by_name("z4-group").algebra, symbol, zero)


def naive_congruence(algebra, pairs):
    """Third implementation, for cross-checking: saturate a pair set under
    reflexivity, symmetry, transitivity, and full componentwise application
    of every operation. Exponential, only for tiny carriers."""
    n = algebra.size
    rel = {(a, a) for a in range(n)} | set(pairs)
    while True:
        fresh = {(b, a) for a, b in rel}
        fresh |= {(a, c) for a, b in rel for b2, c in rel if b == b2}
        for _, arity, table in algebra.ops():
            if arity == 0:
                continue
            for tup in iterprod(sorted(rel), repeat=arity):
                left = right = 0
                for a, b in tup:
                    left = left * n + a
                    right = right * n + b
                fresh.add((table[left], table[right]))
        if fresh <= rel:
            return sorted(rel)
        rel |= fresh


class TestUnionFindCongruence:
    def test_matches_naive_closure_on_tiny_algebras(self):
        for entry in build_catalog(3):
            alg = entry.algebra
            if alg.size > 3:
                continue
            for a in range(alg.size):
                for b in range(alg.size):
                    expected = naive_congruence(alg, [(a, b)])
                    assert congruence_by_unionfind(alg, [(a, b)]).pairs() == expected

    def test_matches_engine_on_multi_pair_seeds(self):
        for entry in build_catalog(4):
            alg = entry.algebra
            n = alg.size
            seeds = [[], [(n - 1, 0)], [(n - 1, 0), (1 % n, 0)]]
            for pairs in seeds:
                assert congruence_by_unionfind(alg, pairs) == congruence_generated(
                    alg, pairs
                )


class TestNatChain:
    def test_frozen_stages_with_four_primes(self):
        stages = nat_mult_deduction_chain([2, 3, 5, 7], 4)
        seed = {2, 6, 15, 35}
        assert stages[0] == seed
        assert stages[1] == {1, 2, 3} | seed
        assert stages[2] == {1, 2, 3, 5} | seed
        assert stages[3] == {1, 2, 3, 5, 7} | seed
        assert stages[4] == stages[3]

    def test_chain_is_increasing(self):
        stages = nat_mult_deduction_chain([2, 3, 5, 7, 11], 4)
        for earlier, later in zip(stages, stages[1:]):
            assert earlier <= later

    def test_chain_ends_at_its_first_repeated_stage(self, ten_seconds):
        # stage m repeats stage m - 1; no later stage is computed
        stages = nat_mult_deduction_chain([2, 3], 10**8)
        assert stages == [frozenset({2, 6}), frozenset({1, 2, 3, 6}), frozenset({1, 2, 3, 6})]
        assert nat_mult_deduction_chain([2, 3, 5, 7], 10**8) == \
            nat_mult_deduction_chain([2, 3, 5, 7], 4)

    def test_depth_zero(self):
        assert nat_mult_deduction_chain([2, 3], 0) == [frozenset({2, 6})]

    def test_validation(self):
        cases = [
            (([], 1), "truncation must be at least 2"),
            (([2], 1), "truncation must be at least 2"),
            (([2, 2], 1), "primes must be distinct"),
            (([2, 9], 1), "9 is not prime"),
            (([2, 1], 1), "1 is not prime"),
            (([2, 2**61 + 1], 1), f"{2**61 + 1} is not prime"),
            (([2, 3317044064679887385961981], 1), "3317044064679887385961981 is too large: "
             "primes must be below 3317044064679887385961981"),
            (([2, 3], -1), "depth must be non-negative"),
        ]
        for (primes, depth), message in cases:
            with pytest.raises(InvalidPrimeList) as caught:
                nat_mult_deduction_chain(primes, depth)
            assert str(caught.value) == message

    def test_primality_matches_trial_division(self):
        def by_trial_division(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert [n for n in range(-2, 20000) if _is_prime(n)] == \
            [n for n in range(-2, 20000) if by_trial_division(n)]

    def test_primality_past_trial_division(self):
        # the least strong pseudoprimes to the first k prime bases for k = 1..12,
        # a Carmichael number and products of two large primes, then primes
        composites = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                      341550071728321, 3825123056546413051, 318665857834031151167461, 561,
                      2**67 - 1, (2**31 - 1) ** 2, 1000000007 * 998244353)
        assert not any(_is_prime(n) for n in composites)
        assert all(_is_prime(p) for p in (2**31 - 1, 2**61 - 1, 1000000007, 998244353))

    def test_step_is_deduction_by_definition(self):
        # D(S) = {x : x*u in S for some u in the submonoid <S>}, from its
        # definition: every product u of elements of S up to max S, and
        # every x up to max S
        def by_definition(stage):
            top = max(stage)
            monoid = {1}
            while True:
                more = {u * s for u in monoid for s in stage if u * s <= top} - monoid
                if not more:
                    break
                monoid |= more
            return {x for x in range(1, top + 1) for u in monoid if x * u in stage}

        rng = random.Random("nat-ded-step")
        for _ in range(400):
            stage = frozenset(rng.sample(range(1, 61), rng.randint(1, 8)))
            assert _nat_ded_step(stage) == by_definition(stage), sorted(stage)
        for primes in ([2, 3, 5, 7], [7, 2, 5], [3, 11, 2, 13, 5]):
            for stage in nat_mult_deduction_chain(primes, 8):
                assert _nat_ded_step(stage) == by_definition(stage), sorted(stage)
