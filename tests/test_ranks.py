"""Rank search by subset exhaustion and the enumeration order it relies on."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finalg import ElementSet, algebra_rank, build_catalog, make_algebra, subsets_in_order
from finalg.catalog import saturating_monoid
from finalg.errors import CarrierTooLarge, ValueOutOfRange
from references import algebras_with_top, by_name, rank_by_iteration


class TestSubsetOrder:
    def test_nonempty_order_size_two(self):
        got = [set(s) for s in subsets_in_order(2)]
        assert got == [{0}, {1}, {0, 1}]

    def test_popcount_then_numeric_size_three(self):
        got = [set(s) for s in subsets_in_order(3)]
        assert got == [
            {0}, {1}, {2},
            {0, 1}, {0, 2}, {1, 2},
            {0, 1, 2},
        ]

    def test_with_empty_set_first(self):
        got = list(subsets_in_order(2, nonempty=False))
        assert got[0] == ElementSet.empty(2)
        assert len(got) == 4


class TestAlgebraRank:
    def test_one_element_algebras(self):
        for entry in build_catalog(2):
            if entry.algebra.size == 1:
                for mode in ("induction", "deduction"):
                    result = algebra_rank(entry.algebra, 0, mode)
                    assert result.rank == 0

    def test_unknown_mode_is_refused(self):
        with pytest.raises(ValueOutOfRange, match="^unknown mode 'bogus'; choose"):
            algebra_rank(by_name("z4-monoid"), 0, "bogus")

    def test_pointed_set_ranks(self):
        alg = by_name("pointed-3")
        assert algebra_rank(alg, 0, "induction").rank == 0
        ded = algebra_rank(alg, 0, "deduction")
        assert ded.rank == 1
        assert 0 not in ded.witness  # a set missing top needs one step to add it

    def test_boolean_semiring_ranks(self):
        # every nonempty subset is already inductively closed, so the
        # induction rank is 0; deduction needs one step on {1}
        alg = by_name("bool-semiring")
        assert algebra_rank(alg, 0, "induction").rank == 0
        ded = algebra_rank(alg, 0, "deduction")
        assert ded.rank == 1
        assert set(ded.witness) == {1}

    def test_z4_group_rank_one(self):
        alg = by_name("z4-group")
        for mode in ("induction", "deduction"):
            result = algebra_rank(alg, 0, mode)
            assert result.rank == 1

    def test_witness_chain_first_repeat_property(self):
        for entry in build_catalog(3):
            for mode in ("induction", "deduction"):
                result = algebra_rank(entry.algebra, entry.algebra.top, mode)
                assert result.rank is not None
                chain = result.witness_report.chain
                assert chain[result.rank] == chain[result.rank + 1]
                if result.rank > 0:
                    assert chain[result.rank - 1] != chain[result.rank]

    def test_exceeded_budget(self):
        alg = by_name("z4-group")
        result = algebra_rank(alg, 0, "induction", max_n=0)
        assert result.rank is None
        assert result.describe() == "exceeded 0"
        assert set(result.witness) == {1}

    def test_negative_budget_is_refused(self):
        alg = by_name("z4-group")
        for max_n in (-1, -2):
            with pytest.raises(ValueOutOfRange, match=rf"^max_n {max_n} is negative$"):
                algebra_rank(alg, 0, "induction", max_n=max_n)

    def test_describe_plain_rank(self):
        assert algebra_rank(by_name("pointed-3"), 0, "induction").describe() == "0"

    # deduction on sat<k>-monoid, min(a + b, k): the rank and its witness by k
    SAT_DEDUCTION = {k: (1, {1}) for k in range(1, 5)} | {5: (2, {3, 4})} \
        | {k: (3, {3, 5}) for k in range(6, 9)} | {k: (4, {5, 8}) for k in range(9, 13)}

    @pytest.mark.parametrize("k", range(1, 13))
    def test_saturating_monoid_ranks(self, k):
        # on sat1-monoid, ({0, 1}, or), every set is inductively closed
        alg = saturating_monoid(k).algebra
        induction = algebra_rank(alg, alg.top, "induction")
        assert (induction.rank, set(induction.witness)) == ((1, {1}) if k > 1 else (0, {0}))
        deduction = algebra_rank(alg, alg.top, "deduction")
        assert (deduction.rank, set(deduction.witness)) == self.SAT_DEDUCTION[k]

    def test_carrier_too_large(self):
        alg = make_algebra([("point", 0)], 17, {"point": [0]}, top=0)
        with pytest.raises(CarrierTooLarge):
            algebra_rank(alg, 0, "induction")


@settings(max_examples=200)
@given(algebras_with_top(), st.sampled_from(["induction", "deduction"]),
       st.sampled_from([None, 0, 1, 2]))
def test_memoised_rank_equals_rank_by_iteration(case, mode, max_n):
    alg, top = case
    got = algebra_rank(alg, top, mode, max_n)
    expected = rank_by_iteration(alg, top, mode, max_n)
    assert (got.rank, got.witness, got.describe()) == \
        (expected.rank, expected.witness, expected.describe())
    assert got.witness_report.chain == expected.witness_report.chain
    assert got.witness_report.steps_to_fixpoint == expected.witness_report.steps_to_fixpoint
    assert got == expected


def test_memoised_rank_equals_rank_by_iteration_on_the_catalog():
    # the saturating monoids up to n = 8 reach deduction rank 3, so each
    # budget 0, 1 and 2 is exceeded somewhere
    seen = set()
    for entry in build_catalog(8):
        if entry.algebra.size > 4 and not entry.name.startswith("sat"):
            continue
        alg = entry.algebra
        for mode in ("induction", "deduction"):
            for max_n in (None, 0, 1, 2):
                got = algebra_rank(alg, alg.top, mode, max_n)
                assert got == rank_by_iteration(alg, alg.top, mode, max_n), (entry.name, mode)
                seen.add(got.describe())
    assert {"exceeded 0", "exceeded 1", "exceeded 2", "3"} <= seen


def test_memoised_rank_equals_rank_by_iteration_at_rank_four():
    # sat9-monoid is the first catalog entry whose deduction rank is 4
    alg = saturating_monoid(9).algebra
    got = algebra_rank(alg, alg.top, "deduction")
    assert got.rank == 4
    assert got == rank_by_iteration(alg, alg.top, "deduction")
