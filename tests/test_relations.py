"""Bit-matrix relation calculus: composition, opposite, images, compatibility."""
from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finalg import (
    BinRel,
    ElementSet,
    Signature,
    compose,
    is_compatible,
    left_image,
    make_algebra,
    opposite,
    right_image,
)
from finalg.errors import SizeMismatch, ValueOutOfRange
from finalg.relations import _left_mask, _right_mask


def relations(max_size: int = 8):
    return st.integers(1, max_size).flatmap(
        lambda n: st.tuples(
            *[st.integers(0, (1 << n) - 1) for _ in range(n)]
        ).map(lambda rows: BinRel(n, rows))
    )


def sized_relations(n: int):
    return st.tuples(*[st.integers(0, (1 << n) - 1) for _ in range(n)]).map(
        lambda rows: BinRel(n, rows)
    )


def subsets(n: int):
    return st.integers(0, (1 << n) - 1).map(lambda m: ElementSet(n, m))


class TestConstruction:
    def test_basic_shapes(self):
        assert BinRel.empty(3).pairs() == []
        assert BinRel.diagonal(3).pairs() == [(0, 0), (1, 1), (2, 2)]
        assert len(BinRel.full(3)) == 9

    def test_from_pairs_and_contains(self):
        rel = BinRel.from_pairs(3, [(1, 0), (2, 1)])
        assert (1, 0) in rel and (0, 1) not in rel
        assert len(rel) == 2
        with pytest.raises(ValueOutOfRange):
            BinRel.from_pairs(2, [(0, 2)])

    def test_pairs_sorted_lexicographically(self):
        rel = BinRel.from_pairs(3, [(2, 1), (0, 2), (0, 0), (2, 0)])
        assert rel.pairs() == [(0, 0), (0, 2), (2, 0), (2, 1)]

    def test_support_round_trip(self):
        rel = BinRel.from_pairs(3, [(1, 0), (2, 2), (0, 1)])
        assert BinRel.from_support(rel.support(), 3) == rel
        assert rel.support().size == 9

    def test_support_size_check(self):
        with pytest.raises(SizeMismatch):
            BinRel.from_support(ElementSet.empty(8), 3)

    def test_row_validation(self):
        with pytest.raises(SizeMismatch):
            BinRel(3, (0, 0))
        with pytest.raises(ValueOutOfRange):
            BinRel(2, (0, 1 << 2))

    def test_union_and_issubset(self):
        a = BinRel.from_pairs(3, [(0, 1)])
        b = BinRel.from_pairs(3, [(1, 2)])
        assert a.union(b).pairs() == [(0, 1), (1, 2)]
        assert a.issubset(a.union(b))
        assert not a.union(b).issubset(a)

    def test_predicates(self):
        assert BinRel.diagonal(3).is_reflexive()
        assert not BinRel.from_pairs(2, [(0, 0)]).is_reflexive()
        assert BinRel.from_pairs(2, [(0, 1), (1, 0)]).is_symmetric()
        assert not BinRel.from_pairs(2, [(0, 1)]).is_symmetric()
        assert BinRel.diagonal(2).is_transitive()
        assert not BinRel.from_pairs(3, [(0, 1), (1, 2)]).is_transitive()


class TestCompose:
    def test_diagonal_is_identity(self):
        rel = BinRel.from_pairs(3, [(0, 1), (2, 0)])
        delta = BinRel.diagonal(3)
        assert compose(delta, rel) == rel
        assert compose(rel, delta) == rel

    def test_idempotent_example(self):
        rel = BinRel.diagonal(2).union(BinRel.from_pairs(2, [(1, 0)]))
        assert compose(rel, rel) == rel

    def test_full_after_empty(self):
        assert compose(BinRel.full(2), BinRel.empty(2)) == BinRel.empty(2)

    def test_direction(self):
        # a (R;S) c iff a R b and b S c for some b
        r = BinRel.from_pairs(3, [(0, 1)])
        s = BinRel.from_pairs(3, [(1, 2)])
        assert compose(r, s).pairs() == [(0, 2)]
        assert compose(s, r).pairs() == []

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            compose(BinRel.empty(2), BinRel.empty(3))

    @given(st.integers(1, 6).flatmap(
        lambda n: st.tuples(sized_relations(n), sized_relations(n), sized_relations(n))
    ))
    def test_associative(self, rels):
        r, s, t = rels
        assert compose(compose(r, s), t) == compose(r, compose(s, t))


class TestOpposite:
    def test_examples(self):
        assert opposite(BinRel.diagonal(3)) == BinRel.diagonal(3)
        rel = BinRel.diagonal(2).union(BinRel.from_pairs(2, [(1, 0)]))
        assert opposite(rel) == BinRel.diagonal(2).union(BinRel.from_pairs(2, [(0, 1)]))

    @given(relations())
    def test_involution(self, rel):
        assert opposite(opposite(rel)) == rel

    @given(st.integers(1, 6).flatmap(
        lambda n: st.tuples(sized_relations(n), sized_relations(n))
    ))
    def test_antihomomorphism(self, rels):
        r, s = rels
        assert opposite(compose(r, s)) == compose(opposite(s), opposite(r))


class TestImages:
    def test_diagonal_images(self):
        subset = ElementSet.of(3, [0, 2])
        assert left_image(BinRel.diagonal(3), subset) == subset
        assert right_image(BinRel.diagonal(3), subset) == subset

    def test_frozen_examples(self):
        rel = BinRel.diagonal(3).union(BinRel.from_pairs(3, [(1, 0)]))
        assert set(left_image(rel, ElementSet.of(3, [0]))) == {0, 1}
        assert set(right_image(rel, ElementSet.of(3, [1]))) == {0, 1}

    def test_empty_set_images(self):
        rel = BinRel.full(3)
        assert not left_image(rel, ElementSet.empty(3))
        assert not right_image(rel, ElementSet.empty(3))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            left_image(BinRel.empty(2), ElementSet.empty(3))
        with pytest.raises(SizeMismatch):
            right_image(BinRel.empty(2), ElementSet.empty(3))

    @given(st.integers(1, 8).flatmap(
        lambda n: st.tuples(sized_relations(n), subsets(n))
    ))
    def test_left_image_is_right_image_of_opposite(self, case):
        rel, subset = case
        assert left_image(rel, subset) == right_image(opposite(rel), subset)

    @given(st.integers(1, 5).flatmap(
        lambda n: st.tuples(sized_relations(n), sized_relations(n), subsets(n))
    ))
    def test_image_of_composition_bridges_iteration(self, case):
        r, s, subset = case
        assert left_image(compose(r, s), subset) == left_image(r, left_image(s, subset))
        assert right_image(compose(r, s), subset) == right_image(s, right_image(r, subset))


class TestMaskImages:
    """`_right_mask` and `_left_mask` against their definitions, on seeded
    random rows, past the 8-bit lane boundary and up to 64 bits. The order
    in which `Closures._rows_of` scans a seed's pairs has no test here: the
    fold pins of `TestKernelRuns` in test_suites.py (41, 792, 83, 65 and
    264 folds) move when it changes."""

    @pytest.mark.parametrize("n", [1, 8, 9, 63, 64])
    def test_images_match_their_definitions(self, n):
        rng = random.Random(f"mask-images/{n}")
        full = (1 << n) - 1
        for _ in range(20):
            rows = tuple(rng.choice((0, full, rng.getrandbits(n))) for _ in range(n))
            for mask in (0, full, 1, 1 << n - 1, rng.getrandbits(n)):
                union = 0
                for y in range(n):
                    if mask >> y & 1:
                        union |= rows[y]
                meets = sum(1 << a for a in range(n) if rows[a] & mask)
                assert _right_mask(rows, mask) == union
                assert _left_mask(rows, mask) == meets


class TestCompatibility:
    def z2(self):
        return make_algebra(
            Signature.of(("add", 2), ("zero", 0)),
            2,
            {"add": [0, 1, 1, 0], "zero": [0]},
            top=0,
        )

    def test_diagonal_and_full_are_compatible(self):
        alg = self.z2()
        assert is_compatible(alg, BinRel.diagonal(2))
        assert is_compatible(alg, BinRel.full(2))

    def test_incompatible_example(self):
        # (1,0)+(1,1) = (0,1) escapes the relation
        alg = self.z2()
        rel = BinRel.diagonal(2).union(BinRel.from_pairs(2, [(1, 0)]))
        assert not is_compatible(alg, rel)

    def test_missing_constant_pair(self):
        alg = self.z2()
        rel = BinRel.from_pairs(2, [(1, 1)])
        assert not is_compatible(alg, rel)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            is_compatible(self.z2(), BinRel.empty(3))
