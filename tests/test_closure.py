"""Closure operators: generated relations, the per-algebra relation cache,
clots, induction/deduction, iteration reports, normality, and the
power-image sandwich."""
from __future__ import annotations

import random

import pytest

from finalg import (
    BinRel,
    ElementSet,
    build_catalog,
    check_sandwich,
    clot_closure,
    congruence_generated,
    generate_subalgebra,
    is_compatible,
    is_top_normal,
    iterate,
    make_algebra,
    semicongruence_generated,
    subsets_in_order,
    top_deduction,
    top_induction,
)
from finalg.closure import Closures, relation_power_images, union_of_power_images
from finalg.errors import SizeMismatch, SizeOverflow, ValueOutOfRange
from finalg.relations import left_image, right_image
from references import induced, iterate_afresh


def by_name(name: str):
    for entry in build_catalog(4):
        if entry.name == name:
            return entry.algebra
    raise LookupError(name)


def sample_entries():
    wanted = {"z4-monoid", "bool-semiring", "z3-group", "z4-ring", "pointed-3", "sat2-monoid"}
    return [e for e in build_catalog(4) if e.name in wanted]


class TestSemicongruence:
    def test_empty_pairs_give_diagonal(self):
        for entry in build_catalog(4):
            n = entry.algebra.size
            assert semicongruence_generated(entry.algebra, []) == BinRel.diagonal(n)

    def test_z4_monoid_frozen_support(self):
        rel = semicongruence_generated(by_name("z4-monoid"), [(2, 0)])
        expected = sorted(
            [(a, a) for a in range(4)] + [((a + 2) % 4, a) for a in range(4)]
        )
        assert rel.pairs() == expected

    def test_pointed_set_adds_nothing(self):
        rel = semicongruence_generated(by_name("pointed-3"), [(1, 0)])
        assert rel == BinRel.diagonal(3).union(BinRel.from_pairs(3, [(1, 0)]))

    def test_output_is_reflexive_and_compatible(self):
        for entry in sample_entries():
            alg = entry.algebra
            for pairs in ([], [(alg.size - 1, 0)], [(0, alg.size - 1), (1 % alg.size, 0)]):
                rel = semicongruence_generated(alg, pairs)
                assert rel.is_reflexive()
                assert is_compatible(alg, rel)

    def test_pair_out_of_range(self):
        with pytest.raises(ValueOutOfRange):
            semicongruence_generated(by_name("z4-monoid"), [(4, 0)])


class TestClosuresCache:
    def test_every_mask_equals_the_kernel(self):
        # one cache per algebra, masks in numeric order: each R_T grows from
        # the kept R of T without its highest element
        for entry in build_catalog(6):
            alg, top = entry.algebra, entry.algebra.top
            closures = Closures(alg, top)
            for mask in range(1 << alg.size):
                assert closures.relation(mask) == induced(alg, top, mask), (entry.name, mask)

    def test_grown_from_any_kept_subset(self):
        rng = random.Random(5)
        for entry in build_catalog(6):
            alg, top = entry.algebra, entry.algebra.top
            full = (1 << alg.size) - 1
            for _ in range(12):
                target = rng.randrange(full + 1)
                for base in (0, target, target & rng.randrange(full + 1)):
                    closures = Closures(alg, top)
                    closures.relation(base)
                    closures._step("induction", target, base)  # grows R_target
                    got = closures.relation(target)
                    assert got == induced(alg, top, target), (entry.name, target, base)

    def test_base_not_kept_or_not_inside(self):
        alg = by_name("z4-ring")
        closures = Closures(alg, 0)
        closures._step("deduction", 0b0110, 0b0011)
        assert closures.relation(0b0110) == induced(alg, 0, 0b0110)
        closures.relation(0b1000)
        closures._step("deduction", 0b0101, 0b1000)
        assert closures.relation(0b0101) == induced(alg, 0, 0b0101)

    def test_iterate_through_the_cache_equals_the_reference(self):
        for entry in build_catalog(5):
            alg, top = entry.algebra, entry.algebra.top
            with Closures(alg, top):
                for subset in subsets_in_order(alg.size, nonempty=False):
                    for mode in ("induction", "deduction"):
                        expected = iterate_afresh(alg, top, subset, mode)
                        assert iterate(alg, top, subset, mode) == expected
                        expected = iterate_afresh(alg, top, subset, mode, 1)
                        assert iterate(alg, top, subset, mode, 1) == expected
            for subset in subsets_in_order(alg.size, nonempty=False):
                assert iterate(alg, top, subset, "deduction") == \
                    iterate_afresh(alg, top, subset, "deduction")

    def test_iterate_keeps_only_inside_the_block(self):
        alg = by_name("sat3-monoid")
        subset = ElementSet.of(4, [3])
        closures = Closures(alg, alg.top)
        iterate(alg, alg.top, subset, "deduction")
        assert closures._steps == ({}, {})
        with closures:
            with Closures(alg, alg.top) as inner:
                iterate(alg, alg.top, subset, "deduction")
            assert closures._steps == ({}, {}) and inner._steps[0]
            iterate(alg, (alg.top + 1) % 4, subset, "deduction")  # another top
            iterate(by_name("z4-monoid"), alg.top, subset, "deduction")  # another algebra
            assert closures._steps == ({}, {})
            report = iterate(alg, alg.top, subset, "deduction")
            assert set(closures._steps[0]) == {s.mask for s in report.chain}
        kept = dict(closures._steps[0])
        iterate(alg, alg.top, ElementSet.of(4, [2]), "deduction")
        assert closures._steps[0] == kept

    def test_steps_are_the_images_of_the_relation(self):
        alg = by_name("sat3-monoid")
        closures = Closures(alg, alg.top)
        for mask in range(16):
            rel = induced(alg, alg.top, mask)
            subset = ElementSet(4, mask)
            assert closures._step("induction", mask, None) == left_image(rel, subset).mask
            assert closures._step("deduction", mask, None) == right_image(rel, subset).mask

    def test_refusals(self):
        alg = by_name("z4-monoid")
        with pytest.raises(ValueOutOfRange):
            Closures(alg, 4)
        with pytest.raises(ValueOutOfRange):
            Closures(alg, 0).relation(1 << 4)
        with pytest.raises(ValueOutOfRange):
            Closures(alg, 0)._step("induction", -1, None)
        big = make_algebra([("point", 0)], 65, {"point": [0]}, top=0)
        with pytest.raises(SizeOverflow):
            Closures(big, 0)
        with Closures(alg, 0):
            with pytest.raises(ValueOutOfRange, match=r"pair \(5,0\) outside carrier of size 4"):
                iterate(alg, 0, ElementSet.of(6, [1, 5]), "induction")
            with pytest.raises(SizeMismatch, match="target set over a different carrier"):
                iterate(alg, 0, ElementSet.of(3, [1]), "induction")
            with pytest.raises(SizeMismatch, match="source set over a different carrier"):
                iterate(alg, 0, ElementSet.of(5, [1]), "deduction")
            assert iterate(alg, 0, ElementSet.of(5, [1]), "deduction", 0).chain == \
                (ElementSet.of(5, [1]),)


class TestCongruence:
    def test_empty_and_reflexive_pairs_give_diagonal(self):
        alg = by_name("z4-monoid")
        assert congruence_generated(alg, []) == BinRel.diagonal(4)
        assert congruence_generated(alg, [(3, 3)]) == BinRel.diagonal(4)

    def test_z4_monoid_mod2_classes(self):
        rel = congruence_generated(by_name("z4-monoid"), [(2, 0)])
        expected = sorted((a, b) for a in range(4) for b in range(4) if (a - b) % 2 == 0)
        assert rel.pairs() == expected

    def test_result_is_a_congruence(self):
        for entry in sample_entries():
            alg = entry.algebra
            rel = congruence_generated(alg, [(alg.size - 1, 0)])
            assert rel.is_reflexive()
            assert rel.is_symmetric()
            assert rel.is_transitive()
            assert is_compatible(alg, rel)

    def test_contains_semicongruence(self):
        alg = by_name("sat2-monoid")
        pairs = [(2, 0)]
        assert semicongruence_generated(alg, pairs).issubset(
            congruence_generated(alg, pairs)
        )


class TestClot:
    def test_empty_set_gives_top_singleton(self):
        for entry in sample_entries():
            alg = entry.algebra
            clot = clot_closure(alg, alg.top, ElementSet.empty(alg.size))
            assert list(clot) == [alg.top]

    def test_frozen_examples(self):
        assert set(clot_closure(by_name("z4-ring"), 0, ElementSet.of(4, [2]))) == {0, 2}
        assert set(clot_closure(by_name("bool-semiring"), 0, ElementSet.of(2, [1]))) == {0, 1}

    def test_idempotent_on_catalog(self):
        for entry in build_catalog(3):
            alg = entry.algebra
            for subset in subsets_in_order(alg.size, nonempty=False):
                once = clot_closure(alg, alg.top, subset)
                assert clot_closure(alg, alg.top, once) == once

    def test_top_out_of_range(self):
        with pytest.raises(ValueOutOfRange):
            clot_closure(by_name("z4-ring"), 4, ElementSet.empty(4))


class TestInductionDeduction:
    def test_top_singleton_is_fixed(self):
        for entry in sample_entries():
            alg = entry.algebra
            singleton = ElementSet.of(alg.size, [alg.top])
            assert top_induction(alg, alg.top, singleton) == singleton
            assert top_deduction(alg, alg.top, singleton) == singleton

    def test_frozen_examples(self):
        assert set(top_induction(by_name("z3-monoid"), 0, ElementSet.of(3, [1]))) == {0, 1, 2}
        assert set(top_induction(by_name("bool-semiring"), 0, ElementSet.of(2, [1]))) == {1}
        assert set(top_deduction(by_name("bool-semiring"), 0, ElementSet.of(2, [1]))) == {0, 1}
        assert set(top_deduction(by_name("z4-group"), 0, ElementSet.of(4, [2]))) == {0, 2}

    def test_empty_set_is_fixed(self):
        for entry in sample_entries():
            alg = entry.algebra
            empty = ElementSet.empty(alg.size)
            assert top_induction(alg, alg.top, empty) == empty
            assert top_deduction(alg, alg.top, empty) == empty

    def test_nonempty_sets_grow(self):
        for entry in sample_entries():
            alg = entry.algebra
            for subset in subsets_in_order(alg.size):
                assert subset.issubset(top_induction(alg, alg.top, subset))
                assert subset.issubset(top_deduction(alg, alg.top, subset))


class TestIterate:
    def test_fixed_set_chain(self):
        # an already-inductive set: the chain records the first repeat
        alg = by_name("bool-semiring")
        subset = ElementSet.of(2, [1])
        report = iterate(alg, 0, subset, "induction")
        assert report.chain == (subset, subset)
        assert report.steps_to_fixpoint == 0
        assert report.distinct_stages() == (subset,)
        assert report.final() == subset

    def test_empty_set_chain(self):
        alg = by_name("z4-monoid")
        empty = ElementSet.empty(4)
        report = iterate(alg, 0, empty, "deduction")
        assert report.chain == (empty, empty)
        assert report.steps_to_fixpoint == 0

    def test_boolean_deduction_chain(self):
        alg = by_name("bool-semiring")
        report = iterate(alg, 0, ElementSet.of(2, [1]), "deduction")
        assert [set(s) for s in report.distinct_stages()] == [{1}, {0, 1}]
        assert report.steps_to_fixpoint == 1

    def test_max_steps_exhaustion(self):
        alg = by_name("z3-monoid")
        subset = ElementSet.of(3, [1])
        report = iterate(alg, 0, subset, "induction", max_steps=0)
        assert report.steps_to_fixpoint is None
        assert report.chain == (subset,)
        with pytest.raises(ValueOutOfRange):
            report.stage(3)

    def test_negative_stage_is_refused(self):
        # a negative index must not count from the end of the chain
        alg = by_name("sat3-monoid")
        report = iterate(alg, alg.top, ElementSet.of(4, [3]), "deduction")
        assert len(report.chain) > 2
        for n in (-1, -2, -len(report.chain) - 1):
            with pytest.raises(ValueOutOfRange):
                report.stage(n)

    def test_stage_after_fixpoint_is_final(self):
        alg = by_name("bool-semiring")
        report = iterate(alg, 0, ElementSet.of(2, [1]), "deduction")
        assert report.stage(10) == report.final()
        assert report.stage(0) == ElementSet.of(2, [1])

    def test_relation_used_is_the_step_zero_relation(self):
        alg = by_name("z4-monoid")
        subset = ElementSet.of(4, [2])
        report = iterate(alg, 0, subset, "induction")
        assert report.relation_used == semicongruence_generated(alg, [(2, 0)])

    def test_chains_increase_and_stabilize_within_carrier_size(self):
        for entry in build_catalog(4):
            alg = entry.algebra
            for subset in subsets_in_order(alg.size, nonempty=False):
                for mode in ("induction", "deduction"):
                    report = iterate(alg, alg.top, subset, mode)
                    assert report.steps_to_fixpoint is not None
                    assert report.steps_to_fixpoint <= alg.size
                    for earlier, later in zip(report.chain, report.chain[1:]):
                        assert earlier.issubset(later)


class TestNormality:
    def test_frozen_examples(self):
        ok, cls = is_top_normal(by_name("bool-semiring"), 0, ElementSet.of(2, [1]))
        assert not ok and set(cls) == {0, 1}
        ok, cls = is_top_normal(by_name("z4-ring"), 0, ElementSet.of(4, [0, 2]))
        assert ok and set(cls) == {0, 2}

    def test_top_singleton_on_pointed_set(self):
        ok, cls = is_top_normal(by_name("pointed-3"), 0, ElementSet.of(3, [0]))
        assert ok and set(cls) == {0}

    def test_empty_set_is_never_normal(self):
        for entry in sample_entries():
            alg = entry.algebra
            ok, cls = is_top_normal(alg, alg.top, ElementSet.empty(alg.size))
            assert not ok
            assert alg.top in cls


class TestSandwich:
    def test_small_n_and_frozen_example(self):
        alg = by_name("bool-semiring")
        subset = ElementSet.of(2, [1])
        for n in range(4):
            assert check_sandwich(alg, 0, subset, n)

    def test_negative_n(self):
        with pytest.raises(ValueOutOfRange):
            check_sandwich(by_name("bool-semiring"), 0, ElementSet.of(2, [1]), -1)

    def test_across_catalog_samples(self):
        for entry in sample_entries():
            alg = entry.algebra
            for subset in subsets_in_order(alg.size):
                assert check_sandwich(alg, alg.top, subset, 2)


class TestPowerImages:
    def test_relation_power_images(self):
        rel = BinRel.diagonal(3).union(BinRel.from_pairs(3, [(1, 0), (2, 1)]))
        chain = relation_power_images(rel, ElementSet.of(3, [0]), 3, "left")
        assert [set(s) for s in chain] == [{0}, {0, 1}, {0, 1, 2}, {0, 1, 2}]

    def test_union_of_power_images(self):
        rel = BinRel.diagonal(3).union(BinRel.from_pairs(3, [(1, 0), (2, 1)]))
        assert set(union_of_power_images(rel, ElementSet.of(3, [0]), "left")) == {0, 1, 2}
        assert set(union_of_power_images(rel, ElementSet.of(3, [0]), "right")) == {0}


class TestCoverageEquivalence:
    """The claimed equivalence between covering the subalgebra of top and
    induction covering the generated subalgebra: the forward implication
    holds on the whole catalog; the converse has a genuine two-element
    counterexample, pinned here so the behavior stays documented."""

    def test_forward_implication_holds_everywhere(self):
        for entry in build_catalog(4):
            alg = entry.algebra
            top_sub = generate_subalgebra(alg, ElementSet.of(alg.size, [alg.top]))
            for subset in subsets_in_order(alg.size):
                if top_sub.issubset(subset):
                    assert generate_subalgebra(alg, subset).issubset(
                        top_induction(alg, alg.top, subset)
                    ), f"{entry.name} {subset}"

    def test_converse_counterexample_is_stable(self):
        alg = by_name("z2-monoid")
        subset = ElementSet.of(2, [1])
        top_sub = generate_subalgebra(alg, ElementSet.of(2, [0]))
        assert set(top_sub) == {0}
        assert not top_sub.issubset(subset)  # left side false
        generated = generate_subalgebra(alg, subset)
        assert set(generated) == {0, 1}
        induced = top_induction(alg, 0, subset)
        assert set(induced) == {0, 1}
        assert generated.issubset(induced)  # right side true
