"""Catalog construction: composition, determinism, and per-entry guarantees."""
from __future__ import annotations

from dataclasses import fields

import pytest

from finalg import (
    SemiringView,
    build_catalog,
    check_jonsson_tarski_term,
    check_maltsev_term,
    check_subtractive_term,
)
from finalg import catalog
from finalg.catalog import (
    CatalogEntry,
    boolean_semiring,
    cyclic_group,
    cyclic_module,
    cyclic_monoid,
    cyclic_ring,
    cyclic_semiring,
    minplus_semiring,
    pointed_set,
    saturating_monoid,
)
from finalg.errors import ValueOutOfRange


class TestComposition:
    def test_limit_four_contents(self):
        entries = build_catalog(4)
        names = [e.name for e in entries]
        assert len(names) == len(set(names))
        assert len(entries) >= 10
        for expected in (
            "z2-monoid", "z4-monoid", "sat3-monoid", "z4-group", "z4-ring",
            "bool-semiring", "z4-semiring", "minplus2-semiring", "z4-module",
            "pointed-4",
        ):
            assert expected in names
        assert all(e.algebra.size <= 4 for e in entries)

    def test_one_element_entries_present(self):
        entries = build_catalog(2)
        ones = [e for e in entries if e.algebra.size == 1]
        assert len(ones) == 6
        assert {e.kind for e in ones} == {
            "monoid", "group", "ring", "semiring", "module", "pointed",
        }

    def test_every_entry_has_top(self):
        for entry in build_catalog(5):
            top = entry.algebra.top
            assert top is not None and 0 <= top < entry.algebra.size

    def test_deterministic(self):
        first = [(e.name, e.algebra) for e in build_catalog(4)]
        second = [(e.name, e.algebra) for e in build_catalog(4)]
        assert first == second

    def test_entries_are_built_once_and_shared(self):
        # every call returns a new list, of the same entry objects for the
        # entries two limits have in common
        four, five = build_catalog(4), build_catalog(5)
        again = build_catalog(4)
        assert again is not four and again == four
        assert all(a is b for a, b in zip(again, four))
        by_name = {e.name: e for e in five}
        assert all(by_name[e.name] is e for e in four)

    def test_limit_validation(self):
        with pytest.raises(ValueOutOfRange):
            build_catalog(1)

    def test_limit_above_the_enumeration_limit_is_refused(self, monkeypatch):
        # the tables grow as about limit^4, so the refusal comes before any
        # entry is built
        assert max(e.algebra.size for e in build_catalog(16)) == 16

        def no_entry(*args, **tags):
            raise AssertionError("an entry was built")

        monkeypatch.setattr(catalog, "_entry", no_entry)
        for limit in (17, 160, 10**9):
            with pytest.raises(ValueOutOfRange, match=r"^catalog limit must be at most 16$"):
                build_catalog(limit)


class TestEntryGuarantees:
    def test_semiring_entries_validate(self):
        found = 0
        for entry in build_catalog(4):
            if entry.kind == "semiring":
                SemiringView(entry.algebra)
                found += 1
        assert found >= 8

    def test_maltsev_entries_verify(self):
        found = 0
        for entry in build_catalog(4):
            if "mal" in entry.algebra.sig:
                assert check_maltsev_term(entry.algebra, "mal")
                found += 1
        assert found >= 9  # groups, rings, modules

    def test_subtractive_entries_verify(self):
        for entry in build_catalog(4):
            if "sub" in entry.algebra.sig:
                assert check_subtractive_term(entry.algebra, "sub", entry.algebra.top)

    def test_jonsson_tarski_entries_verify(self):
        found = 0
        for entry in build_catalog(4):
            if "add" in entry.algebra.sig:
                zero = entry.algebra.table("zero")[0]
                assert check_jonsson_tarski_term(entry.algebra, "add", zero)
                found += 1
        assert found > 0

    def test_entries_are_name_algebra_and_kind(self):
        assert [f.name for f in fields(CatalogEntry)] == ["name", "algebra", "kind"]
        assert {entry.kind for entry in build_catalog(4)} == \
            {"monoid", "group", "ring", "semiring", "module", "pointed"}

    def test_pointed_sets_have_only_the_point(self):
        entry = pointed_set(3)
        assert entry.algebra.sig.symbols == (("point", 0),)
        assert entry.algebra.constants() == (0,)


class TestBuilders:
    def test_cyclic_monoid_tables(self):
        alg = cyclic_monoid(3).algebra
        assert alg.apply("add", 2, 2) == 1
        assert alg.apply("zero") == 0

    def test_saturating_monoid_caps(self):
        alg = saturating_monoid(3).algebra
        assert alg.apply("add", 2, 3) == 3
        assert alg.apply("add", 1, 1) == 2

    def test_cyclic_group_subtraction(self):
        alg = cyclic_group(5).algebra
        assert alg.apply("sub", 1, 3) == 3
        assert alg.apply("neg", 2) == 3
        assert alg.apply("mal", 1, 3, 4) == 2

    def test_cyclic_ring_unit(self):
        alg = cyclic_ring(4).algebra
        assert alg.apply("mul", 3, 3) == 1
        assert alg.apply("one") == 1

    def test_boolean_semiring_tables(self):
        alg = boolean_semiring().algebra
        assert [alg.apply("add", a, b) for a in range(2) for b in range(2)] == [0, 1, 1, 1]
        assert [alg.apply("mul", a, b) for a in range(2) for b in range(2)] == [0, 0, 0, 1]

    def test_minplus_encoding(self):
        entry = minplus_semiring(2)
        alg = entry.algebra
        inf = 3
        assert alg.top == inf
        assert alg.apply("zero") == inf  # additive identity is infinity
        assert alg.apply("one") == 0  # multiplicative identity is the numeral 0
        assert alg.apply("add", 1, inf) == 1
        assert alg.apply("add", 1, 2) == 1
        assert alg.apply("mul", 1, 2) == 2  # capped at 2
        assert alg.apply("mul", 1, inf) == inf

    def test_module_scalars(self):
        alg = cyclic_module(4).algebra
        assert alg.apply("r3", 2) == 2  # 3*2 mod 4
        assert alg.apply("r0", 3) == 0

    def test_cyclic_semiring_is_ring_without_negation(self):
        alg = cyclic_semiring(3).algebra
        assert "neg" not in alg.sig
        assert alg.apply("mul", 2, 2) == 1
