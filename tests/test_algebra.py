"""Core algebra layer: signatures, element sets, term enumeration, products, closures."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finalg import (
    ElementSet,
    Signature,
    build_catalog,
    enumerate_term_images,
    generate_subalgebra,
    make_algebra,
    product_square,
    stabilized_term_images,
)
from finalg.errors import (
    ArityMismatch,
    DuplicateSymbol,
    SizeMismatch,
    SizeOverflow,
    UnknownSymbol,
    ValueOutOfRange,
)


def z_monoid(n: int):
    return make_algebra(
        Signature.of(("add", 2), ("zero", 0)),
        n,
        {"add": [(a + b) % n for a in range(n) for b in range(n)], "zero": [0]},
        top=0,
    )


class TestSignature:
    def test_of_and_arity(self):
        sig = Signature.of(("add", 2), ("zero", 0))
        assert sig.arity("add") == 2
        assert sig.arity("zero") == 0
        assert "add" in sig and "mul" not in sig
        assert list(sig) == [("add", 2), ("zero", 0)]

    def test_duplicate_symbol(self):
        with pytest.raises(DuplicateSymbol):
            Signature.of(("f", 1), ("f", 2))

    def test_negative_arity(self):
        with pytest.raises(ArityMismatch):
            Signature.of(("f", -1))

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            Signature.of(("f", 1)).arity("g")


class TestElementSet:
    def test_construction_and_queries(self):
        s = ElementSet.of(4, [2, 0])
        assert str(s) == "{0,2}"
        assert list(s) == [0, 2]
        assert s.members() == (0, 2)
        assert len(s) == 2
        assert 0 in s and 2 in s and 1 not in s and 4 not in s
        assert bool(s)
        assert not ElementSet.empty(4)
        assert str(ElementSet.empty(4)) == "{}"
        assert list(ElementSet.full(3)) == [0, 1, 2]

    def test_set_algebra(self):
        a = ElementSet.of(4, [0, 1])
        b = ElementSet.of(4, [1, 2])
        assert list(a | b) == [0, 1, 2]
        assert list(a & b) == [1]
        assert a.issubset(a | b)
        assert not (a | b).issubset(a)
        assert list(a.with_element(3)) == [0, 1, 3]
        assert a.with_element(1) == a

    def test_range_validation(self):
        with pytest.raises(ValueOutOfRange):
            ElementSet.of(2, [2])
        with pytest.raises(ValueOutOfRange):
            ElementSet(2, 1 << 2)
        with pytest.raises(ValueOutOfRange):
            ElementSet.of(3, [1]).with_element(3)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            ElementSet.of(2, [0]) | ElementSet.of(3, [0])
        with pytest.raises(SizeMismatch):
            ElementSet.of(2, [0]).issubset(ElementSet.of(3, [0]))

    @given(st.integers(1, 8), st.data())
    def test_or_and_issubset_agree_with_python_sets(self, size, data):
        xs = data.draw(st.sets(st.integers(0, size - 1)))
        ys = data.draw(st.sets(st.integers(0, size - 1)))
        a, b = ElementSet.of(size, xs), ElementSet.of(size, ys)
        assert set(a | b) == xs | ys
        assert set(a & b) == xs & ys
        assert a.issubset(b) == (xs <= ys)


class TestMakeAlgebra:
    def test_trivial_monoid(self):
        alg = z_monoid(1)
        assert alg.size == 1
        assert alg.apply("add", 0, 0) == 0
        assert alg.constants() == (0,)

    def test_wrong_table_length(self):
        with pytest.raises(ArityMismatch):
            make_algebra([("add", 2), ("zero", 0)], 2, {"add": [0, 1, 1], "zero": [0]})

    @pytest.mark.parametrize("arity, expected", [
        (3, "1000"), (4285, "1" + "0" * 4285), (4300, "10**4300"), (20_000_000, "10**20000000"),
    ])
    def test_table_length_message(self, arity, expected):
        # the count is written as a power past Python's 4300-digit str limit
        with pytest.raises(ArityMismatch) as exc:
            make_algebra([("f", arity)], 10, {"f": [0]})
        assert str(exc.value) == f"table for 'f' has 1 entries, expected {expected}"

    def test_entry_out_of_range(self):
        with pytest.raises(ValueOutOfRange):
            make_algebra([("f", 1)], 2, {"f": [0, 2]})

    def test_missing_and_undeclared_tables(self):
        with pytest.raises(ArityMismatch):
            make_algebra([("f", 1), ("g", 1)], 2, {"f": [0, 1]})
        with pytest.raises(UnknownSymbol):
            make_algebra([("f", 1)], 2, {"f": [0, 1], "g": [0, 1]})

    def test_top_out_of_range(self):
        with pytest.raises(ValueOutOfRange):
            make_algebra([("f", 1)], 2, {"f": [0, 1]}, top=2)

    def test_size_must_be_positive(self):
        with pytest.raises(SizeMismatch):
            make_algebra([("f", 1)], 0, {"f": []})

    def test_apply_validates(self):
        alg = z_monoid(3)
        assert alg.apply("add", 2, 2) == 1
        with pytest.raises(ArityMismatch):
            alg.apply("add", 1)
        with pytest.raises(ValueOutOfRange):
            alg.apply("add", 1, 3)
        with pytest.raises(UnknownSymbol):
            alg.table("mul")


class TestProductSquare:
    def test_one_element(self):
        sq = product_square(z_monoid(1))
        assert sq.size == 1

    def test_componentwise_addition_z2(self):
        # encoded pairs: (1,0) = 2, (1,1) = 3; (1,0)+(1,1) = (0,1) = 1
        sq = product_square(z_monoid(2))
        assert sq.size == 4
        assert sq.apply("add", 2, 3) == 1

    def test_constants_act_diagonally(self):
        sq = product_square(z_monoid(3))
        assert sq.constants() == (0,)  # (0,0) encoded as 0*3+0

    def test_top_encodes_diagonally(self):
        alg = make_algebra([("f", 1)], 3, {"f": [0, 1, 2]}, top=2)
        assert product_square(alg).top == 2 * 3 + 2

    def test_size_overflow(self):
        alg = make_algebra([("point", 0)], 65, {"point": [0]})
        with pytest.raises(SizeOverflow) as err:
            product_square(alg)
        assert str(err.value) == "squared carrier 4225 exceeds limit 4096"


class TestGenerateSubalgebra:
    def test_z4_frozen_values(self):
        alg = z_monoid(4)
        assert set(generate_subalgebra(alg, ElementSet.of(4, [1]))) == {0, 1, 2, 3}
        assert set(generate_subalgebra(alg, ElementSet.empty(4))) == {0}
        assert set(generate_subalgebra(alg, ElementSet.of(4, [2]))) == {0, 2}

    def test_seed_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            generate_subalgebra(z_monoid(4), ElementSet.of(3, [1]))

    def test_idempotent_and_monotone_on_catalog(self):
        for entry in build_catalog(4):
            alg = entry.algebra
            full = ElementSet.full(alg.size)
            seen = []
            for mask in range(1 << alg.size):
                seed = ElementSet(alg.size, mask)
                out = generate_subalgebra(alg, seed)
                assert generate_subalgebra(alg, out) == out
                assert seed.issubset(out) and out.issubset(full)
                seen.append((seed, out))
            for seed_a, out_a in seen:
                for seed_b, out_b in seen:
                    if seed_a.issubset(seed_b):
                        assert out_a.issubset(out_b)
                        break

    def test_high_arity_fallback(self):
        # 4-ary parity operation exercises the generic worklist branch
        table = [
            (a + b + c + d) % 2
            for a in range(2)
            for b in range(2)
            for c in range(2)
            for d in range(2)
        ]
        alg = make_algebra([("par4", 4)], 2, {"par4": table})
        assert set(generate_subalgebra(alg, ElementSet.of(2, [1]))) == {0, 1}
        assert set(generate_subalgebra(alg, ElementSet.of(2, [0]))) == {0}


class TestTermEnumeration:
    def test_depth_zero_is_generators_plus_constants(self):
        alg = z_monoid(4)
        assert set(enumerate_term_images(alg, ElementSet.of(4, [1]), 0)) == {0, 1}

    def test_depth_two_reaches_everything_in_z4(self):
        alg = z_monoid(4)
        assert set(enumerate_term_images(alg, ElementSet.of(4, [1]), 2)) == {0, 1, 2, 3}

    def test_full_carrier_depth_zero(self):
        alg = z_monoid(4)
        assert enumerate_term_images(alg, ElementSet.full(4), 0) == ElementSet.full(4)

    def test_negative_depth(self):
        with pytest.raises(ValueOutOfRange):
            enumerate_term_images(z_monoid(2), ElementSet.empty(2), -1)

    def test_monotone_in_depth(self):
        alg = z_monoid(4)
        gen = ElementSet.of(4, [3])
        images = [enumerate_term_images(alg, gen, d) for d in range(5)]
        for shallow, deep in zip(images, images[1:]):
            assert shallow.issubset(deep)

    def test_stabilized_matches_generated_subalgebra_on_catalog(self):
        # the spec-level bridge between term images and worklist closure
        for entry in build_catalog(5):
            alg = entry.algebra
            if alg.size > 5:
                continue
            for mask in range(1 << alg.size):
                seed = ElementSet(alg.size, mask)
                assert stabilized_term_images(alg, seed) == generate_subalgebra(alg, seed)
