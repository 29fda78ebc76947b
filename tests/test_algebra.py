"""Core algebra layer: signatures, element sets, term enumeration, products, closures."""
from __future__ import annotations

import random
from itertools import product

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


def random_algebra(rng: random.Random, n: int, arities):
    """Ops f0, f1, ... of the given arities with uniformly random tables."""
    ops = [(f"f{i}", arity) for i, arity in enumerate(arities)]
    return make_algebra(ops, n, {name: [rng.randrange(n) for _ in range(n**a)] for name, a in ops})


def per_tuple_term_images(alg, generators, max_depth):
    """Term images one argument tuple at a time: each tuple of the pool, every
    op of positive arity, the table index multiplied out coordinate by coordinate."""
    base = set(generators) | set(alg.constants())
    images = set(base)
    depth = 0
    while max_depth is None or depth < max_depth:
        nxt = set(base)
        for _, arity, table in alg.ops():
            if arity == 0:
                continue
            for args in product(sorted(images), repeat=arity):
                idx = 0
                for a in args:
                    idx = idx * alg.size + a
                nxt.add(table[idx])
        if nxt == images:
            break
        images = nxt
        depth += 1
    return images


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

    def test_negative_size(self):
        with pytest.raises(SizeMismatch, match=r"^carrier size must be non-negative$"):
            ElementSet(-1)

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

    def test_signature_or_its_pairs(self):
        # a Signature iterates as its (name, arity) pairs: both spellings agree
        sig = Signature.of(("add", 2), ("zero", 0))
        tables = {"add": [0, 1, 1, 0], "zero": [0]}
        assert make_algebra(sig, 2, tables) == make_algebra(list(sig), 2, tables)
        assert make_algebra(sig, 2, tables).sig == sig

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("arities", [(0,), (1,), (2,), (3,), (3, 0, 2, 1)], ids=str)
    def test_pairs_act_componentwise(self, n, arities):
        alg = random_algebra(random.Random(n * 100 + len(arities)), n, arities)
        sq = product_square(alg)
        assert sq.size == n * n
        for name, arity, table in alg.ops():
            for pairs in product(product(range(n), repeat=2), repeat=arity):
                left = right = 0
                for a, b in pairs:
                    left = left * n + a
                    right = right * n + b
                encoded = [a * n + b for a, b in pairs]
                assert sq.apply(name, *encoded) == table[left] * n + table[right]

    def test_size_overflow(self):
        alg = make_algebra([("point", 0)], 65, {"point": [0]})
        with pytest.raises(SizeOverflow) as err:
            product_square(alg)
        assert str(err.value) == "squared carrier 4225 exceeds limit 4096"

    def test_table_overflow_is_refused_before_any_table_is_built(self, ten_seconds):
        # 30^2 = 900 passes the squared-carrier limit, but one ternary op
        # would give 900^3 = 729,000,000 entries
        alg = make_algebra([("t", 3)], 30, {"t": [0] * 30**3})
        with pytest.raises(SizeOverflow) as err:
            product_square(alg)
        assert str(err.value) == "square tables of 729000000 entries exceed limit 1048576"


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

    def test_generators_over_another_carrier(self):
        with pytest.raises(SizeMismatch, match=r"^generator set over a different carrier$"):
            enumerate_term_images(z_monoid(4), ElementSet.of(3, [1]))

    def test_monotone_in_depth(self):
        alg = z_monoid(4)
        gen = ElementSet.of(4, [3])
        images = [enumerate_term_images(alg, gen, d) for d in range(5)]
        for shallow, deep in zip(images, images[1:]):
            assert shallow.issubset(deep)

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_per_tuple_evaluation(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        # even seeds have no constant, so the empty generator set is an empty pool
        arities = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        if seed % 2:
            arities.append(0)
        alg = random_algebra(rng, n, arities)
        for mask in range(1 << n):
            gens = ElementSet(n, mask)
            for depth in (0, 1, 2, 3, 4, None):
                expected = per_tuple_term_images(alg, gens, depth)
                assert set(enumerate_term_images(alg, gens, depth)) == expected

    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4, None])
    def test_empty_pool(self, depth):
        # no generator and no constant: no term, at any depth
        alg = make_algebra([("s", 1), ("m", 2)], 3, {"s": [1, 2, 0], "m": [0] * 9})
        assert enumerate_term_images(alg, ElementSet.empty(3), depth) == ElementSet.empty(3)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, None])
    def test_one_element_pool(self, depth):
        # the pool is {0} at depth 1, by one generator or by one constant
        succ = [1, 2, 3, 0]
        climb = {1: {0, 1}, 2: {0, 1, 2}, 3: {0, 1, 2, 3}}
        expected = climb.get(depth, {0, 1, 2, 3})
        unary = make_algebra([("s", 1)], 4, {"s": succ})
        assert set(enumerate_term_images(unary, ElementSet.of(4, [0]), depth)) == expected
        pointed = make_algebra([("s", 1), ("z", 0)], 4, {"s": succ, "z": [0]})
        assert set(enumerate_term_images(pointed, ElementSet.empty(4), depth)) == expected
        one = make_algebra([("m", 3), ("s", 1)], 1, {"m": [0], "s": [0]})
        assert set(enumerate_term_images(one, ElementSet.full(1), depth)) == {0}

    def test_stabilized_matches_generated_subalgebra_on_catalog(self):
        # the spec-level bridge between term images and worklist closure
        for entry in build_catalog(5):
            alg = entry.algebra
            if alg.size > 5:
                continue
            for mask in range(1 << alg.size):
                seed = ElementSet(alg.size, mask)
                assert stabilized_term_images(alg, seed) == generate_subalgebra(alg, seed)
