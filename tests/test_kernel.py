"""The row-wise semicongruence kernel against closures on the materialised
square A x A: term enumeration on random small algebras and on quaternary
ops, the worklist closure on fixed algebras of up to 17 elements and on
random algebras grown from a closed base; at the carrier limit n = 64, the
worklist closure or a closed form; on the catalog's mixed signatures at
n = 10 and 16, a worklist over pairs that never materialises the square.
The fold that gives the kernel's images is checked on its own against the
images taken tuple by tuple, also with several ops of one arity stacked and
at the carrier sizes where the width of its packed lanes changes."""
from __future__ import annotations

import random
from array import array
from functools import reduce
from itertools import product as iterprod
from sys import byteorder

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finalg import (
    BinRel,
    generate_subalgebra,
    is_compatible,
    make_algebra,
    product_square,
    semicongruence_generated,
    stabilized_term_images,
)
from finalg import closure
from finalg.catalog import cyclic_module, cyclic_ring, cyclic_semiring
from finalg.algebra import _bits
from finalg.closure import Closures, _close, _cut, _fold, _lane
from finalg.errors import SizeOverflow
from references import random_algebra, square_seed, tabled


@st.composite
def algebras_with_pairs(draw):
    n = draw(st.integers(1, 4))
    # quaternary ops only up to n = 3: the square's table has (n^2)^4 entries
    arities = draw(st.lists(st.integers(0, 4 if n <= 3 else 3), min_size=1, max_size=3))
    tables = {
        f"f{i}": draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k))
        for i, k in enumerate(arities)
    }
    alg = make_algebra([(f"f{i}", k) for i, k in enumerate(arities)], n, tables)
    element = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(element, element), max_size=3))
    return alg, pairs


def _assert_columns_below_square(alg):
    # one entry per arity k >= 1, in the order the signature first names it,
    # holding the tables of that arity's m ops in signature order; n columns
    # of m n^(k-1) lanes: m n^k lanes in all, lane p of column b the mask
    # 1 << table[p * n + b], nothing of the square's (n^2)^k size; a lane is
    # the narrowest of 8, 16, 32 and 64 bits that holds n bits
    n = alg.size
    width = next(w for w in (8, 16, 32, 64) if w >= n) // 8
    arities = dict.fromkeys(k for _, k, _ in alg.ops() if k)
    stacked = [(k, tuple(v for _, arity, table in alg.ops() if arity == k for v in table))
               for k in arities]
    tables = Closures(alg)._tables
    assert [(k, table) for k, table, _ in tables] == stacked
    for k, table, columns in tables:
        assert len(columns) == n
        per, lanes = len(table) // n, []
        for column in columns:
            raw = column.to_bytes(per * width, byteorder)  # OverflowError past the last lane
            lanes.append([int.from_bytes(raw[j:j + width], byteorder)
                          for j in range(0, len(raw), width)])
        assert [lane for row in zip(*lanes) for lane in row] == [1 << v for v in table]


@settings(max_examples=300)
@given(algebras_with_pairs())
def test_equals_term_enumeration_on_the_square(case):
    alg, pairs = case
    n = alg.size
    rel = semicongruence_generated(alg, pairs)
    enum = stabilized_term_images(product_square(alg), square_seed(n, pairs))
    assert rel == BinRel.from_support(enum, n)
    assert rel.is_reflexive()
    assert is_compatible(alg, rel)
    assert all(pair in rel for pair in pairs)
    _assert_columns_below_square(alg)


def _relabelled(n: int, ops, seed: int):
    """The algebra on {0..n-1} with the given (name, arity, fn) ops, its
    elements renamed by a seeded permutation so that the bits of one class
    spread over the whole row."""
    perm = list(range(n))
    random.Random(f"relabel/{n}/{seed}").shuffle(perm)
    inv = [0] * n
    for x, y in enumerate(perm):
        inv[y] = x

    def renamed(fn):
        return lambda *args: perm[fn(*(inv[a] for a in args))]

    return tabled(n, [(name, k, renamed(fn)) for name, k, fn in ops])


def _gated_successor(n: int, k: int, p: int):
    """g(a1..ak) = a_p + 1 mod n when every coordinate before p is 0 and
    every one after it n - 1, else 0: each new pair has one derivation,
    through a tuple whose only changed row is at p."""
    gate = (0,) * p + (n - 1,) * (k - 1 - p)

    def g(*args):
        return (args[p] + 1) % n if args[:p] + args[p + 1:] == gate else 0

    return _relabelled(n, [("g", k, g)], n)


def _fixed_cases():
    # binary and unary ops up to 17 elements, ternary ones up to 9, where
    # the square's ternary table stays affordable.
    # Random tables mostly generate the full relation; the sparse and the
    # structured algebras carry proper semicongruences.
    for n in (7, 8, 9, 16, 17):
        seed = f"kernel/{n}/{n}"
        yield f"n{n}-random-unary-binary", random_algebra(random.Random(seed), n, (1, 2, 0))
        yield f"n{n}-random-unary", random_algebra(random.Random(seed), n, (1, 1))
        yield f"n{n}-sparse-binary", random_algebra(random.Random(seed), n, (2,), sparse=True)
        yield f"z{n}-monoid-double", _relabelled(
            n, [("add", 2, lambda a, b: (a + b) % n), ("dbl", 1, lambda a: 2 * a % n)], n)
        yield f"sat{n - 1}-max", _relabelled(
            n, [("add", 2, lambda a, b: min(a + b, n - 1)), ("max", 2, max)], n)
        # each pair has one derivation: a lost image bit loses a pair
        yield f"z{n}-right-successor", _relabelled(
            n, [("succ", 2, lambda a, b: (b + 1) % n)], n)
    for n in (7, 8, 9):
        seed = f"kernel/{n}/{n}"
        yield f"n{n}-random-unary-ternary", random_algebra(random.Random(seed), n, (1, 3))
        yield f"n{n}-sparse-ternary", random_algebra(random.Random(seed), n, (3,), sparse=True)
        if n < 9:  # z9-ring below carries the same op
            yield f"z{n}-maltsev", _relabelled(
                n, [("mal", 3, lambda a, b, c: (a - b + c) % n), ("neg", 1, lambda a: -a % n)], n)
        yield f"z{n}-last-successor", _relabelled(
            n, [("succ", 3, lambda a, b, c: (c + 1) % n)], n)
        yield f"z{n}-gated-middle-successor", _gated_successor(n, 3, 1)
    yield "z9-ring", cyclic_ring(9).algebra


FIXED = list(_fixed_cases())
fixed_algebras = pytest.mark.parametrize(
    "alg", [alg for _, alg in FIXED], ids=[name for name, _ in FIXED]
)


@fixed_algebras
def test_equals_worklist_closure_on_the_square(alg):
    n = alg.size
    square = product_square(alg)
    for pairs in ([], [(n - 1, 0)], [(1, 0), (3, n - 2)], [(2, 5), (n - 1, 6), (0, 8 % n)]):
        expected = generate_subalgebra(square, square_seed(n, pairs))
        assert semicongruence_generated(alg, pairs) == BinRel.from_support(expected, n), pairs


def _quaternary_cases():
    # n <= 3 keeps the square's quaternary table at 6,561 entries; the gated
    # successors need every first changed coordinate
    for n in (2, 3):
        for p in range(4):
            yield f"n{n}-gated-successor-{p}", _gated_successor(n, 4, p)
        seed = f"kernel/{n}/{n}"
        yield f"n{n}-random-quaternary-unary", random_algebra(random.Random(seed), n, (4, 1))
        yield f"n{n}-sparse-quaternary", random_algebra(random.Random(seed), n, (4,), sparse=True)


QUATERNARY = list(_quaternary_cases())


@pytest.mark.parametrize("alg", [alg for _, alg in QUATERNARY],
                         ids=[name for name, _ in QUATERNARY])
def test_quaternary_ops_equal_term_enumeration_on_the_square(alg):
    n = alg.size
    square = product_square(alg)
    for pairs in [[pair] for pair in iterprod(range(n), repeat=2)] + [[(1, 0), (0, n - 1)]]:
        enum = stabilized_term_images(square, square_seed(n, pairs))
        assert semicongruence_generated(alg, pairs) == BinRel.from_support(enum, n), pairs


def test_gated_middle_successor_from_every_pair():
    # the fixed pair lists above name elements up to 8, so n = 4 runs here
    n = 4
    alg = _gated_successor(n, 3, 1)
    square = product_square(alg)
    for pair in iterprod(range(n), repeat=2):
        expected = generate_subalgebra(square, square_seed(n, [pair]))
        assert semicongruence_generated(alg, [pair]) == BinRel.from_support(expected, n), pair


@pytest.mark.parametrize("succ", [lambda a: (a + 1) % 64, lambda a: min(a + 1, 63)],
                         ids=["mod", "truncated"])
def test_unary_successor_at_the_carrier_limit(succ):
    # n = 64 is the largest carrier the square limit allows; from (1, 0)
    # the successor derives one new pair per round, about n rounds
    n = 64
    alg = make_algebra([("succ", 1)], n, {"succ": [succ(a) for a in range(n)]})
    square = product_square(alg)
    for pairs in ([(1, 0)], [(n - 1, 0)], [(0, 9), (40, 17)]):
        expected = generate_subalgebra(square, square_seed(n, pairs))
        assert semicongruence_generated(alg, pairs) == BinRel.from_support(expected, n), pairs


@pytest.mark.parametrize("wrap", [True, False], ids=["mod", "truncated"])
def test_binary_right_successor_at_the_carrier_limit(wrap):
    # s(a, b) = b + 1 maps pair (b, b') to (b + 1, b' + 1), so (1, 0) closes
    # to the diagonal and every (x + 1, x), over about n rounds; the square's
    # binary table would hold 16.7 M entries
    n = 64
    succ = [(b + 1) % n if wrap else min(b + 1, n - 1) for b in range(n)]
    alg = make_algebra([("s", 2)], n, {"s": succ * n})
    pairs = [(a, a) for a in range(n)] + [(x + 1, x) for x in range(n - 1)]
    if wrap:
        pairs.append((0, n - 1))
    assert semicongruence_generated(alg, [(1, 0)]) == BinRel.from_pairs(n, pairs)


def test_dense_sum_at_the_carrier_limit():
    # (a + b) mod 64 from (1, 0): (a, a) + (1, 0) = (a + 1, a), and sums of
    # those reach every difference, so the relation is the full square; a
    # round with every row changed folds the widest column matrix, 64
    # prefixes of 64 lanes of 64 bits
    n = 64
    alg = make_algebra([("add", 2)], n, {"add": [(a + b) % n for a in range(n) for b in range(n)]})
    assert semicongruence_generated(alg, [(1, 0)]) == \
        BinRel.from_pairs(n, iterprod(range(n), repeat=2))


@settings(max_examples=200)
@given(algebras_with_pairs(), st.data())
def test_growth_from_a_closed_base_equals_the_square_closure(case, data):
    # the base is the square closure of P, not the kernel's; the kernel grows
    # it by Q and must give the square closure of P and Q together
    alg, pairs = case
    n = alg.size
    element = st.integers(0, n - 1)
    more = data.draw(st.lists(st.tuples(element, element), max_size=3))
    square = product_square(alg)
    base = BinRel.from_support(generate_subalgebra(square, square_seed(n, pairs)), n).rows
    rows = list(base)
    for a, b in more:
        rows[a] |= 1 << b
    expected = generate_subalgebra(square, square_seed(n, pairs + more))
    assert BinRel(n, _close(Closures(alg), rows, base)) == BinRel.from_support(expected, n)


@fixed_algebras
def test_translation_tables_never_exceed_the_square(alg):
    # named for the translation tables that the packed columns replaced; it
    # checks the columns
    _assert_columns_below_square(alg)


def _assert_fold_exact(alg, rng, members=None):
    # the fold through each arity's stacked columns against f(R[a1] x ... x
    # R[ak]) for every op f of that arity, op j's table at j * n^k, on random
    # pools and rows (`members` bits each, else dense): tuple by tuple, each
    # folded alone, then the whole product at once; a kernel row is never
    # empty
    n = alg.size

    def index(args):
        return reduce(lambda i, a: i * n + a, args, 0)

    def row():
        if members:
            return sorted(rng.sample(range(n), rng.randint(1, members)))
        return list(_bits(rng.getrandbits(n) | 1 << rng.randrange(n)))

    for k, table, columns in Closures(alg)._tables:
        ops = range(0, len(table), n ** k)
        for _ in range(3):
            row_bits = [row() for _ in range(n)]
            pools = [rng.sample(range(n), rng.randrange(n + 1)) for _ in range(k)]
            want = [0] * n
            for args in iterprod(*pools):
                images = [0] * n
                for j in ops:
                    bss = iterprod(*(row_bits[a] for a in args))
                    images[table[j + index(args)]] |= sum({1 << table[j + index(bs)] for bs in bss})
                alone = [0] * n
                _fold(table, columns, [[a] for a in args], row_bits, alone, _lane(n))
                assert alone == images, args
                want = [w | i for w, i in zip(want, images)]
            gained = [0] * n
            _fold(table, columns, pools, row_bits, gained, _lane(n))
            assert gained == want, pools


@fixed_algebras
def test_translation_tables_give_exact_images(alg):
    # named, like the test above, for the translation tables; it checks the
    # fold's images through the packed columns
    _assert_fold_exact(alg, random.Random(f"fold/{alg.size}"))


def _lane_table(rng, n, k):
    # every table holds 0 and n - 1, so the top bit of the lane is folded
    table = [rng.choice((0, n - 1, rng.randrange(n))) for _ in range(n**k)]
    table[:2] = [0, n - 1]
    return table


def _lane_cases():
    # the sizes where the lane's width or typecode changes; ternary ops,
    # whose folds transpose twice, up to 17 (32-bit lanes), where n^3 stays
    # cheap. The stacked cases put three ops of one arity around a constant
    # and, for k >= 2, a unary op, so that each arity's tables stack in
    # signature order
    sizes = [(n, k) for n in (8, 9, 16, 17, 32, 33, 64) for k in (1, 2, 3) if n <= 17 or k < 3]
    for n, k in sizes:
        table = _lane_table(random.Random(f"lanes/{n}/{k}"), n, k)
        yield f"n{n}-arity{k}", make_algebra([("f", k)], n, {"f": table})
    for n, k in sizes:
        rng = random.Random(f"stacked-lanes/{n}/{k}")
        sig = [("f", k), ("c", 0)] + [("u", 1)] * (k > 1) + [("g", k), ("h", k)]
        tables = {name: _lane_table(rng, n, arity) if arity else [rng.randrange(n)]
                  for name, arity in sig}
        yield f"n{n}-arity{k}-stacked", make_algebra(sig, n, tables)


LANES = list(_lane_cases())


@pytest.mark.parametrize("alg", [alg for _, alg in LANES], ids=[name for name, _ in LANES])
def test_fold_is_exact_at_lane_boundaries(alg):
    # sparse rows keep the tuple-by-tuple product small at n = 64; on full
    # rows op j maps every tuple to the mask of all its values, whose bit
    # n - 1 is the top bit of a lane (1 << 63 at n = 64)
    n = alg.size
    _assert_columns_below_square(alg)
    _assert_fold_exact(alg, random.Random(f"fold-lanes/{n}"), members=4)
    for k, table, columns in Closures(alg)._tables:
        gained = [0] * n
        _fold(table, columns, [range(n)] * k, [list(range(n))] * n, gained, _lane(n))
        want = [0] * n
        for j in range(0, len(table), n ** k):
            values = set(table[j:j + n ** k])
            every = sum(1 << v for v in values)
            assert every >> (n - 1) == 1
            for x in values:
                want[x] |= every
        assert gained == want


@pytest.mark.parametrize("alg", [alg for _, alg in LANES], ids=[name for name, _ in LANES])
def test_columns_equal_the_array_packing(alg):
    # the columns are packed by looking up each entry's lane; they must be
    # the columns of the array of masks 1 << v in the lane's typecode
    n = alg.size
    fmt = _lane(n)
    for _, table, columns in Closures(alg)._tables:
        assert columns == _cut(array(fmt, [1 << v for v in table]).tobytes(), n, fmt)


def test_one_table_entry_per_arity():
    # z8-module: add and sub binary, neg and the eight scalings unary, mal
    # ternary, zero a constant
    alg = cyclic_module(8).algebra
    assert [(k, len(table)) for k, table, _ in Closures(alg)._tables] == \
        [(2, 2 * 8**2), (1, 9 * 8), (3, 8**3)]


def test_full_square_after_one_round_ends_the_closure(monkeypatch):
    # z3-ring from (1, 0): the first round fills the square, which is
    # closed, so no second round confirms it
    alg = cyclic_ring(3).algebra
    folds = []
    fold = closure._fold
    monkeypatch.setattr(closure, "_fold", lambda *args: folds.append(1) or fold(*args))
    diagonal = [1 << a for a in range(3)]
    rows = list(diagonal)
    rows[1] |= 1
    assert _close(Closures(alg), rows, diagonal) == (7, 7, 7)
    assert len(folds) == sum(k for k, _, _ in Closures(alg)._tables)


def _pair_worklist(alg, pairs):
    # the subalgebra of A x A generated by the pairs and the diagonal, by a
    # worklist over pairs that reads each op's table on both sides and never
    # materialises the square: a round takes each argument tuple with a fresh
    # pair once, by its first fresh coordinate
    n = alg.size

    def index(args):
        return reduce(lambda i, a: i * n + a, args, 0)

    current = list(dict.fromkeys([(a, a) for a in range(n)] + list(pairs)))
    frontier = current
    while frontier:
        old = current[:len(current) - len(frontier)]
        reached = set()
        for _, k, table in alg.ops():
            for i in range(k):
                for args in iterprod(*[old] * i, frontier, *[current] * (k - 1 - i)):
                    left, right = zip(*args)
                    reached.add((table[index(left)], table[index(right)]))
        frontier = list(reached.difference(current))
        current += frontier
    return BinRel.from_pairs(n, current)


MIXED = [
    ("z16-ring", cyclic_ring(16), [(8, 0)]),
    ("z16-ring-quarter", cyclic_ring(16), [(4, 0)]),
    ("z10-module", cyclic_module(10), [(5, 0)]),
    ("z10-module-even", cyclic_module(10), [(2, 0)]),
    ("z16-semiring", cyclic_semiring(16), [(1, 0)]),
    ("z16-semiring-two-pairs", cyclic_semiring(16), [(0, 4), (6, 10)]),
]


@pytest.mark.parametrize("entry, pairs", [(entry, pairs) for _, entry, pairs in MIXED],
                         ids=[name for name, _, _ in MIXED])
def test_mixed_signature_equals_pair_worklist(entry, pairs):
    # several ops of one arity beside ops of others, so each round folds
    # stacked tables; the ternary mal keeps the relations small
    alg = entry.algebra
    assert semicongruence_generated(alg, pairs) == _pair_worklist(alg, pairs)


def test_oversized_carrier_still_overflows():
    alg = make_algebra([("f", 1)], 65, {"f": list(range(65))})
    with pytest.raises(SizeOverflow, match=r"^squared carrier 4225 exceeds limit 4096$"):
        semicongruence_generated(alg, [(70, 0)])
