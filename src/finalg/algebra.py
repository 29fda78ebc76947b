"""Finite algebras: signatures, carriers, operation tables, term images.

Carriers are {0, ..., size-1}. Every operation is a total lookup table stored
flat in row-major order, leftmost argument varying slowest. Arity-0 symbols
are constants with a one-entry table.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

from .errors import (
    ArityMismatch,
    DuplicateSymbol,
    SizeMismatch,
    SizeOverflow,
    UnknownSymbol,
    ValueOutOfRange,
)

DEFAULT_CARRIER_LIMIT = 4096
SQUARE_TABLE_LIMIT = 1 << 20  # entries in all of a product square's tables
ENUMERATION_LIMIT = 16  # largest carrier whose subsets are enumerated


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Signature:
    """Ordered operation symbols with arities."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for name, arity in self.symbols:
            if name in seen:
                raise DuplicateSymbol(f"duplicate operation symbol {name!r}")
            if arity < 0:
                raise ArityMismatch(f"negative arity for {name!r}")
            seen.add(name)

    @classmethod
    def of(cls, *symbols: tuple[str, int]) -> "Signature":
        return cls(tuple((str(n), int(a)) for n, a in symbols))

    def arity(self, name: str) -> int:
        for sym, arity in self.symbols:
            if sym == name:
                return arity
        raise UnknownSymbol(f"unknown operation symbol {name!r}")

    def __contains__(self, name: str) -> bool:
        return any(sym == name for sym, _ in self.symbols)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self.symbols)


@dataclass(frozen=True)
class ElementSet:
    """Subset of a carrier {0, ..., size-1}, membership held in a bitmask."""

    size: int
    mask: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise SizeMismatch("carrier size must be non-negative")
        if self.mask < 0 or self.mask >> self.size:
            raise ValueOutOfRange("bitmask exceeds carrier size")

    @classmethod
    def of(cls, size: int, members: Iterable[int]) -> "ElementSet":
        mask = 0
        for x in members:
            if not 0 <= x < size:
                raise ValueOutOfRange(f"element {x} outside carrier of size {size}")
            mask |= 1 << x
        return cls(size, mask)

    @classmethod
    def empty(cls, size: int) -> "ElementSet":
        return cls(size, 0)

    @classmethod
    def full(cls, size: int) -> "ElementSet":
        return cls(size, (1 << size) - 1)

    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.size and bool(self.mask >> x & 1)

    def __iter__(self) -> Iterator[int]:
        return _bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def _check(self, other: "ElementSet") -> None:
        if self.size != other.size:
            raise SizeMismatch("element sets over different carriers")

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.size, self.mask | other.mask)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.size, self.mask & other.mask)

    def issubset(self, other: "ElementSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def with_element(self, x: int) -> "ElementSet":
        if not 0 <= x < self.size:
            raise ValueOutOfRange(f"element {x} outside carrier of size {self.size}")
        return ElementSet(self.size, self.mask | 1 << x)

    def __str__(self) -> str:
        return "{" + ",".join(str(x) for x in self) + "}"


@dataclass(frozen=True)
class FiniteAlgebra:
    """Immutable finite algebra: signature, carrier size, tables, optional top.

    `tables` is aligned with `sig.symbols`; `top` is a distinguished element
    used by the closure operators, or None. The closure engine keeps the
    relations it computes on an object in that object, outside the fields
    (`closure.Closures`), so they live as long as the object does.
    """

    sig: Signature
    size: int
    tables: tuple[tuple[int, ...], ...]
    top: int | None = None

    def ops(self) -> Iterator[tuple[str, int, tuple[int, ...]]]:
        for (name, arity), table in zip(self.sig.symbols, self.tables):
            yield name, arity, table

    def table(self, name: str) -> tuple[int, ...]:
        for sym, table in zip(self.sig.symbols, self.tables):
            if sym[0] == name:
                return table
        raise UnknownSymbol(f"unknown operation symbol {name!r}")

    def constants(self) -> tuple[int, ...]:
        return tuple(t[0] for (_, a), t in zip(self.sig.symbols, self.tables) if a == 0)

    def apply(self, name: str, *args: int) -> int:
        arity = self.sig.arity(name)
        if len(args) != arity:
            raise ArityMismatch(f"{name!r} expects {arity} arguments, got {len(args)}")
        idx = 0
        for a in args:
            if not 0 <= a < self.size:
                raise ValueOutOfRange(f"argument {a} outside carrier of size {self.size}")
            idx = idx * self.size + a
        return self.table(name)[idx]


def _power(base: int, exponent: int) -> str:
    """base**exponent in decimal, or as `base**exponent` past Python's
    int-to-str limit (4300 digits by default) or, uncomputed, past 16384 bits."""
    try:
        if exponent * (base.bit_length() - 1) <= 16384:
            return str(base**exponent)
    except ValueError:
        pass
    return f"{base}**{exponent}"


def make_algebra(
    sig: Signature | Iterable[tuple[str, int]],
    size: int,
    tables: Mapping[str, Iterable[int]],
    top: int | None = None,
) -> FiniteAlgebra:
    """Validate raw table data and build a FiniteAlgebra."""
    sig = Signature.of(*sig)
    if size < 1:
        raise SizeMismatch("carrier size must be at least 1")
    for name in tables:
        if name not in sig:
            raise UnknownSymbol(f"table given for undeclared symbol {name!r}")
    aligned = []
    for name, arity in sig.symbols:
        if name not in tables:
            raise ArityMismatch(f"no table for operation {name!r}")
        table = tuple(map(int, tables[name]))
        # past the table's bit length, size**arity cannot match: not computed
        if size > 1 and arity > len(table).bit_length() or len(table) != size**arity:
            raise ArityMismatch(
                f"table for {name!r} has {len(table)} entries, expected {_power(size, arity)}"
            )
        if min(table) < 0 or max(table) >= size:
            bad = next(v for v in table if not 0 <= v < size)
            raise ValueOutOfRange(f"table entry {bad} outside carrier of size {size}")
        aligned.append(table)
    if top is not None and not 0 <= top < size:
        raise ValueOutOfRange(f"top element {top} outside carrier of size {size}")
    return FiniteAlgebra(sig, size, tuple(aligned), top)


def product_square(algebra: FiniteAlgebra) -> FiniteAlgebra:
    """The direct square A x A with pair (a, b) encoded as a*size + b.

    Built afresh on every call, with (n^2)^k entries for a k-ary op, and
    refused before any table is built when the entries of all the tables
    would exceed SQUARE_TABLE_LIMIT. The closure engine never builds it; the
    term-enumeration checks close over it as an independent reference."""
    n = algebra.size
    n2 = n * n
    if n2 > DEFAULT_CARRIER_LIMIT:
        raise SizeOverflow(f"squared carrier {n2} exceeds limit {DEFAULT_CARRIER_LIMIT}")
    entries = sum(n2**arity for _, arity in algebra.sig)
    if entries > SQUARE_TABLE_LIMIT:
        raise SizeOverflow(
            f"square tables of {entries} entries exceed limit {SQUARE_TABLE_LIMIT}"
        )
    high = [p // n for p in range(n2)]
    low = [p % n for p in range(n2)]
    tables = []
    for _, arity, table in algebra.ops():
        # a constant's one, empty, argument tuple gives the pair (c, c)
        left = right = [0]
        for _ in range(arity):
            left = [i * n + a for i in left for a in high]
            right = [i * n + b for i in right for b in low]
        tables.append(tuple(table[a] * n + table[b] for a, b in zip(left, right)))
    top = None if algebra.top is None else algebra.top * n + algebra.top
    return FiniteAlgebra(algebra.sig, n2, tuple(tables), top)


def generate_subalgebra(algebra: FiniteAlgebra, seed: ElementSet) -> ElementSet:
    """Smallest subset containing `seed` and every constant, closed under all
    operations. Worklist closure: a round takes each argument tuple with a
    fresh element once, by its first fresh coordinate i, from the pools
    old^i x frontier x current^(k-1-i)."""
    if seed.size != algebra.size:
        raise SizeMismatch("seed set over a different carrier")
    n = algebra.size
    current = sorted(set(seed) | set(algebra.constants()))
    frontier = current
    while frontier:
        old = current[:len(current) - len(frontier)]
        reached: set[int] = set()
        for _, arity, table in algebra.ops():
            for i in range(arity):
                offsets = [0]
                for pool in [old] * i + [frontier] + [current] * (arity - 1 - i):
                    offsets = [o * n + a for o in offsets for a in pool]
                reached.update(map(table.__getitem__, offsets))
        frontier = list(reached.difference(current))
        current = current + frontier
    return ElementSet.of(n, current)


def stabilized_term_images(algebra: FiniteAlgebra, generators: ElementSet) -> ElementSet:
    """Values of all terms whose variables range over `generators`, level by
    level until one more level adds nothing. Level 0 holds the variables and
    constants; each level applies every operation to the level before. Naive
    by design, as the reference the closure engine is checked against: each
    level evaluates every argument tuple of the whole pool. A unary op's
    images are one gather of the pool from its table. An op of arity k >= 2
    reads its last two coordinates by one gather per n x n block: the pair
    codes a * n + b over pool x pool, built once per level, picked from the
    block of each prefix in pool^(k-2). It stays public under this name:
    `perfbench/spans.py` wraps it, and `Tracer.install` fails without it."""
    if generators.size != algebra.size:
        raise SizeMismatch("generator set over a different carrier")
    base = set(generators) | set(algebra.constants())
    images = set(base)
    nonconst = [(arity, table) for _, arity, table in algebra.ops() if arity > 0]
    n = algebra.size
    block = n * n
    pair_ops = any(arity >= 2 for arity, _ in nonconst)
    while images:  # no variable and no constant: no term at all
        nxt = set(base)
        pool = list(images)
        # the repeated first index keeps a tuple when the pool has one element
        pick = itemgetter(*pool, pool[0])
        if pair_ops:
            codes = [a * n + b for a in pool for b in pool]
            pick_pairs = itemgetter(*codes, codes[0])
        for arity, table in nonconst:
            if arity == 1:
                nxt.update(pick(table))
                continue
            prefixes = [0]
            for _ in range(arity - 2):
                prefixes = [o * n + a for o in prefixes for a in pool]
            for o in prefixes:
                nxt.update(pick_pairs(table[o * block : o * block + block]))
        if nxt == images:
            break
        images = nxt
    return ElementSet.of(n, images)
