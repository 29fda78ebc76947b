"""Binary relations on a finite carrier as bit-packed boolean matrices.

Row a of `rows` holds the successors of a: bit b is set iff a R b. The
relation closures refuse carriers whose square exceeds DEFAULT_CARRIER_LIMIT
(4096 pairs), so a generated relation lives on at most 64 elements and each row
fits in one machine word.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iterprod
from typing import Iterable

from .algebra import ElementSet, FiniteAlgebra, _bits
from .errors import SizeMismatch, ValueOutOfRange


@dataclass(frozen=True)
class BinRel:
    size: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.size:
            raise SizeMismatch("row count differs from carrier size")
        full = (1 << self.size) - 1
        for row in self.rows:
            if row < 0 or row & ~full:
                raise ValueOutOfRange("row bits exceed carrier size")

    @classmethod
    def empty(cls, size: int) -> "BinRel":
        return cls(size, (0,) * size)

    @classmethod
    def diagonal(cls, size: int) -> "BinRel":
        return cls(size, tuple(1 << a for a in range(size)))

    @classmethod
    def full(cls, size: int) -> "BinRel":
        return cls(size, ((1 << size) - 1,) * size)

    @classmethod
    def from_pairs(cls, size: int, pairs: Iterable[tuple[int, int]]) -> "BinRel":
        rows = [0] * size
        for a, b in pairs:
            if not (0 <= a < size and 0 <= b < size):
                raise ValueOutOfRange(f"pair ({a},{b}) outside carrier of size {size}")
            rows[a] |= 1 << b
        return cls(size, tuple(rows))

    @classmethod
    def from_support(cls, support: ElementSet, size: int) -> "BinRel":
        """Decode a subset of the squared carrier (pair (a,b) at bit a*size+b)."""
        if support.size != size * size:
            raise SizeMismatch("support set is not over the squared carrier")
        rows = [0] * size
        for code in support:
            rows[code // size] |= 1 << (code % size)
        return cls(size, tuple(rows))

    def support(self) -> ElementSet:
        """Encode as a subset of the squared carrier."""
        mask = 0
        for a, row in enumerate(self.rows):
            mask |= row << (a * self.size)
        return ElementSet(self.size * self.size, mask)

    def pairs(self) -> list[tuple[int, int]]:
        return [(a, b) for a in range(self.size) for b in _bits(self.rows[a])]

    def __contains__(self, pair: tuple[int, int]) -> bool:
        a, b = pair
        return 0 <= a < self.size and 0 <= b < self.size and bool(self.rows[a] >> b & 1)

    def __len__(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def _check(self, other: "BinRel") -> None:
        if self.size != other.size:
            raise SizeMismatch("relations over different carriers")

    def union(self, other: "BinRel") -> "BinRel":
        self._check(other)
        return BinRel(self.size, tuple(a | b for a, b in zip(self.rows, other.rows)))

    def issubset(self, other: "BinRel") -> bool:
        self._check(other)
        return all(a & ~b == 0 for a, b in zip(self.rows, other.rows))

    def is_reflexive(self) -> bool:
        return all(row >> a & 1 for a, row in enumerate(self.rows))

    def is_symmetric(self) -> bool:
        return self == opposite(self)

    def is_transitive(self) -> bool:
        return compose(self, self).issubset(self)


def compose(first: BinRel, second: BinRel) -> BinRel:
    """a (first;second) c iff some b has a first b and b second c."""
    first._check(second)
    return BinRel(first.size, tuple(_right_mask(second.rows, row) for row in first.rows))


def opposite(rel: BinRel) -> BinRel:
    rows = [0] * rel.size
    for a, row in enumerate(rel.rows):
        bit = 1 << a
        for b in _bits(row):
            rows[b] |= bit
    return BinRel(rel.size, tuple(rows))


def left_image(rel: BinRel, targets: ElementSet) -> ElementSet:
    """{x | x R y for some y in targets}."""
    _check_image_carrier(rel.size, targets, "left")
    return ElementSet(rel.size, _left_mask(rel.rows, targets.mask))


def right_image(rel: BinRel, sources: ElementSet) -> ElementSet:
    """{x | y R x for some y in sources}."""
    _check_image_carrier(rel.size, sources, "right")
    return ElementSet(rel.size, _right_mask(rel.rows, sources.mask))


def _check_image_carrier(size: int, subset: ElementSet, side: str) -> None:
    """Refuse a set over another carrier: as the target of a left image, the
    source of a right image, or, with any other side, as a set."""
    if subset.size != size:
        role = {"left": "target ", "right": "source "}.get(side, "")
        raise SizeMismatch(f"{role}set over a different carrier")


def _left_mask(rows: tuple[int, ...], targets: int) -> int:
    """Mask of the a whose row meets the mask `targets`."""
    mask = 0
    for a, row in enumerate(rows):
        if row & targets:
            mask |= 1 << a
    return mask


def _right_mask(rows: tuple[int, ...], sources: int) -> int:
    """Union of the rows of the elements in the mask `sources`."""
    mask = 0
    while sources:
        low = sources & -sources
        mask |= rows[low.bit_length() - 1]
        sources ^= low
    return mask


def is_compatible(algebra: FiniteAlgebra, rel: BinRel) -> bool:
    """True iff the relation's support is closed under every operation acting
    componentwise and contains each constant pair (c, c)."""
    if rel.size != algebra.size:
        raise SizeMismatch("relation over a different carrier")
    n = algebra.size
    support = rel.pairs()
    for _, arity, table in algebra.ops():
        # a constant's one, empty, argument tuple checks the pair (c, c)
        for tup in iterprod(support, repeat=arity):
            left = 0
            right = 0
            for a, b in tup:
                left = left * n + a
                right = right * n + b
            if (table[left], table[right]) not in rel:
                return False
    return True
