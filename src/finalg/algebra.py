"""Finite algebras: signatures, carriers, operation tables, terms.

Carriers are {0, ..., size-1}. Every operation is a total lookup table stored
flat in row-major order, leftmost argument varying slowest. Arity-0 symbols
are constants with a one-entry table.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count, product as iterprod
from typing import Iterable, Iterator, Mapping, Union

from .errors import (
    ArityMismatch,
    DuplicateSymbol,
    SizeMismatch,
    SizeOverflow,
    UnboundVariable,
    UnknownSymbol,
    ValueOutOfRange,
)

DEFAULT_CARRIER_LIMIT = 4096
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
class Var:
    """Term variable, identified by a non-negative index."""

    index: int


@dataclass(frozen=True)
class App:
    """Application of an operation symbol to argument terms."""

    symbol: str
    args: tuple["Term", ...] = ()


Term = Union[Var, App]


def constant(symbol: str) -> App:
    return App(symbol, ())


@dataclass(frozen=True)
class FiniteAlgebra:
    """Immutable finite algebra: signature, carrier size, tables, optional top.

    `tables` is aligned with `sig.symbols`; `top` is a distinguished element
    used by the closure operators, or None.
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


def make_algebra(
    sig: Signature | Iterable[tuple[str, int]],
    size: int,
    tables: Mapping[str, Iterable[int]],
    top: int | None = None,
) -> FiniteAlgebra:
    """Validate raw table data and build a FiniteAlgebra."""
    if not isinstance(sig, Signature):
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
        table = tuple(int(v) for v in tables[name])
        if len(table) != size**arity:
            raise ArityMismatch(
                f"table for {name!r} has {len(table)} entries, expected {size**arity}"
            )
        for v in table:
            if not 0 <= v < size:
                raise ValueOutOfRange(f"table entry {v} outside carrier of size {size}")
        aligned.append(table)
    if top is not None and not 0 <= top < size:
        raise ValueOutOfRange(f"top element {top} outside carrier of size {size}")
    return FiniteAlgebra(sig, size, tuple(aligned), top)


def eval_term(algebra: FiniteAlgebra, term: Term, env: Mapping[int, int]) -> int:
    """Evaluate a term under a variable assignment into the carrier."""
    if isinstance(term, Var):
        if term.index not in env:
            raise UnboundVariable(f"variable v{term.index} has no assigned value")
        value = env[term.index]
        if not 0 <= value < algebra.size:
            raise ValueOutOfRange(f"assignment {value} outside carrier")
        return value
    arity = algebra.sig.arity(term.symbol)
    if len(term.args) != arity:
        raise ArityMismatch(
            f"{term.symbol!r} expects {arity} arguments, got {len(term.args)}"
        )
    return algebra.apply(term.symbol, *(eval_term(algebra, t, env) for t in term.args))


def term_depth(term: Term) -> int:
    # variables and constants sit at depth 0
    if isinstance(term, Var) or not term.args:
        return 0
    return 1 + max(term_depth(t) for t in term.args)


def product_square(
    algebra: FiniteAlgebra, limit: int = DEFAULT_CARRIER_LIMIT
) -> FiniteAlgebra:
    """The direct square A x A with pair (a, b) encoded as a*size + b.

    Built afresh on every call, with (n^2)^k entries for a k-ary op. The
    closure engine never builds it; the term-enumeration checks close over it
    as an independent reference."""
    if algebra.size * algebra.size > limit:
        raise SizeOverflow(
            f"squared carrier {algebra.size**2} exceeds limit {limit}"
        )
    n = algebra.size
    n2 = n * n
    tables = []
    for _, arity, table in algebra.ops():
        if arity == 0:
            c = table[0]
            tables.append((c * n + c,))
            continue
        out = []
        for pairs in iterprod(range(n2), repeat=arity):
            left = 0
            right = 0
            for p in pairs:
                left = left * n + p // n
                right = right * n + p % n
            out.append(table[left] * n + table[right])
        tables.append(tuple(out))
    top = None if algebra.top is None else algebra.top * n + algebra.top
    return FiniteAlgebra(algebra.sig, n2, tuple(tables), top)


def generate_subalgebra(algebra: FiniteAlgebra, seed: ElementSet) -> ElementSet:
    """Smallest subset containing `seed` and every constant, closed under all
    operations. Worklist closure; only tuples touching fresh elements are
    re-examined."""
    if seed.size != algebra.size:
        raise SizeMismatch("seed set over a different carrier")
    n = algebra.size
    member = bytearray(n)
    for x in seed:
        member[x] = 1
    for c in algebra.constants():
        member[c] = 1
    current = [x for x in range(n) if member[x]]
    frontier = list(current)
    nonconst = [(arity, table) for _, arity, table in algebra.ops() if arity > 0]
    while frontier:
        fresh: list[int] = []

        def emit(v: int) -> None:
            if not member[v]:
                member[v] = 1
                fresh.append(v)

        for arity, table in nonconst:
            if arity == 1:
                for a in frontier:
                    emit(table[a])
            elif arity == 2:
                for a in frontier:
                    base = a * n
                    for b in current:
                        emit(table[base + b])
                for a in current:
                    base = a * n
                    for b in frontier:
                        emit(table[base + b])
            elif arity == 3:
                n2 = n * n
                for pos in range(3):
                    pools = [current, current, current]
                    pools[pos] = frontier
                    for a in pools[0]:
                        for b in pools[1]:
                            base = a * n2 + b * n
                            for c in pools[2]:
                                emit(table[base + c])
            else:
                # rare arities: full re-scan is still cheap at these sizes
                for args in iterprod(current, repeat=arity):
                    idx = 0
                    for a in args:
                        idx = idx * n + a
                    emit(table[idx])
        current.extend(fresh)
        frontier = fresh
    return ElementSet.of(n, current)


def enumerate_term_images(
    algebra: FiniteAlgebra, generators: ElementSet, max_depth: int | None = None
) -> ElementSet:
    """Values of all terms of depth <= max_depth, variables ranging over
    `generators`; with max_depth None, until one more level adds nothing.
    Depth 0 covers variables and constants; one operation application adds
    one to the deepest argument."""
    if generators.size != algebra.size:
        raise SizeMismatch("generator set over a different carrier")
    if max_depth is not None and max_depth < 0:
        raise ValueOutOfRange("max_depth must be non-negative")
    base = set(generators) | set(algebra.constants())
    images = set(base)
    nonconst = [(arity, table) for _, arity, table in algebra.ops() if arity > 0]
    n = algebra.size
    for _ in count() if max_depth is None else range(max_depth):
        nxt = set(base)
        pool = list(images)
        for arity, table in nonconst:
            for args in iterprod(pool, repeat=arity):
                idx = 0
                for a in args:
                    idx = idx * n + a
                nxt.add(table[idx])
        if nxt == images:
            break
        images = nxt
    return ElementSet.of(n, images)


def stabilized_term_images(algebra: FiniteAlgebra, generators: ElementSet) -> ElementSet:
    """Term images at the first depth where one more level adds nothing."""
    return enumerate_term_images(algebra, generators)
