"""Deterministic catalog of small named algebras used by the verification
suites. Every entry fixes a top element; each suite chooses its entries by
kind or by the symbols the signature names. Each family has one constructor;
the public builders name its members, each built once per process
(`functools.cache`)."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product, starmap

from .algebra import ENUMERATION_LIMIT, FiniteAlgebra, make_algebra
from .errors import ValueOutOfRange


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    algebra: FiniteAlgebra
    kind: str


def _table(n: int, arity: int, fn) -> tuple[int, ...]:
    return tuple(starmap(fn, product(range(n), repeat=arity)))


def _entry(name: str, kind: str, n: int, symbols, tables: dict, top: int) -> CatalogEntry:
    """One entry: `symbols` lists (name, arity) in signature order."""
    return CatalogEntry(name, make_algebra(symbols, n, tables, top=top), kind)


def _monoid(name: str, n: int, add) -> CatalogEntry:
    """Commutative monoid on 0..n-1 with identity 0."""
    return _entry(
        name, "monoid", n, (("add", 2), ("zero", 0)), {"add": _table(n, 2, add), "zero": [0]}, 0
    )


@cache
def cyclic_monoid(n: int) -> CatalogEntry:
    return _monoid(f"z{n}-monoid", n, lambda a, b: (a + b) % n)


@cache
def saturating_monoid(cap: int) -> CatalogEntry:
    return _monoid(f"sat{cap}-monoid", cap + 1, lambda a, b: min(a + b, cap))


_GROUP_SYMBOLS = (("add", 2), ("neg", 1), ("sub", 2), ("mal", 3))


def _group_tables(n: int) -> dict:
    return {
        "add": _table(n, 2, lambda a, b: (a + b) % n),
        "neg": tuple((-a) % n for a in range(n)),
        "sub": _table(n, 2, lambda a, b: (a - b) % n),
        "mal": _table(n, 3, lambda a, b, c: (a - b + c) % n),
        "zero": [0],
    }


def _abelian(kind: str, n: int, symbols, extra: dict) -> CatalogEntry:
    """Z_n as an abelian group with the Mal'cev term a - b + c, plus the ops
    in `extra`; `symbols` lists every op in signature order."""
    return _entry(f"z{n}-{kind}", kind, n, symbols, _group_tables(n) | extra, 0)


@cache
def cyclic_group(n: int) -> CatalogEntry:
    return _abelian("group", n, _GROUP_SYMBOLS + (("zero", 0),), {})


@cache
def cyclic_ring(n: int) -> CatalogEntry:
    symbols = _GROUP_SYMBOLS + (("mul", 2), ("zero", 0), ("one", 0))
    tables = {"mul": _table(n, 2, lambda a, b: (a * b) % n), "one": [1 % n]}
    return _abelian("ring", n, symbols, tables)


@cache
def cyclic_module(n: int) -> CatalogEntry:
    """Z_n acting on itself: abelian group plus one unary scalar map per ring
    element."""
    scalars = {f"r{r}": tuple(r * a % n for a in range(n)) for r in range(n)}
    symbols = _GROUP_SYMBOLS + (("zero", 0),) + tuple((s, 1) for s in scalars)
    return _abelian("module", n, symbols, scalars)


def _semiring(name: str, n: int, add, mul, zero: int, one: int) -> CatalogEntry:
    """Semiring on 0..n-1 with top `zero`, the additive identity."""
    return _entry(
        name, "semiring", n, (("add", 2), ("mul", 2), ("zero", 0), ("one", 0)),
        {"add": _table(n, 2, add), "mul": _table(n, 2, mul), "zero": [zero], "one": [one]}, zero,
    )


@cache
def cyclic_semiring(n: int) -> CatalogEntry:
    return _semiring(
        f"z{n}-semiring", n, lambda a, b: (a + b) % n, lambda a, b: (a * b) % n, 0, 1 % n
    )


@cache
def boolean_semiring() -> CatalogEntry:
    return _semiring("bool-semiring", 2, lambda a, b: a | b, lambda a, b: a & b, 0, 1)


@cache
def minplus_semiring(cap: int) -> CatalogEntry:
    """Truncated min-plus semiring on {0..cap, inf}: addition is min with
    identity inf (encoded as index cap+1, the largest), multiplication is
    capped numeral addition with inf absorbing."""
    inf = cap + 1

    def mul(a: int, b: int) -> int:
        return inf if inf in (a, b) else min(a + b, cap)

    return _semiring(f"minplus{cap}-semiring", cap + 2, min, mul, inf, 0)


@cache
def pointed_set(n: int) -> CatalogEntry:
    return _entry(f"pointed-{n}", "pointed", n, (("point", 0),), {"point": [0]}, 0)


def build_catalog(limit: int) -> list[CatalogEntry]:
    """All catalog entries with carrier size <= limit, in a fixed order. As
    every suite enumerates each carrier's subsets, limit <= ENUMERATION_LIMIT.

    Every call returns a new list of shared, immutable entries: each builder
    makes its entry once per process, so `build_catalog(4)` and
    `build_catalog(5)` hold the same objects for the entries they share. An
    entry's algebra keeps the relations the closure engine computes on it
    (`closure.Closures`), so a process that keeps catalog entries keeps
    their relations: about 3 MB more after every suite at limit 10."""
    if limit < 2:
        raise ValueOutOfRange("catalog limit must be at least 2")
    if limit > ENUMERATION_LIMIT:
        raise ValueOutOfRange(f"catalog limit must be at most {ENUMERATION_LIMIT}")
    entries: list[CatalogEntry] = [
        cyclic_monoid(1),
        cyclic_group(1),
        cyclic_ring(1),
        cyclic_semiring(1),
        cyclic_module(1),
        pointed_set(1),
    ]
    entries += [cyclic_monoid(n) for n in range(2, limit + 1)]
    entries += [saturating_monoid(cap) for cap in range(1, limit)]
    entries += [cyclic_group(n) for n in range(2, limit + 1)]
    entries += [cyclic_ring(n) for n in range(2, limit + 1)]
    entries.append(boolean_semiring())
    entries += [cyclic_semiring(n) for n in range(2, limit + 1)]
    entries += [minplus_semiring(cap) for cap in range(0, limit - 1)]
    entries += [cyclic_module(n) for n in range(2, limit + 1)]
    entries += [pointed_set(n) for n in range(2, limit + 1)]
    return entries
