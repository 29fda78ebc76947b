"""Independent per-variety implementations used to cross-check the generic
closure engine, plus a union-find congruence oracle and the exact-arithmetic
infinite-rank deduction chain on the naturals under multiplication.

Nothing here touches the relation machinery: each oracle recomputes its
answer from the defining arithmetic of its variety.
"""
from __future__ import annotations

from itertools import product as iterprod
from typing import Iterable, Sequence

from .algebra import ElementSet, FiniteAlgebra
from .errors import ArityMismatch, AxiomViolation, InvalidPrimeList, SizeMismatch, ValueOutOfRange
from .relations import BinRel


class SemiringView:
    """Reads add/mul/zero (and one, when the signature names it) on an algebra
    and checks the semiring axioms exhaustively at construction: + associative
    and commutative with identity zero, * associative and distributing over +
    from both sides, zero multiplicatively absorbing."""

    def __init__(self, algebra: FiniteAlgebra):
        self.algebra = algebra
        sig = algebra.sig
        if sig.arity("add") != 2 or sig.arity("mul") != 2:
            raise ArityMismatch("add and mul must be binary")
        if sig.arity("zero") != 0:
            raise ArityMismatch("zero must be a constant")
        self._add = algebra.table("add")
        self._mul = algebra.table("mul")
        self.zero = algebra.table("zero")[0]
        self.one: int | None = None
        if "one" in sig:
            if sig.arity("one") != 0:
                raise ArityMismatch("one must be a constant")
            self.one = algebra.table("one")[0]
        self._validate()

    def plus(self, a: int, b: int) -> int:
        return self._add[a * self.algebra.size + b]

    def times(self, a: int, b: int) -> int:
        return self._mul[a * self.algebra.size + b]

    def _validate(self) -> None:
        n = self.algebra.size
        rng = range(n)
        for a in rng:
            if self.plus(a, self.zero) != a or self.plus(self.zero, a) != a:
                raise AxiomViolation(f"zero is not an additive identity at {a}")
            if self.times(a, self.zero) != self.zero or self.times(self.zero, a) != self.zero:
                raise AxiomViolation(f"zero is not multiplicatively absorbing at {a}")
            if self.one is not None and (
                self.times(a, self.one) != a or self.times(self.one, a) != a
            ):
                raise AxiomViolation(f"one is not a multiplicative identity at {a}")
        for a, b in iterprod(rng, rng):
            if self.plus(a, b) != self.plus(b, a):
                raise AxiomViolation(f"addition not commutative at ({a},{b})")
        for a, b, c in iterprod(rng, rng, rng):
            if self.plus(self.plus(a, b), c) != self.plus(a, self.plus(b, c)):
                raise AxiomViolation(f"addition not associative at ({a},{b},{c})")
            if self.times(self.times(a, b), c) != self.times(a, self.times(b, c)):
                raise AxiomViolation(f"multiplication not associative at ({a},{b},{c})")
            if self.times(a, self.plus(b, c)) != self.plus(self.times(a, b), self.times(a, c)):
                raise AxiomViolation(f"left distributivity fails at ({a},{b},{c})")
            if self.times(self.plus(a, b), c) != self.plus(self.times(a, c), self.times(b, c)):
                raise AxiomViolation(f"right distributivity fails at ({a},{b},{c})")


def semiring_ideal_generated(view: SemiringView, subset: ElementSet) -> ElementSet:
    """Smallest additive submonoid containing `subset` that is closed under
    multiplication by arbitrary elements on both sides."""
    n = view.algebra.size
    if subset.size != n:
        raise SizeMismatch("subset over a different carrier")
    current = set(subset) | {view.zero}
    while True:
        fresh = set()
        for a, b in iterprod(current, repeat=2):
            fresh.add(view.plus(a, b))
        for a in current:
            for x in range(n):
                fresh.add(view.times(a, x))
                fresh.add(view.times(x, a))
        if fresh.issubset(current):
            return ElementSet.of(n, current)
        current |= fresh


def semiring_ind_oracle(view: SemiringView, subset: ElementSet) -> ElementSet:
    """{x + y | x in subset, y in the ideal generated by subset}; empty stays empty."""
    if not subset:
        return subset
    ideal = semiring_ideal_generated(view, subset)
    return ElementSet.of(
        view.algebra.size, (view.plus(x, y) for x in subset for y in ideal)
    )


def semiring_ded_oracle(view: SemiringView, subset: ElementSet) -> ElementSet:
    """{x | x + y in subset for some y in the ideal generated by subset};
    empty stays empty."""
    if not subset:
        return subset
    ideal = semiring_ideal_generated(view, subset)
    out = [
        x
        for x in range(view.algebra.size)
        if any(view.plus(x, y) in subset for y in ideal)
    ]
    return ElementSet.of(view.algebra.size, out)


def is_ideal(view: SemiringView, subset: ElementSet) -> bool:
    """Whether `subset` is an ideal: the ideal it generates is itself."""
    return semiring_ideal_generated(view, subset) == subset


def is_subtractive_ideal(view: SemiringView, subset: ElementSet) -> bool:
    """Ideal such that x + y in it and y in it force x in it: an ideal its
    subtractive closure fixes. The closure, the cheaper test, goes first."""
    return subtractive_closure_submonoid(view.algebra, subset) == subset and is_ideal(view, subset)


def subsemigroup_generated(algebra: FiniteAlgebra, subset: ElementSet) -> ElementSet:
    """Closure of `subset` under `add` alone; empty stays empty."""
    n = algebra.size
    if subset.size != n:
        raise SizeMismatch("subset over a different carrier")
    table = algebra.table("add")
    current = set(subset)
    while True:
        fresh = {table[a * n + b] for a in current for b in current}
        if fresh.issubset(current):
            return ElementSet.of(n, current)
        current |= fresh


def subtractive_closure_submonoid(algebra: FiniteAlgebra, subset: ElementSet) -> ElementSet:
    """Iterate x + y in current and y in current => x in current, until stable."""
    n = algebra.size
    if subset.size != n:
        raise SizeMismatch("subset over a different carrier")
    table = algebra.table("add")
    current = set(subset)
    while True:
        fresh = {
            x
            for x in range(n)
            if x not in current and any(table[x * n + y] in current for y in current)
        }
        if not fresh:
            return ElementSet.of(n, current)
        current |= fresh


_ARITY_WORDS = {2: "binary", 3: "ternary"}


def _identities_hold(algebra: FiniteAlgebra, symbol: str, arity: int,
                     identities: list[tuple[tuple[int, ...], int]]) -> bool:
    """Whether the operation `symbol`, which must have this arity, takes
    each argument tuple of `identities` to its value. Every argument is
    checked before the verdict, so one outside the carrier is refused
    whatever the table holds."""
    if algebra.sig.arity(symbol) != arity:
        raise ArityMismatch(f"{symbol!r} must be {_ARITY_WORDS[arity]}")
    n = algebra.size
    table = algebra.table(symbol)
    images = []
    for args, _ in identities:
        index = 0
        for a in args:
            if not 0 <= a < n:
                raise ValueOutOfRange(f"argument {a} outside carrier of size {n}")
            index = index * n + a
        images.append(table[index])
    return images == [value for _, value in identities]


def check_maltsev_term(algebra: FiniteAlgebra, symbol: str) -> bool:
    """Whether the ternary operation satisfies p(x, y, y) = x and
    p(x, x, y) = y over the whole carrier."""
    xs = range(algebra.size)
    return _identities_hold(algebra, symbol, 3, [
        *(((x, y, y), x) for x in xs for y in xs),
        *(((x, x, y), y) for x in xs for y in xs),
    ])


def check_subtractive_term(algebra: FiniteAlgebra, symbol: str, zero: int) -> bool:
    """Whether the binary operation satisfies s(x, x) = zero and
    s(x, zero) = x over the whole carrier. These are the subtraction-style
    identities; s(x, y) = x - y realizes them in any group."""
    xs = range(algebra.size)
    return _identities_hold(algebra, symbol, 2, [
        *(((x, x), zero) for x in xs),
        *(((x, zero), x) for x in xs),
    ])


def check_jonsson_tarski_term(algebra: FiniteAlgebra, symbol: str, zero: int) -> bool:
    """Whether the binary operation satisfies u(x, zero) = x = u(zero, x)."""
    xs = range(algebra.size)
    return _identities_hold(algebra, symbol, 2, [
        *(((x, zero), x) for x in xs),
        *(((zero, x), x) for x in xs),
    ])


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def congruence_by_unionfind(
    algebra: FiniteAlgebra, pairs: Iterable[tuple[int, int]]
) -> BinRel:
    """Congruence generated by the pairs, computed by partition refinement:
    seed the merges, then, each round, merge f(..a..) with f(..r..) for every
    element a, its class representative r taken at the start of the round,
    every position and every context, until stable. Single-position
    substitution suffices because the partition is transitive. So does
    relating each a to r alone: for a and b in one class, f(..a..) and
    f(..b..) both join the class of f(..r..), so the round forces the same
    merges as one over every related pair (a, b)."""
    n = algebra.size
    uf = _UnionFind(n)
    for a, b in pairs:
        uf.union(a, b)
    tables = [(arity, table) for _, arity, table in algebra.ops() if arity > 0]
    changed = True
    while changed:
        changed = False
        related = [(a, r) for a in range(n) if (r := uf.find(a)) != a]
        for arity, table in tables:
            for a, b in related:
                for pos in range(arity):
                    for context in iterprod(range(n), repeat=arity - 1):
                        left = 0
                        right = 0
                        ci = 0
                        for j in range(arity):
                            if j == pos:
                                left = left * n + a
                                right = right * n + b
                            else:
                                left = left * n + context[ci]
                                right = right * n + context[ci]
                                ci += 1
                        if uf.union(table[left], table[right]):
                            changed = True
    rows = [0] * n
    for a in range(n):
        for b in range(n):
            if uf.find(a) == uf.find(b):
                rows[a] |= 1 << b
    return BinRel(n, tuple(rows))


# the prime bases up to 41, and the least strong pseudoprime to all of them
# (Sorenson and Webster, Math. Comp. 86, 2017): below it the test is exact
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    # p is a strong probable prime to base a: with p - 1 = d * 2^s, d odd,
    # a^d = 1 or a^(d * 2^r) = -1 (mod p) for some r < s
    if p < 2 or any(p % a == 0 for a in _PRIME_BASES):
        return p in _PRIME_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> s
    return all(pow(a, d, p) == 1 or any(pow(a, d << r, p) == p - 1 for r in range(s))
               for a in _PRIME_BASES)


def _nat_ded_step(stage: frozenset[int]) -> frozenset[int]:
    # D(S) = {s/u : s in S, u in <S>, u | s}: divide stage elements by the
    # stage elements that divide them until no new quotient appears
    out, frontier = set(stage), list(stage)
    while frontier:
        q = frontier.pop()
        fresh = {q // u for u in stage if q % u == 0} - out
        out |= fresh
        frontier += fresh
    return frozenset(out)


def nat_mult_deduction_chain(primes: Sequence[int], d: int) -> list[frozenset[int]]:
    """Stages ded^0 .. ded^d of iterated deduction in the commutative monoid
    of naturals under multiplication with top 1, seeded with the consecutive
    products {p0*p1, ..., p_{m-1}*p_m} where p0 = 1 and p1..pm are the given
    primes. One step is D(S) = {x : x*u in S for some u in the submonoid
    <S>}, computed as the quotients s/u; every stage element divides a seed
    element, so the computation stays inside a finite divisor universe.
    Exact integer arithmetic. Primes must lie below 3317044064679887385961981,
    where primality is decided exactly.

    The list ends early at the first stage equal to the one before it (stage
    m): every later stage equals it."""
    m = len(primes)
    if m < 2:
        raise InvalidPrimeList("truncation must be at least 2")
    if len(set(primes)) != m:
        raise InvalidPrimeList("primes must be distinct")
    for p in primes:
        if p >= _PRIME_TEST_BOUND:
            raise InvalidPrimeList(f"{p} is too large: primes must be below {_PRIME_TEST_BOUND}")
        if not _is_prime(p):
            raise InvalidPrimeList(f"{p} is not prime")
    if d < 0:
        raise InvalidPrimeList("depth must be non-negative")
    ps = [1, *primes]
    seed = frozenset(ps[k] * ps[k + 1] for k in range(m))
    stages = [seed]
    for _ in range(d):
        stages.append(_nat_ded_step(stages[-1]))
        if stages[-1] == stages[-2]:
            break
    return stages
