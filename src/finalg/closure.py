"""Closure operators driven by the relation a set induces against a
distinguished element.

Every operator below works through the same generated relation: the smallest
reflexive compatible relation containing I x {top}. Induction takes the left
image of I, deduction the right image, the clot the left image of {top}, and
normality compares I against the class of top under the congruence R_I
generates, read as top's connected component in R_I u R_I~. Each reads R_I
one way, from the algebra object's own `Closures`, which keeps every
semicongruence of that algebra by its generating pairs.
"""
from __future__ import annotations

from array import array
from collections import defaultdict
from functools import reduce
from operator import or_
from sys import byteorder
from typing import Iterable, Literal, NamedTuple, Sequence

from .algebra import DEFAULT_CARRIER_LIMIT, ElementSet, FiniteAlgebra, _bits
from .errors import SizeMismatch, SizeOverflow, ValueOutOfRange
from .relations import (
    BinRel,
    _check_image_carrier,
    _left_mask,
    _right_mask,
    compose,
    left_image,
    opposite,
    right_image,
)

Mode = Literal["induction", "deduction"]


def semicongruence_generated(
    algebra: FiniteAlgebra, pairs: Iterable[tuple[int, int]]
) -> BinRel:
    """Smallest reflexive compatible relation containing the given pairs:
    the subalgebra of A x A generated by the pairs and the diagonal."""
    closures, n, seed = _closures(algebra), algebra.size, 0
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueOutOfRange(f"pair ({a},{b}) outside carrier of size {n}")
        seed |= 1 << (a * n + b)
    return BinRel(n, closures._rows_of(seed))


def _lane(n: int) -> str:
    """Array typecode of the narrowest lane, 8 to 64 bits, that holds an
    n-bit mask."""
    return "BHIQ"[(n > 8) + (n > 16) + (n > 32)]


def _cut(raw: bytes, n: int, fmt: str) -> list[int]:
    """The n columns of `raw`, a matrix of `fmt` lanes in rows of n: column
    b is the array's slice from lane b by steps of n, its lane p lane b of
    row p, read as one int in the native byte order that `array` writes."""
    lanes = array(fmt, raw)
    return [int.from_bytes(lanes[b::n], byteorder) for b in range(n)]


def _ors(columns: list[int], pool: Sequence[int], row_bits: list[list[int]], size: int) -> bytes:
    """Per a in `pool`, the OR of the columns in row a as `size` bytes, joined."""
    return b"".join([reduce(or_, map(columns.__getitem__, row_bits[a])).to_bytes(size, byteorder)
                     for a in pool])


def _fold(table: Sequence[int], columns: list[int], pools: list[Sequence[int]],
          row_bits: list[list[int]], gained: list[int], fmt: str) -> None:
    """OR into gained[f(a1..ak)] the mask of f(b1..bk), each bj in row aj,
    for every op f in `table` and every argument tuple in the product of
    `pools`, one pool per coordinate, where row_bits[a] lists the (never
    empty) row of a. `table` stacks the tables of every op of arity k, op
    j's entry for index i at j*n^k + i: the ops act as one (k+1)-ary op
    whose first argument picks the op and is never folded. Lane p of
    columns[b] is 1 << table[p*n + b], typecode `fmt`.

    The coordinates are folded from the last to the first. Per a in the
    pool, the OR of the columns in row a serves every tuple folded so far;
    joined, these ints are a matrix whose last index is the coordinate
    before, which `_cut` cuts into its n columns. After the first
    coordinate the lanes are the product's tuples in row-major order, each
    tuple once per op."""
    if not all(pools):
        return
    n = len(row_bits)
    size = len(table) // n * array(fmt).itemsize
    offsets, span = range(0, len(table), n ** len(pools)), 1
    for pool in pools[:0:-1]:
        raw = _ors(columns, pool, row_bits, size)
        columns, size = _cut(raw, n, fmt), len(raw) // n
        offsets, span = [a * span + o for a in pool for o in offsets], span * n
    lanes = array(fmt, _ors(columns, pools[0], row_bits, size))
    for target, mask in zip([table[a * span + o] for a in pools[0] for o in offsets], lanes):
        gained[target] |= mask


def _reached(known: Sequence[tuple[int, int, int, tuple[int, ...]]], rows: list[int],
             gained: list[int]) -> tuple[int, ...] | None:
    """The rows of the first entry (a, 1 << b, support, rows of V) in
    `known` whose pair (a, b) lies in `rows` or `gained`; None if none."""
    return next((rel for a, bit, _, rel in known if (rows[a] | gained[a]) & bit), None)


def _close(closures: Closures, rows: list[int], base: Sequence[int],
           known: Sequence[tuple[int, int, int, tuple[int, ...]]]) -> tuple[int, ...]:
    """Close `rows` (rows[a] is the mask of the b with a R b) under the ops
    packed by `closures`, given that `base`, row by row inside `rows`, is
    already reflexive and compatible: the diagonal, or a kept relation
    grown on. `known` lists kept principal relations V = R_(a,b) that hold
    every pair in `rows`, as `Closures._principal` entries; it may be empty.

    A round recomputes, over full rows, every argument tuple one of whose
    rows changed: in the first round the rows that differ from `base`, then
    the rows that gained bits in the round before. For an op f of arity k it
    adds f(R[a1] x ... x R[ak]) to rows[f(a1..ak)]. The tuples whose last
    changed coordinate is i range over everything^i x changed x
    unchanged^(k-1-i), so each tuple with a changed row is taken once.
    `_fold` adds their images for all ops of one arity at once, folding
    from the last coordinate, so the small `changed` pool is folded before
    the `everything` pools. The gains are ORed into `rows` in place. The
    rounds stop when no row gains a bit, or once every row is full. Before
    the first round and after every fold, the run ends at the first V in
    `known` whose pair (a, b) the rows or the round's gains hold, and
    returns that very tuple.

    Exact: a tuple none of whose rows changed since the round that last
    computed it adds nothing new, and in the first round such a tuple lies
    in `base`, which is compatible. The full square is reflexive and
    compatible, so a full relation is closed. The rows and the gains lie
    in R, the closure of `rows`, at every point; so once they hold (a, b),
    V = R_(a,b) lies in R, and V, closed and holding `rows`, holds R:
    R = V."""
    n = closures.size
    if (got := _reached(known, rows, rows)) is not None:
        return got
    fmt = closures._fmt
    everything = range(n)
    full = (1 << n) - 1
    row_bits = [list(_bits(b)) for b in base]
    changed = [a for a in everything if rows[a] != base[a]]
    while changed and rows.count(full) < n:
        changed_set = set(changed)
        unchanged = [a for a in everything if a not in changed_set]
        for a in changed:
            row_bits[a] = list(_bits(rows[a]))
        gained = [0] * n
        for k, table, columns in closures._tables:
            for i in range(k):
                pools = [everything] * i + [changed] + [unchanged] * (k - 1 - i)
                _fold(table, columns, pools, row_bits, gained, fmt)
                if (got := _reached(known, rows, gained)) is not None:
                    return got
        changed = [a for a in everything if gained[a] & ~rows[a]]
        for a in changed:
            rows[a] |= gained[a]
    return tuple(rows)


def congruence_generated(
    algebra: FiniteAlgebra, pairs: Iterable[tuple[int, int]]
) -> BinRel:
    """Smallest congruence containing the pairs: R u R~ for their
    semicongruence R, squared until transitive. R is reflexive and
    compatible, so that transitive closure is compatible too."""
    rel = semicongruence_generated(algebra, pairs)
    acc = rel.union(opposite(rel))
    while (step := compose(acc, acc)) != acc:
        acc = step
    return acc


class ClosureReport(NamedTuple):
    """Iteration record, a named tuple (mode, chain, steps_to_fixpoint).
    When a fixpoint is reached the chain repeats its last stage as the same
    object, so chain[k] is chain[k+1] at k = steps_to_fixpoint;
    steps_to_fixpoint is None when max_steps ran out first."""

    mode: Mode
    chain: tuple[ElementSet, ...]
    steps_to_fixpoint: int | None

    def distinct_stages(self) -> tuple[ElementSet, ...]:
        """The chain without its repeated last stage: `iterate`'s chains
        increase strictly up to the fixpoint."""
        return self.chain if self.steps_to_fixpoint is None else self.chain[:-1]

    def final(self) -> ElementSet:
        return self.chain[-1]

    def stage(self, n: int) -> ElementSet:
        if n < 0:
            raise ValueOutOfRange(f"stage {n} is negative")
        if n < len(self.chain):
            return self.chain[n]
        if self.steps_to_fixpoint is None:
            raise ValueOutOfRange(f"stage {n} not computed and no fixpoint reached")
        return self.chain[-1]


class Closures:
    """The semicongruences of one algebra, kept by their seed, and the
    induction and deduction step of every set and top asked for. The seed
    is the support of the generating pairs, pair (a, b) at bit a * n + b;
    every per-set operator reads R_I, the entry for I x {top}, by `_induced`.
    One rule (`_rows_of`) reads a missing entry off a kept one or grows it,
    and a growth ends early at a kept principal relation R_(a,b) that holds
    the seed once it derives (a, b), keeping that relation's tuple: equal
    relations reached that way share one tuple.

    Each algebra object owns one, made by the first call of this module's
    functions on it (`_closures`) and kept for exactly the object's
    lifetime: every call on that object reads its relations from it,
    whatever the top, and an equal but distinct object has its own. It
    holds the carrier size and the op tables, packed for the kernel when
    it is made, never the algebra, so a dropped algebra frees its
    relations by reference counting. An algebra kept alive keeps them:
    after a rank, the rank's whole working set (2.5 MB by `tracemalloc`
    for z14-monoid, whose 16,384 seeds share 4 tuples: the seed dict and
    the step memos, not the rows, nor the stages the steps reached).
    Threads share it without a lock: a `Closures` only stores values that
    are the same whoever computes them, and each entry of its principal
    list is exact: a race can at most list one seed twice or build one
    stage twice."""

    def __init__(self, algebra: FiniteAlgebra) -> None:
        n = algebra.size
        if n < 1:
            raise SizeMismatch("carrier size must be at least 1")
        if n * n > DEFAULT_CARRIER_LIMIT:
            raise SizeOverflow(f"squared carrier {n * n} exceeds limit {DEFAULT_CARRIER_LIMIT}")
        self.size = n
        self._fmt = fmt = _lane(n)  # the typecode of every lane of the kernel
        width = array(fmt).itemsize
        # the n lanes, lane v the mask 1 << v: a table packs by lookup
        lanes = [(1 << v).to_bytes(width, byteorder) for v in range(n)]
        stacked: dict[int, list[int]] = {}
        for _, k, table in algebra.ops():
            if k:
                stacked.setdefault(k, []).extend(table)
        # the kernel's input, per arity k >= 1 in the order the signature
        # first names it: k, the tables of the ops of arity k concatenated in
        # signature order, and their n packed columns, lane p of columns[b]
        # the mask 1 << table[p * n + b]; no entry for arity 0
        self._tables = tuple((k, tuple(table), _cut(b"".join(map(lanes.__getitem__, table)), n, fmt))
                             for k, table in stacked.items())
        self._rows: dict[int, tuple[int, ...]] = {0: tuple(1 << a for a in range(n))}
        # (a, 1 << b, support, rows) per one-pair seed {(a, b)} the kernel
        # closed, its support with pair (c, d) at bit c * n + d; none without
        # an op of arity >= 1. A list that only grows: threads may read it
        # while one appends
        self._principal: list[tuple[int, int, int, tuple[int, ...]]] = []
        # a mask becomes a seed by joining its bits with this gap (`_induced`)
        self._gap = "0" * (n - 1)
        # one mask -> stage map per (mode, top), each stage kept in `_stages`
        self._steps: defaultdict[tuple[Mode, int], dict[int, ElementSet]] = defaultdict(dict)
        # one ElementSet per mask any step reached: every step memo, and so
        # every report's chain, shares it
        self._stages: dict[int, ElementSet] = {}

    def _rows_of(self, seed: int, base: int = 0) -> tuple[int, ...]:
        """Rows of R_T, T = `seed`. Candidates J, in order: each kept T less
        one pair, then one fallback, `base` if it is kept and inside T, else
        the diagonal. The first R_J holding T is R_T (Sg(diagonal + T) is
        monotone in T), kept as that tuple; else the kernel closes the first
        candidate's R_J plus the pairs of T. R_J of T less (a, b) holds T iff
        it holds (a, b): one bit test. The diagonal never follows `base`:
        R_base holds it, so it holds T only if R_base does.

        The kernel is also handed the kept principal relations
        V = R_(a,b) that hold T, which may be none, and ends at V, that very
        tuple, once it derives (a, b): then V lies in R_T, and R_T, the
        least closed relation holding T, lies in V. These V come from
        `_principal`, one AND of T with V's support per one-pair seed the
        kernel closed, so at most n^2 - n tests whatever the number of kept
        seeds; with no op of arity >= 1 the list stays empty. Each one-pair
        seed the kernel closes appends one entry, whose rows are the run's
        tuple: a kept V if the run ended there."""
        kept, n = self._rows, self.size
        if (got := kept.get(seed)) is not None:
            return got
        start, rest = None, seed
        while rest:  # each pair of T, lowest first
            low = rest & -rest
            if (got := kept.get(seed ^ low)) is not None:
                code = low.bit_length() - 1
                if got[code // n] >> code % n & 1:
                    break
                start = start or got
            rest ^= low
        else:
            if base & ~seed or base not in kept:
                base = 0
            got = kept[base]
            full = (1 << n) - 1
            seed_rows = [seed >> a * n & full for a in range(n)]  # T, row by row
            if any(row & ~have for row, have in zip(seed_rows, got)):
                rows = start or got
                principal = self._principal
                got = _close(self, [r | row for r, row in zip(rows, seed_rows)], rows,
                             [v for v in principal if not seed & ~v[2]])
                if self._tables and not seed & seed - 1:  # T is one pair (a, b)
                    a, b = divmod(seed.bit_length() - 1, n)
                    support = sum(row << c * n for c, row in enumerate(got))
                    principal.append((a, 1 << b, support, got))
        kept[seed] = got
        return got

    def _induced(self, top: int, mask: int, base: int = 0) -> tuple[int, ...]:
        """Rows of R_I, I the set with this mask, the kept R of `base`'s set
        a candidate to grow it from. Masks become seeds only here, x at bit
        x * n + top; the caller has checked top and mask (`_closures_for`)."""
        gap = self._gap
        if base:
            base = int(gap.join(f"{base:b}"), 2) << top
        return self._rows_of(int(gap.join(f"{mask:b}"), 2) << top, base)

    def _step(self, mode: Mode, top: int, mask: int, base: int = 0) -> ElementSet:
        """One induction or deduction step from the set with this mask, the
        left or right image of I under R_I: the `ElementSet` that `_stages`
        keeps for its mask, memoised in `_steps` for this mode and top."""
        memo = self._steps[mode, top]
        got = memo.get(mask)
        if got is None:
            image = _left_mask if mode == "induction" else _right_mask
            nxt = image(self._induced(top, mask, base), mask)
            if (got := self._stages.get(nxt)) is None:
                got = self._stages[nxt] = ElementSet(self.size, nxt)
            memo[mask] = got
        return got


def _closures(algebra: FiniteAlgebra) -> Closures:
    """The algebra object's own `Closures`, made on its first call and kept
    in the object's `__dict__` (not a dataclass field, so equality, hashing
    and `dataclasses.replace` ignore it). `setdefault` gives threads that
    race on a new object one `Closures`."""
    own = vars(algebra)
    return own.get("_closures") or own.setdefault("_closures", Closures(algebra))


def _closures_for(algebra: FiniteAlgebra, top: int, subset: ElementSet, side: str) -> Closures:
    """The `Closures` of this algebra object, once top, the square and the
    set are checked, in that order. A set with a member outside the
    carrier is refused as the kernel refuses its pairs; a set over another
    carrier with side "left" or "right" as that image refuses it, with side
    "set" as a set."""
    n = algebra.size
    if not 0 <= top < n:
        raise ValueOutOfRange(f"top element {top} outside carrier of size {n}")
    closures = _closures(algebra)
    if subset.mask >> n:
        x = next(x for x in subset if x >= n)
        raise ValueOutOfRange(f"pair ({x},{top}) outside carrier of size {n}")
    _check_image_carrier(n, subset, side)
    return closures


def top_induction(algebra: FiniteAlgebra, top: int, subset: ElementSet) -> ElementSet:
    """One induction step: left image of `subset` under its generated relation."""
    return _closures_for(algebra, top, subset, "left")._step("induction", top, subset.mask)


def top_deduction(algebra: FiniteAlgebra, top: int, subset: ElementSet) -> ElementSet:
    """One deduction step: right image of `subset` under its generated relation."""
    return _closures_for(algebra, top, subset, "right")._step("deduction", top, subset.mask)


def clot_closure(algebra: FiniteAlgebra, top: int, subset: ElementSet) -> ElementSet:
    """Smallest set containing `subset` that is the left class of top under
    its own generated relation; the empty set yields {top}."""
    rows = _closures_for(algebra, top, subset, "set")._induced(top, subset.mask)
    return ElementSet(algebra.size, _left_mask(rows, 1 << top))


def iterate(
    algebra: FiniteAlgebra,
    top: int,
    subset: ElementSet,
    mode: Mode,
    max_steps: int | None = None,
) -> ClosureReport:
    """Apply induction or deduction repeatedly, with the relation of the
    current set at every step, until a fixpoint or max_steps (default n + 1).

    Both steps are increasing, so each stage's relation may grow from the
    one before, and every relation and step is kept by the algebra's `Closures`.
    Each later stage is the `ElementSet` that `Closures._step` keeps per
    mask, which every report's chain shares; at a fixpoint the chain's last
    entry is the repeated stage itself, the same object, not a new equal one."""
    if mode not in ("induction", "deduction"):
        raise ValueOutOfRange(f"unknown mode {mode!r}; choose 'induction' or 'deduction'")
    if max_steps is None:
        max_steps = algebra.size + 1
    if max_steps < 0:
        raise ValueOutOfRange(f"max_steps {max_steps} is negative")
    closures = _closures_for(algebra, top, subset, "left" if mode == "induction" else "right")
    chain = [subset]
    steps: int | None = None
    base = 0
    for _ in range(max_steps):
        last = chain[-1]
        stage = closures._step(mode, top, last.mask, base)
        if stage.mask == last.mask:
            chain.append(last)
            steps = len(chain) - 2
            break
        chain.append(stage)
        base = last.mask
    return ClosureReport(mode, tuple(chain), steps)


class NormalityResult(NamedTuple):
    is_normal: bool
    top_class: ElementSet


def is_top_normal(
    algebra: FiniteAlgebra, top: int, subset: ElementSet
) -> NormalityResult:
    """Whether `subset` is exactly the congruence class of top under the
    congruence generated by subset x {top}. The empty set is never normal:
    the class of top contains top.

    The class is top's connected component in R_I u R_I~, grown from {top}
    by the left and right images of the elements it last gained; no
    relation is built. Exact: R_I is reflexive and compatible, so the
    transitive closure of R_I u R_I~ is compatible (an argument tuple moves
    to another one coordinate at a time, each move a step of R_I or R_I~).
    It is thus the congruence R_I generates, and it joins exactly the
    elements that a path in R_I u R_I~ joins."""
    rows = _closures_for(algebra, top, subset, "set")._induced(top, subset.mask)
    reach = new = 1 << top
    while new:
        new = (_left_mask(rows, new) | _right_mask(rows, new)) & ~reach
        reach |= new
    cls = ElementSet(algebra.size, reach)
    return NormalityResult(subset == cls, cls)


def power_images(
    rel: BinRel, subset: ElementSet, side: Literal["left", "right"]
) -> list[ElementSet]:
    """[subset, R subset, R^2 subset, ...] (left) or the right-image duals, up
    to the first set that repeats an earlier one, which is left out. For a
    reflexive R the chain increases, so its last set is the union of all the
    powers."""
    if side not in ("left", "right"):
        raise ValueOutOfRange(f"unknown side {side!r}; choose 'left' or 'right'")
    image = left_image if side == "left" else right_image
    out = [subset]
    while (nxt := image(rel, out[-1])) not in out:
        out.append(nxt)
    return out
