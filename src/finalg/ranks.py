"""Per-algebra closure ranks by exhaustion over nonempty subsets.

The per-algebra rank under-approximates the variety-level rank: it is the
largest number of iteration steps any nonempty subset of this one carrier
needs to stabilize.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .algebra import ENUMERATION_LIMIT, ElementSet, FiniteAlgebra
from .closure import ClosureReport, Mode, iterate
from .errors import CarrierTooLarge, SizeMismatch, ValueOutOfRange


def subsets_in_order(size: int, nonempty: bool = True) -> Iterator[ElementSet]:
    """All subsets, the empty one only if not `nonempty`, ordered by
    cardinality, ties broken by numeric bitmask: the sort is stable."""
    for mask in sorted(range(int(nonempty), 1 << size), key=int.bit_count):
        yield ElementSet(size, mask)


@dataclass(frozen=True)
class RankResult:
    """rank is None when some subset failed to stabilize within max_n steps;
    witness is the first subset (in enumeration order) attaining the rank."""

    mode: Mode
    rank: int | None
    max_n: int
    witness: ElementSet
    witness_report: ClosureReport

    def describe(self) -> str:
        if self.rank is None:
            return f"exceeded {self.max_n}"
        return str(self.rank)


def algebra_rank(
    algebra: FiniteAlgebra, top: int, mode: Mode, max_n: int | None = None
) -> RankResult:
    """Largest steps-to-fixpoint over every nonempty subset of the carrier.

    `iterate` reads every subset's relations from the algebra's `Closures`:
    each mask is stepped once, and in enumeration order R_T is the kept R of
    T less one element when that holds T, and is grown from one otherwise.
    A growth of R_T ends at a kept R_{y}, y one element, that holds T as
    soon as it derives (y, top), since then R_{y} = R_T. So a singleton {x}
    with the relation of an earlier {y} (z16-ring: x and gcd(x, 16)) stops
    there and keeps R_{y}'s tuple.
    `iterate` refuses an unknown mode at the first subset, before any step.
    A carrier of size 0, which has no nonempty subset, is refused before any
    work, as `make_algebra` refuses it."""
    if algebra.size > ENUMERATION_LIMIT:
        raise CarrierTooLarge(
            f"carrier size {algebra.size} exceeds enumeration limit {ENUMERATION_LIMIT}"
        )
    if algebra.size < 1:
        raise SizeMismatch("carrier size must be at least 1")
    if max_n is None:
        max_n = algebra.size
    if max_n < 0:
        raise ValueOutOfRange(f"max_n {max_n} is negative")
    best: ClosureReport | None = None
    for subset in subsets_in_order(algebra.size):
        report = iterate(algebra, top, subset, mode, max_steps=max_n + 1)
        steps = report.steps_to_fixpoint
        if steps is None:
            return RankResult(mode, None, max_n, subset, report)
        if best is None or steps > best.steps_to_fixpoint:
            best = report
    assert best is not None
    return RankResult(mode, best.steps_to_fixpoint, max_n, best.chain[0], best)
