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
from .errors import CarrierTooLarge, ValueOutOfRange


def subsets_in_order(size: int, nonempty: bool = True) -> Iterator[ElementSet]:
    """All subsets ordered by cardinality, ties broken by numeric bitmask."""
    masks = sorted(range(1 << size), key=lambda m: (m.bit_count(), m))
    for mask in masks:
        if nonempty and mask == 0:
            continue
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

    `iterate` reads every subset's relations from the one kept `Closures`,
    so each mask is stepped once and, in enumeration order, every R_T grows
    from the kept R of T without its highest element."""
    if algebra.size > ENUMERATION_LIMIT:
        raise CarrierTooLarge(
            f"carrier size {algebra.size} exceeds enumeration limit {ENUMERATION_LIMIT}"
        )
    if max_n is None:
        max_n = algebra.size
    if max_n < 0:
        raise ValueOutOfRange(f"max_n {max_n} is negative")
    best = -1
    witness: ElementSet | None = None
    witness_report: ClosureReport | None = None
    for subset in subsets_in_order(algebra.size):
        report = iterate(algebra, top, subset, mode, max_steps=max_n + 1)
        steps = report.steps_to_fixpoint
        if steps is None or steps > max_n:
            return RankResult(mode, None, max_n, subset, report)
        if steps > best:
            best = steps
            witness = subset
            witness_report = report
    assert witness is not None and witness_report is not None
    return RankResult(mode, best, max_n, witness, witness_report)
