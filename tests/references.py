"""Reference implementations of the memoised closure engine, kept as the
engine computed them before its relation cache: every relation generated
afresh by the kernel, every subset iterated on its own."""
from __future__ import annotations

from finalg import ClosureReport, ElementSet, RankResult, semicongruence_generated, subsets_in_order
from finalg.relations import left_image, right_image


def induced(alg, top, mask):
    """R_I, generated from the diagonal by the kernel."""
    return semicongruence_generated(alg, [(x, top) for x in ElementSet(alg.size, mask)])


def iterate_afresh(alg, top, subset, mode, max_steps=None):
    """Iterate with every stage's relation generated from the diagonal."""
    if max_steps is None:
        max_steps = alg.size + 1
    image = left_image if mode == "induction" else right_image
    rel = induced(alg, top, subset.mask)
    chain = [subset]
    steps = None
    for _ in range(max_steps):
        cur = chain[-1]
        nxt = image(rel, cur)
        chain.append(nxt)
        if nxt == cur:
            steps = len(chain) - 2
            break
        rel = induced(alg, top, nxt.mask)
    return ClosureReport(mode, tuple(chain), steps)


def rank_by_iteration(alg, top, mode, max_n=None):
    """The rank with one full iteration per nonempty subset, in enumeration order."""
    if max_n is None:
        max_n = alg.size
    best = -1
    witness = witness_report = None
    for subset in subsets_in_order(alg.size):
        report = iterate_afresh(alg, top, subset, mode, max_steps=max_n + 1)
        steps = report.steps_to_fixpoint
        if steps is None or steps > max_n:
            return RankResult(mode, None, max_n, subset, report)
        if steps > best:
            best = steps
            witness = subset
            witness_report = report
    return RankResult(mode, best, max_n, witness, witness_report)
