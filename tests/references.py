"""The test modules' shared references and builders, each defined once here.

The references recompute what the memoised closure engine computes the way
it did before its relation cache: every relation generated afresh by the
kernel, every subset iterated on its own. The builders give the catalog
lookup, the tabled and random algebras, the square seed and the Hypothesis
strategy of algebras with a top element."""
from __future__ import annotations

import random
from itertools import product

from hypothesis import strategies as st

from finalg import (
    BinRel,
    ClosureReport,
    ElementSet,
    FiniteAlgebra,
    RankResult,
    build_catalog,
    make_algebra,
    subsets_in_order,
)
from finalg.closure import Closures, _close
from finalg.relations import left_image, right_image


def by_name(name: str) -> FiniteAlgebra:
    """The algebra of the catalog entry of that name, up to six elements."""
    for entry in build_catalog(6):
        if entry.name == name:
            return entry.algebra
    raise LookupError(name)


def tabled(n: int, ops) -> FiniteAlgebra:
    """The algebra on {0..n-1} whose ops are given as (name, arity, function)."""
    return make_algebra(
        [(name, arity) for name, arity, _ in ops],
        n,
        {name: [fn(*args) for args in product(range(n), repeat=arity)]
         for name, arity, fn in ops},
    )


def random_algebra(rng: random.Random, n: int, arities, sparse: bool = False) -> FiniteAlgebra:
    """Ops f0, f1, ... of the given arities with random tables, drawn entry by
    entry in signature order; sparse ones send three entries in four to 0, so
    that few pairs are derivable and each from few argument tuples."""

    def entry() -> int:
        return 0 if sparse and rng.random() < 0.75 else rng.randrange(n)

    ops = [(f"f{i}", arity) for i, arity in enumerate(arities)]
    return make_algebra(ops, n, {name: [entry() for _ in range(n**a)] for name, a in ops})


def square_seed(n: int, pairs) -> ElementSet:
    """Δ ∪ P as a subset of the square's carrier, pair (a, b) at a * n + b."""
    return BinRel.from_pairs(n, list(pairs)).union(BinRel.diagonal(n)).support()


@st.composite
def algebras_with_top(draw):
    n = draw(st.integers(1, 5))
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    tables = {}
    for i, k in enumerate(arities):
        # values below a drawn bound: the fewer values an op takes, the
        # smaller the relations and the longer the chains to a fixpoint
        hi = draw(st.integers(0, n - 1))
        tables[f"f{i}"] = draw(st.lists(st.integers(0, hi), min_size=n**k, max_size=n**k))
    alg = make_algebra([(f"f{i}", k) for i, k in enumerate(arities)], n, tables)
    return alg, draw(st.integers(0, n - 1))


def generated(alg, pairs):
    """The semicongruence generated by the pairs, closed from the diagonal by
    the kernel on a fresh Closures: no seed and no kept relation."""
    diagonal = [1 << a for a in range(alg.size)]
    rows = list(diagonal)
    for a, b in pairs:
        rows[a] |= 1 << b
    return BinRel(alg.size, _close(Closures(alg), rows, diagonal, ()))


def congruence_all_pairs(alg, pairs) -> BinRel:
    """The congruence generated by the pairs by partition refinement over
    every related pair: each round merges f(..a..) with f(..b..) for every
    (a, b) in one class at the start of the round, every position and every
    context, until a round merges nothing."""
    n = alg.size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        parent[ra] = rb
        return ra != rb

    def index(args):
        i = 0
        for x in args:
            i = i * n + x
        return i

    for a, b in pairs:
        union(a, b)
    changed = True
    while changed:
        changed = False
        related = [(a, b) for a in range(n) for b in range(a + 1, n) if find(a) == find(b)]
        for _, arity, table in alg.ops():
            for a, b in related:
                for pos in range(arity):
                    for context in product(range(n), repeat=arity - 1):
                        left = index(context[:pos] + (a,) + context[pos:])
                        right = index(context[:pos] + (b,) + context[pos:])
                        changed |= union(table[left], table[right])
    return BinRel(n, tuple(sum(1 << b for b in range(n) if find(a) == find(b))
                           for a in range(n)))


def induced(alg, top, mask):
    """R_I, generated from the diagonal by the kernel."""
    return generated(alg, [(x, top) for x in ElementSet(alg.size, mask)])


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
