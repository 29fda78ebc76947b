"""Closure operators: generated relations, the per-algebra relation cache,
clots, induction/deduction, iteration reports, normality, and power
images."""
from __future__ import annotations

import dataclasses
import gc
import os
import random
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings

from finalg import (
    BinRel,
    ElementSet,
    algebra_rank,
    build_catalog,
    clot_closure,
    congruence_by_unionfind,
    congruence_generated,
    generate_subalgebra,
    is_compatible,
    is_top_normal,
    iterate,
    make_algebra,
    product_square,
    semicongruence_generated,
    subsets_in_order,
    top_deduction,
    top_induction,
)
from finalg import closure
from finalg.catalog import (
    cyclic_module,
    cyclic_monoid,
    cyclic_ring,
    minplus_semiring,
    pointed_set,
    saturating_monoid,
)
from finalg import ranks
from finalg.algebra import FiniteAlgebra, Signature
from finalg.closure import ClosureReport, Closures, power_images
from finalg.errors import SizeMismatch, SizeOverflow, ValueOutOfRange
from finalg.relations import left_image, right_image
from references import (
    algebras_with_top,
    by_name,
    generated,
    induced,
    iterate_afresh,
    random_algebra,
)


def _top_component(rel, top):
    """Class of top under the equivalence generated by `rel`, by search."""
    n = rel.size
    seen, todo = {top}, [top]
    while todo:
        a = todo.pop()
        for b in range(n):
            if b not in seen and ((a, b) in rel or (b, a) in rel):
                seen.add(b)
                todo.append(b)
    return ElementSet.of(n, seen)


def unionfind_classes(alg, top):
    """Per mask of I, in mask order, top's class under the congruence that
    union-find (`congruence_by_unionfind`) generates from I x {top}. When I
    lies in the class of J = I less one element, I x {top} and J x {top}
    generate one congruence (each lies in the other's), so union-find runs
    only for the sets that no such class holds."""
    n = alg.size
    classes = []
    for mask in range(1 << n):
        cls = next((c for c in (classes[mask ^ 1 << x] for x in ElementSet(n, mask))
                    if mask & ~c == 0), None)
        if cls is None:
            cong = congruence_by_unionfind(alg, [(x, top) for x in ElementSet(n, mask)])
            cls = cong.rows[top]
        classes.append(cls)
    return classes


def own(alg):
    """The algebra object's own `Closures`, read without making one: None
    until a closure function has run on it."""
    return vars(alg).get("_closures")


def kept_induced(closures, top, mask):
    """R_I as `closures` keeps it: the entry for the seed I x {top}, with
    pair (x, top) at bit x * n + top."""
    n = closures.size
    seed = sum(1 << (x * n + top) for x in ElementSet(n, mask))
    return BinRel(n, closures._rows_of(seed))


def step(closures, mode, top, mask, base=0):
    """One step as `iterate` takes it, through the memo of this mode and top."""
    return closures._step(mode, top, mask, base)


def sample_entries():
    wanted = {"z4-monoid", "bool-semiring", "z3-group", "z4-ring", "pointed-3", "sat2-monoid"}
    return [e for e in build_catalog(4) if e.name in wanted]


class TestSemicongruence:
    def test_empty_pairs_give_diagonal(self):
        for entry in build_catalog(4):
            n = entry.algebra.size
            assert semicongruence_generated(entry.algebra, []) == BinRel.diagonal(n)

    def test_z4_monoid_frozen_support(self):
        rel = semicongruence_generated(by_name("z4-monoid"), [(2, 0)])
        expected = sorted(
            [(a, a) for a in range(4)] + [((a + 2) % 4, a) for a in range(4)]
        )
        assert rel.pairs() == expected

    def test_pointed_set_adds_nothing(self):
        rel = semicongruence_generated(by_name("pointed-3"), [(1, 0)])
        assert rel == BinRel.diagonal(3).union(BinRel.from_pairs(3, [(1, 0)]))

    def test_output_is_reflexive_and_compatible(self):
        for entry in sample_entries():
            alg = entry.algebra
            for pairs in ([], [(alg.size - 1, 0)], [(0, alg.size - 1), (1 % alg.size, 0)]):
                rel = semicongruence_generated(alg, pairs)
                assert rel.is_reflexive()
                assert is_compatible(alg, rel)

    def test_pair_out_of_range(self):
        with pytest.raises(ValueOutOfRange):
            semicongruence_generated(by_name("z4-monoid"), [(4, 0)])

    def test_refusals_match_from_pairs(self):
        # a pair outside the carrier, after a good one, in a list or a
        # one-shot generator: the same error as BinRel.from_pairs, and no
        # relation kept for the refused pairs
        alg = dataclasses.replace(by_name("z4-monoid"))
        n = alg.size
        semicongruence_generated(alg, [])
        kept = dict(own(alg)._rows)
        for bad in ((n, 0), (0, n), (-1, 0), (0, -1)):
            for wrap in (list, iter):
                errors = []
                for call in (lambda p: BinRel.from_pairs(n, p),
                             lambda p: semicongruence_generated(alg, p)):
                    with pytest.raises(ValueOutOfRange) as info:
                        call(wrap([(1, 0), bad]))
                    errors.append((info.type, str(info.value)))
                assert errors[0] == errors[1], (bad, wrap)
                assert own(alg)._rows == kept, (bad, wrap)

    def test_one_relation_built_per_call(self, monkeypatch):
        # the pairs go straight into the seed: the result is the one BinRel
        # a call builds, and it builds no ElementSet, kept relation or new
        made = []
        for cls in (BinRel, ElementSet):
            check = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, check=check: made.append(type(self)) or check(self))
        alg = dataclasses.replace(by_name("z4-monoid"))
        for pairs in ([], [(2, 0)], [(2, 0)], [(1, 0), (3, 0)], iter([(3, 1)])):
            made.clear()
            semicongruence_generated(alg, pairs)
            assert made == [BinRel], pairs


class TestClosuresCache:
    def test_every_mask_equals_the_kernel(self):
        # one cache per algebra, masks in numeric order: each R_T is taken
        # or grown from a kept R of T without one element
        for entry in build_catalog(6):
            alg, top = entry.algebra, entry.algebra.top
            closures = Closures(alg)
            for mask in range(1 << alg.size):
                got = kept_induced(closures, top, mask)
                assert got == induced(alg, top, mask), (entry.name, mask)

    def test_seeds_in_random_order_equal_fresh_closures(self):
        # on one algebra object, R_I for two tops and one- to three-pair
        # seeds in random order: whatever is kept when a seed comes, its
        # relation is the one closed from the diagonal
        rng = random.Random(11)
        for entry in build_catalog(6):
            alg = entry.algebra
            n = alg.size
            queries = [(top, mask) for top in {alg.top, (alg.top + 1) % n}
                       for mask in range(1 << n)]
            codes = [(a, b) for a in range(n) for b in range(n)]
            queries += [(None, rng.sample(codes, rng.randint(1, min(3, len(codes)))))
                        for _ in range(1 << n)]
            rng.shuffle(queries)
            kept = closure._closures(alg)
            for top, query in queries:
                if top is None:
                    got = semicongruence_generated(alg, query)
                    assert got == generated(alg, query), (entry.name, query)
                    continue
                rel, subset = induced(alg, top, query), ElementSet(n, query)
                assert top_induction(alg, top, subset) == left_image(rel, subset), \
                    (entry.name, top, query)
                assert top_deduction(alg, top, subset) == right_image(rel, subset), \
                    (entry.name, top, query)
                assert clot_closure(alg, top, subset) == left_image(rel, ElementSet.of(n, [top]))
            assert own(alg) is kept

    def test_grown_from_any_kept_subset(self):
        rng = random.Random(5)
        for entry in build_catalog(6):
            alg, top = entry.algebra, entry.algebra.top
            full = (1 << alg.size) - 1
            for _ in range(12):
                target = rng.randrange(full + 1)
                for base in (0, target, target & rng.randrange(full + 1)):
                    closures = Closures(alg)
                    kept_induced(closures, top, base)
                    step(closures, "induction", top, target, base)  # grows R_target
                    got = kept_induced(closures, top, target)
                    assert got == induced(alg, top, target), (entry.name, target, base)

    def test_base_not_kept_or_not_inside(self):
        alg = by_name("z4-ring")
        closures = Closures(alg)
        step(closures, "deduction", 0, 0b0110, 0b0011)
        assert kept_induced(closures, 0, 0b0110) == induced(alg, 0, 0b0110)
        kept_induced(closures, 0, 0b1000)
        step(closures, "deduction", 0, 0b0101, 0b1000)
        assert kept_induced(closures, 0, 0b0101) == induced(alg, 0, 0b0101)

    def test_kept_subseed_holding_the_missing_pair_is_reused(self, kernel_runs):
        # in z4-monoid the relation of (2,0) holds (0,2), so the seed
        # {(2,0), (0,2)} is that very relation and runs no kernel
        closures = Closures(by_name("z4-monoid"))
        one = closures._rows_of(1 << 2 * 4 + 0)
        assert len(kernel_runs) == 1
        both = closures._rows_of(1 << 2 * 4 + 0 | 1 << 0 * 4 + 2)
        assert both is one and len(kernel_runs) == 1
        assert BinRel(4, both) == generated(by_name("z4-monoid"), [(2, 0), (0, 2)])

    def test_iterate_grows_each_stage_from_the_one_before(self, kernel_runs):
        # sat5-monoid deduction: {3,4} -> {0,1,3,4} -> {0,1,2,3,4}; no subset
        # of {0,1,3,4} short of one element is kept, so its relation grows
        # from the kept relation of {3,4}, not from the diagonal
        alg = by_name("sat5-monoid")
        report = iterate(alg, alg.top, ElementSet.of(6, [3, 4]), "deduction")
        stages = report.distinct_stages()
        assert [sorted(s) for s in stages] == [[3, 4], [0, 1, 3, 4], [0, 1, 2, 3, 4]]
        kept = own(alg)
        assert kept is not None and len(kernel_runs) == 2
        assert kernel_runs[1].base is kept_induced(kept, alg.top, stages[0].mask).rows

    def test_iterate_through_the_cache_equals_the_reference(self):
        for entry in build_catalog(5):
            alg, top = entry.algebra, entry.algebra.top
            for subset in subsets_in_order(alg.size, nonempty=False):
                for mode in ("induction", "deduction"):
                    expected = iterate_afresh(alg, top, subset, mode)
                    assert iterate(alg, top, subset, mode) == expected
                    expected = iterate_afresh(alg, top, subset, mode, 1)
                    assert iterate(alg, top, subset, mode, 1) == expected
            for subset in subsets_in_order(alg.size, nonempty=False):
                assert iterate(alg, top, subset, "deduction") == \
                    iterate_afresh(alg, top, subset, "deduction")

    def test_one_kept_closures_per_algebra_object(self, kernel_runs):
        # a second call on the same algebra object, or a call on another
        # top, shares its Closures and closes nothing new; an equal but
        # distinct object gets its own, and each refusal raises as before
        alg = by_name("sat3-monoid")
        subset = ElementSet.of(4, [3])
        report = iterate(alg, alg.top, subset, "deduction")
        kept = own(alg)
        assert kept is not None and kernel_runs
        assert set(kept._steps["deduction", alg.top]) == {s.mask for s in report.chain}
        kernel_runs.clear()
        assert iterate(alg, alg.top, subset, "deduction") == report
        for op in (top_induction, top_deduction, clot_closure, is_top_normal):
            op(alg, alg.top, subset)
        for op in (semicongruence_generated, congruence_generated):
            op(alg, [(3, alg.top)])
        assert own(alg) is kept and not kernel_runs
        big = make_algebra([("point", 0)], 65, {"point": [0]}, top=0)
        twin = dataclasses.replace(alg)
        refused = (
            (ValueOutOfRange, r"^top element 4 outside carrier of size 4$",
             lambda: top_induction(alg, 4, subset)),
            (SizeOverflow, r"^squared carrier 4225 exceeds limit 4096$",
             lambda: top_induction(big, 0, subset)),
            (SizeOverflow, r"^squared carrier 4225 exceeds limit 4096$",
             lambda: semicongruence_generated(big, [(1, 0)])),
            (ValueOutOfRange, r"^pair \(5,0\) outside carrier of size 4$",
             lambda: top_induction(twin, 0, ElementSet.of(6, [5]))),
            (SizeMismatch, r"^set over a different carrier$",
             lambda: clot_closure(twin, 0, ElementSet.of(5, [1]))),
            (ValueOutOfRange, r"^pair \(4,0\) outside carrier of size 4$",
             lambda: semicongruence_generated(twin, [(4, 0)])),
        )
        for error, message, call in refused:
            with pytest.raises(error, match=message):
                call()
            assert own(alg) is kept and own(big) is None
        other_top = (alg.top + 1) % 4
        assert iterate(alg, other_top, subset, "deduction").chain[0] == subset
        assert own(alg) is kept and kernel_runs
        assert ("deduction", other_top) in kept._steps
        kernel_runs.clear()
        assert iterate(twin, alg.top, subset, "deduction") == report
        assert twin == alg and own(twin) is not kept and kernel_runs
        kernel_runs.clear()
        assert iterate(alg, alg.top, subset, "deduction") == report
        assert own(alg) is kept and not kernel_runs

    def test_a_dropped_algebra_is_freed_without_the_collector(self):
        # a Closures holds no reference back to its algebra, so the last
        # reference to an algebra that has run closures frees it, and its
        # relations, by reference counting alone
        alg = dataclasses.replace(cyclic_ring(4).algebra)
        iterate(alg, alg.top, ElementSet.of(4, [2]), "deduction")
        congruence_generated(alg, [(1, 0)])
        dropped = weakref.ref(alg)
        gc.disable()
        try:
            del alg
            assert dropped() is None
        finally:
            gc.enable()

    def test_threads_sharing_the_kept_closures_get_the_reference(self):
        # threads share each algebra object's Closures without a lock; a
        # Closures only stores values that are the same whoever computes
        # them, so threads that interleave on shared algebra objects, equal
        # copies and other tops must all get the reference images
        cases = []
        for entry in build_catalog(4):
            alg = entry.algebra
            for top in {alg.top, (alg.top + 1) % alg.size}:
                for mask in range(1 << alg.size):
                    rel, subset = induced(alg, top, mask), ElementSet(alg.size, mask)
                    cases.append((alg, top, subset,
                                  (left_image(rel, subset), right_image(rel, subset))))
        wrong, errors = [], []

        def work(seed):
            try:
                rng = random.Random(seed)
                for alg, top, subset, expected in rng.sample(cases, len(cases)):
                    if rng.random() < 0.5:
                        alg = dataclasses.replace(alg)
                    got = (top_induction(alg, top, subset), top_deduction(alg, top, subset))
                    if got != expected:
                        wrong.append((alg, top, subset))
            except Exception as exc:  # reported below, with the thread's seed
                errors.append((seed, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and not wrong, (errors, wrong[:3])
        # two threads that close one seed at once may each list it, with
        # equal rows, so the rows are compared by value
        for entry in build_catalog(4):
            if (kept := own(entry.algebra)) is not None:
                n = kept.size
                for a, bit, support, rows in kept._principal:
                    assert rows == kept._rows[bit << a * n], (entry.name, a, bit)
                    assert support == BinRel(n, rows).support().mask, (entry.name, a, bit)

    def test_reimports_keep_at_most_one_closures_alive(self):
        # a process that imports finalg afresh again and again, as a harness
        # that reloads it between passes does, must not pile up kept caches
        script = (
            "import gc, sys\n"
            "for _ in range(3):\n"
            "    import finalg\n"
            "    finalg.run_suite('rank0')\n"
            "    del finalg\n"
            "    for name in [m for m in sys.modules if m.split('.')[0] == 'finalg']:\n"
            "        del sys.modules[name]\n"
            "    gc.collect()\n"
            "print(sum(type(o).__name__ == 'Closures' for o in gc.get_objects()))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(closure.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) <= 1

    def test_steps_are_the_images_of_the_relation(self):
        alg = by_name("sat3-monoid")
        closures = Closures(alg)
        for mask in range(16):
            rel = induced(alg, alg.top, mask)
            subset = ElementSet(4, mask)
            assert step(closures, "induction", alg.top, mask) == left_image(rel, subset)
            assert step(closures, "deduction", alg.top, mask) == right_image(rel, subset)

    def test_step_seeds_are_the_pairs_with_top(self):
        # a mask and its base become seeds with member x at bit x * n + top:
        # every mask and top for n <= 6, random masks and 0 at n = 33 and 64
        rng = random.Random("step-seeds")
        for n in (*range(1, 7), 33, 64):
            full = (1 << n) - 1
            alg = make_algebra([("f", 1)], n, {"f": list(range(n))})
            masks = range(full + 1) if n <= 6 else \
                dict.fromkeys([0, full, *(rng.getrandbits(n) for _ in range(40))])
            for top in range(n) if n <= 6 else (0, rng.randrange(n), n - 1):
                closures, calls = Closures(alg), []
                diagonal = closures._rows[0]
                closures._rows_of = lambda seed, base: calls.append((seed, base)) or diagonal
                bases = [rng.getrandbits(n) for _ in masks]
                for mask, base in zip(masks, bases):
                    step(closures, "induction", top, mask, base)
                assert calls == [tuple(sum(1 << (x * n + top) for x in range(n) if m >> x & 1)
                                       for m in pair) for pair in zip(masks, bases)], (n, top)

    def test_clot_and_normality_read_the_step_relation(self, monkeypatch):
        # once top_induction has kept R_S, the clot and normality of S read
        # it: no generated-relation call, no pair list, no kernel run, and
        # no relation composed or reversed
        calls = []

        def spy(name, inner):
            return lambda *args: calls.append(name) or inner(*args)

        for name in ("semicongruence_generated", "congruence_generated", "_close",
                     "compose", "opposite"):
            monkeypatch.setattr(closure, name, spy(name, getattr(closure, name)))
        monkeypatch.setattr(BinRel, "from_pairs", spy("from_pairs", BinRel.from_pairs))
        for entry in sample_entries():
            alg, top = dataclasses.replace(entry.algebra), entry.algebra.top
            for mask in range(1 << alg.size):
                subset = ElementSet(alg.size, mask)
                top_induction(alg, top, subset)
                calls.clear()
                clot_closure(alg, top, subset)
                is_top_normal(alg, top, subset)
                assert calls == [], (entry.name, mask)

    def test_refusals(self):
        alg = by_name("z4-monoid")
        big = make_algebra([("point", 0)], 65, {"point": [0]}, top=0)
        with pytest.raises(SizeOverflow):
            Closures(big)
        with pytest.raises(ValueOutOfRange, match=r"pair \(5,0\) outside carrier of size 4"):
            iterate(alg, 0, ElementSet.of(6, [1, 5]), "induction")
        with pytest.raises(SizeMismatch, match="target set over a different carrier"):
            iterate(alg, 0, ElementSet.of(3, [1]), "induction")
        with pytest.raises(SizeMismatch, match="source set over a different carrier"):
            iterate(alg, 0, ElementSet.of(5, [1]), "deduction")
        with pytest.raises(SizeMismatch, match="source set over a different carrier"):
            iterate(alg, 0, ElementSet.of(5, [1]), "deduction", 0)
        # the single-shot operators, after a call on another algebra and
        # after one on this one, refuse as they did when each closed R_I
        # from the diagonal
        one = ElementSet.of(4, [1])
        for kept in (by_name("z4-group"), alg):
            for op in (top_induction, top_deduction, clot_closure, is_top_normal):
                clot_closure(kept, 0, one)
                with pytest.raises(ValueOutOfRange,
                                   match=r"^top element 4 outside carrier of size 4$"):
                    op(alg, 4, one)
                with pytest.raises(ValueOutOfRange,
                                   match=r"^pair \(5,0\) outside carrier of size 4$"):
                    op(alg, 0, ElementSet.of(6, [1, 5]))
                with pytest.raises(SizeOverflow,
                                   match=r"^squared carrier 4225 exceeds limit 4096$"):
                    op(big, 0, ElementSet.of(65, [1]))
            for other in (ElementSet.of(3, [1]), ElementSet.of(5, [1])):
                clot_closure(kept, 0, one)
                with pytest.raises(SizeMismatch,
                                   match=r"^target set over a different carrier$"):
                    top_induction(alg, 0, other)
                with pytest.raises(SizeMismatch,
                                   match=r"^source set over a different carrier$"):
                    top_deduction(alg, 0, other)
                for op in (clot_closure, is_top_normal):
                    with pytest.raises(SizeMismatch,
                                       match=r"^set over a different carrier$"):
                        op(alg, 0, other)

    @pytest.mark.parametrize("sig, tables", [((("f", 1),), ((),)), ((), ())],
                             ids=["unary-op", "no-op"])
    def test_size_zero_is_refused(self, sig, tables):
        # as make_algebra, the parser and algebra_rank refuse it, and before
        # the square check; no Closures is kept for the algebra
        alg = FiniteAlgebra(Signature(sig), 0, tables)
        for op in (semicongruence_generated, congruence_generated):
            with pytest.raises(SizeMismatch, match=r"^carrier size must be at least 1$"):
                op(alg, [])
            assert own(alg) is None

    def test_single_shot_operators_equal_the_reference(self):
        # every mask through the algebra's Closures after random other masks
        # were kept, then every mask again right after a call on an equal
        # but distinct algebra object, which has its own, or on another top,
        # which shares it
        rng = random.Random(7)
        for entry in build_catalog(5):
            alg, top = entry.algebra, entry.algebra.top
            n = alg.size
            top_set = ElementSet.of(n, [top])
            expected = {}
            for mask in range(1 << n):
                subset = ElementSet(n, mask)
                rel = induced(alg, top, mask)
                cls = _top_component(rel, top)
                cong = congruence_by_unionfind(alg, [(x, top) for x in subset])
                assert cls == left_image(cong, top_set), (entry.name, mask)
                expected[mask] = (left_image(rel, subset), right_image(rel, subset),
                                  left_image(rel, top_set), (subset == cls, cls))

            def single_shots(mask):
                subset = ElementSet(n, mask)
                return (top_induction(alg, top, subset), top_deduction(alg, top, subset),
                        clot_closure(alg, top, subset), is_top_normal(alg, top, subset))

            for mask in rng.sample(sorted(expected), min(6, len(expected))):
                rng.choice((top_induction, top_deduction))(alg, top, ElementSet(n, mask))
            kept = own(alg)
            masks = rng.sample(sorted(expected), len(expected))
            for mask in masks:
                assert single_shots(mask) == expected[mask], (entry.name, mask)
            assert own(alg) is kept and len(kept._rows) == 1 << n, entry.name
            others = [(dataclasses.replace(alg), top)]
            if n > 1:
                others.append((alg, (top + 1) % n))
            for i, mask in enumerate(masks):
                other, other_top = others[i % len(others)]
                clot_closure(other, other_top, ElementSet(n, mask))
                assert own(other) is not None
                assert (own(other) is kept) == (other is alg)
                assert single_shots(mask) == expected[mask], (entry.name, mask, other_top)
                assert own(alg) is kept


class TestKeptPrincipalRelations:
    def test_stops_equal_the_square_closure_on_random_algebras(self, kernel_runs):
        # one Closures per algebra keeps every single-pair seed first, so
        # the kernel runs of the two-pair seeds and of the sets I x {top}
        # meet kept principal relations R_(a,b) holding their pairs; each
        # relation must be the subalgebra of the square generated by the
        # diagonal and T. The reference reads Sg(Δ ∪ T) off Sg(Δ ∪ T less p)
        # when that holds p, and otherwise generates it anew
        rng = random.Random("principal stops")
        for n in range(2, 9):
            for sparse in (False, True) * 3:
                # ternary ops at n <= 5: the square's ternary table has n^6 entries
                arities = [rng.randint(0, 3 if n <= 5 else 2) for _ in range(rng.randint(1, 3))]
                alg = random_algebra(rng, n, arities, sparse)
                top = rng.randrange(n)
                square, closures = product_square(alg), Closures(alg)
                diagonal = sum(1 << a * n + a for a in range(n))
                expected = {0: diagonal}
                singles = [1 << code for code in range(n * n)]
                doubles = [p | q for i, p in enumerate(singles) for q in singles[i + 1:]]
                sets = [sum(1 << x * n + top for x in ElementSet(n, mask))
                        for mask in range(1, 1 << n)]
                for seed in singles + doubles + sets:
                    ref = next((sub for code in ElementSet(n * n, seed)
                                if (sub := expected.get(seed ^ 1 << code, 0)) >> code & 1), None)
                    if ref is None:
                        ref = generate_subalgebra(square, ElementSet(n * n, diagonal | seed)).mask
                    expected[seed] = ref
                    got = BinRel(n, closures._rows_of(seed)).support().mask
                    assert got == ref, (n, arities, sparse, seed)
        assert any(run.stopped for run in kernel_runs)

    def test_one_entry_per_one_pair_seed_the_kernel_closed(self):
        # z16-ring induction runs the kernel on the 15 seeds {(x, top)},
        # x != top, and on no other one-pair seed. Each entry's rows are
        # the very tuple kept for its seed, with its support; runs that
        # ended at a kept relation list that tuple again, so the 15 entries
        # hold 4 tuples. pointed-4 has no op of arity >= 1: no entry
        alg = cyclic_ring(16).algebra
        n, top = alg.size, alg.top
        algebra_rank(alg, top, "induction")
        kept = own(alg)
        principal = kept._principal
        assert sorted((a, bit) for a, bit, _, _ in principal) == \
            [(x, 1 << top) for x in range(n) if x != top]
        for a, bit, support, rows in principal:
            assert rows is kept._rows[bit << a * n], a
            assert support == BinRel(n, rows).support().mask, a
        assert len({id(rows) for _, _, _, rows in principal}) == 4
        pointed = pointed_set(4).algebra
        algebra_rank(pointed, pointed.top, "induction")
        assert own(pointed)._principal == []


class TestCongruence:
    def test_empty_and_reflexive_pairs_give_diagonal(self):
        alg = by_name("z4-monoid")
        assert congruence_generated(alg, []) == BinRel.diagonal(4)
        assert congruence_generated(alg, [(3, 3)]) == BinRel.diagonal(4)

    def test_z4_monoid_mod2_classes(self):
        rel = congruence_generated(by_name("z4-monoid"), [(2, 0)])
        expected = sorted((a, b) for a in range(4) for b in range(4) if (a - b) % 2 == 0)
        assert rel.pairs() == expected

    def test_result_is_a_congruence(self):
        for entry in sample_entries():
            alg = entry.algebra
            rel = congruence_generated(alg, [(alg.size - 1, 0)])
            assert rel.is_reflexive()
            assert rel.is_symmetric()
            assert rel.is_transitive()
            assert is_compatible(alg, rel)

    @pytest.mark.parametrize("entry", [
        saturating_monoid(15), saturating_monoid(31), minplus_semiring(14),
        minplus_semiring(22), cyclic_monoid(20), cyclic_ring(10), cyclic_module(10),
    ], ids=lambda entry: entry.name)
    def test_singleton_seeds_above_six_match_unionfind(self, entry):
        alg, top = entry.algebra, entry.algebra.top
        for x in range(alg.size):
            assert congruence_generated(alg, [(x, top)]) == \
                congruence_by_unionfind(alg, [(x, top)]), x

    def test_contains_semicongruence(self):
        alg = by_name("sat2-monoid")
        pairs = [(2, 0)]
        assert semicongruence_generated(alg, pairs).issubset(
            congruence_generated(alg, pairs)
        )


class TestClot:
    def test_empty_set_gives_top_singleton(self):
        for entry in sample_entries():
            alg = entry.algebra
            clot = clot_closure(alg, alg.top, ElementSet.empty(alg.size))
            assert list(clot) == [alg.top]

    def test_frozen_examples(self):
        assert set(clot_closure(by_name("z4-ring"), 0, ElementSet.of(4, [2]))) == {0, 2}
        assert set(clot_closure(by_name("bool-semiring"), 0, ElementSet.of(2, [1]))) == {0, 1}

    def test_idempotent_on_catalog(self):
        for entry in build_catalog(3):
            alg = entry.algebra
            for subset in subsets_in_order(alg.size, nonempty=False):
                once = clot_closure(alg, alg.top, subset)
                assert clot_closure(alg, alg.top, once) == once

    def test_top_out_of_range(self):
        with pytest.raises(ValueOutOfRange):
            clot_closure(by_name("z4-ring"), 4, ElementSet.empty(4))


class TestInductionDeduction:
    def test_top_singleton_is_fixed(self):
        for entry in sample_entries():
            alg = entry.algebra
            singleton = ElementSet.of(alg.size, [alg.top])
            assert top_induction(alg, alg.top, singleton) == singleton
            assert top_deduction(alg, alg.top, singleton) == singleton

    def test_frozen_examples(self):
        assert set(top_induction(by_name("z3-monoid"), 0, ElementSet.of(3, [1]))) == {0, 1, 2}
        assert set(top_induction(by_name("bool-semiring"), 0, ElementSet.of(2, [1]))) == {1}
        assert set(top_deduction(by_name("bool-semiring"), 0, ElementSet.of(2, [1]))) == {0, 1}
        assert set(top_deduction(by_name("z4-group"), 0, ElementSet.of(4, [2]))) == {0, 2}

    def test_empty_set_is_fixed(self):
        for entry in sample_entries():
            alg = entry.algebra
            empty = ElementSet.empty(alg.size)
            assert top_induction(alg, alg.top, empty) == empty
            assert top_deduction(alg, alg.top, empty) == empty

    def test_nonempty_sets_grow(self):
        for entry in sample_entries():
            alg = entry.algebra
            for subset in subsets_in_order(alg.size):
                assert subset.issubset(top_induction(alg, alg.top, subset))
                assert subset.issubset(top_deduction(alg, alg.top, subset))


class TestIterate:
    def test_fixed_set_chain(self):
        # an already-inductive set: the chain records the first repeat
        alg = by_name("bool-semiring")
        subset = ElementSet.of(2, [1])
        report = iterate(alg, 0, subset, "induction")
        assert report.chain == (subset, subset)
        assert report.steps_to_fixpoint == 0
        assert report.distinct_stages() == (subset,)
        assert report.final() == subset

    def test_empty_set_chain(self):
        alg = by_name("z4-monoid")
        empty = ElementSet.empty(4)
        report = iterate(alg, 0, empty, "deduction")
        assert report.chain == (empty, empty)
        assert report.steps_to_fixpoint == 0

    def test_unknown_mode_is_refused(self):
        alg = by_name("z4-monoid")
        kept = own(alg)
        with pytest.raises(ValueOutOfRange, match="^unknown mode 'Induction'; choose"):
            iterate(alg, 0, ElementSet.of(4, [1]), "Induction")
        assert own(alg) is kept

    def test_boolean_deduction_chain(self):
        alg = by_name("bool-semiring")
        report = iterate(alg, 0, ElementSet.of(2, [1]), "deduction")
        assert [set(s) for s in report.distinct_stages()] == [{1}, {0, 1}]
        assert report.steps_to_fixpoint == 1

    def test_set_over_another_carrier_is_refused_for_every_budget(self):
        # with no step to take the set is still refused, as every step is
        alg = by_name("z4-monoid")
        for other in (ElementSet.of(3, [1]), ElementSet.of(5, [1])):
            for max_steps in (0, 1, None):
                with pytest.raises(SizeMismatch,
                                   match=r"^target set over a different carrier$"):
                    iterate(alg, 0, other, "induction", max_steps)
                with pytest.raises(SizeMismatch,
                                   match=r"^source set over a different carrier$"):
                    iterate(alg, 0, other, "deduction", max_steps)

    def test_max_steps_exhaustion(self):
        alg = by_name("z3-monoid")
        subset = ElementSet.of(3, [1])
        report = iterate(alg, 0, subset, "induction", max_steps=0)
        assert report.steps_to_fixpoint is None
        assert report.chain == (subset,)
        with pytest.raises(ValueOutOfRange):
            report.stage(3)

    def test_negative_budget_is_refused(self):
        alg = by_name("z3-monoid")
        for max_steps in (-1, -2):
            with pytest.raises(ValueOutOfRange, match=rf"^max_steps {max_steps} is negative$"):
                iterate(alg, 0, ElementSet.of(3, [1]), "induction", max_steps)

    def test_negative_stage_is_refused(self):
        # a negative index must not count from the end of the chain
        alg = by_name("sat3-monoid")
        report = iterate(alg, alg.top, ElementSet.of(4, [3]), "deduction")
        assert len(report.chain) > 2
        for n in (-1, -2, -len(report.chain) - 1):
            with pytest.raises(ValueOutOfRange):
                report.stage(n)

    def test_stage_after_fixpoint_is_final(self):
        alg = by_name("bool-semiring")
        report = iterate(alg, 0, ElementSet.of(2, [1]), "deduction")
        assert report.stage(10) == report.final()
        assert report.stage(0) == ElementSet.of(2, [1])

    def test_chains_increase_and_stabilize_within_carrier_size(self):
        for entry in build_catalog(4):
            alg = entry.algebra
            for subset in subsets_in_order(alg.size, nonempty=False):
                for mode in ("induction", "deduction"):
                    report = iterate(alg, alg.top, subset, mode)
                    assert report.steps_to_fixpoint is not None
                    assert report.steps_to_fixpoint <= alg.size
                    for earlier, later in zip(report.chain, report.chain[1:]):
                        assert earlier.issubset(later)


class TestStages:
    # a step hands out the ElementSet that `_stages` keeps for its mask: the
    # single-shot operators and every report's chain share it
    @pytest.mark.parametrize("op, mode", [(top_induction, "induction"),
                                          (top_deduction, "deduction")])
    def test_every_step_returns_the_kept_stage(self, op, mode):
        alg = dataclasses.replace(cyclic_ring(8).algebra)
        top, moved = alg.top, 0
        for subset in subsets_in_order(8, nonempty=False):
            got = op(alg, top, subset)
            moved += got != subset
            assert got is own(alg)._stages[got.mask], subset
            assert op(alg, top, subset) is got, subset
            chain = iterate(alg, top, subset, mode).chain
            assert chain[1] is (subset if got == subset else got), subset
        assert moved


class TestClosureReport:
    def test_positional_fields(self):
        # built positionally, as tests/references.py builds it
        a, b = ElementSet.of(3, [1]), ElementSet.of(3, [0, 1])
        report = ClosureReport("deduction", (a, b, b), 1)
        assert ClosureReport._fields == ("mode", "chain", "steps_to_fixpoint")
        assert (report.mode, report.chain, report.steps_to_fixpoint) == \
            ("deduction", (a, b, b), 1)

    def test_fields_are_read_only(self):
        report = iterate(by_name("bool-semiring"), 0, ElementSet.of(2, [1]), "deduction")
        for name in ClosureReport._fields:
            with pytest.raises(AttributeError):
                setattr(report, name, None)

    def test_methods_at_a_fixpoint(self):
        first, second = ElementSet.of(2, [1]), ElementSet.of(2, [0, 1])
        report = iterate(by_name("bool-semiring"), 0, first, "deduction")
        assert report.chain == (first, second, second)
        assert report.chain[-1] is report.chain[-2]
        assert report.distinct_stages() == (first, second)
        assert report.final() == second
        assert [report.stage(k) for k in range(5)] == [first, second, second, second, second]

    def test_methods_with_max_steps_exhausted(self):
        alg = by_name("bool-semiring")
        first, second = ElementSet.of(2, [1]), ElementSet.of(2, [0, 1])
        report = iterate(alg, 0, first, "deduction", max_steps=1)
        assert report.steps_to_fixpoint is None
        assert report.chain == report.distinct_stages() == (first, second)
        assert report.final() == second
        assert (report.stage(0), report.stage(1)) == (first, second)
        with pytest.raises(ValueOutOfRange, match="^stage 2 not computed and no fixpoint reached$"):
            report.stage(2)

    @pytest.mark.parametrize("mode", ["induction", "deduction"])
    def test_rank_reports_repeat_one_stage_object(self, mode, monkeypatch):
        # every report of the z8-ring rank reaches its fixpoint, and its
        # chain ends on the repeated stage itself, not a new equal set; the
        # stages iterate built are one object per mask across all reports
        reports = []

        def spy(*args, **kwargs):
            reports.append(iterate(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(ranks, "iterate", spy)
        alg = next(e.algebra for e in build_catalog(8) if e.name == "z8-ring")
        assert algebra_rank(alg, alg.top, mode).rank == 1
        assert len(reports) == 255
        for report in reports:
            assert report.steps_to_fixpoint is not None
            assert report.chain[-1] is report.chain[-2]
        built = [stage for report in reports
                 for stage in report.chain[1:report.steps_to_fixpoint + 1]]
        assert built and len({id(stage) for stage in built}) == len({stage.mask for stage in built})


class TestNormality:
    def test_frozen_examples(self):
        ok, cls = is_top_normal(by_name("bool-semiring"), 0, ElementSet.of(2, [1]))
        assert not ok and set(cls) == {0, 1}
        ok, cls = is_top_normal(by_name("z4-ring"), 0, ElementSet.of(4, [0, 2]))
        assert ok and set(cls) == {0, 2}

    def test_set_over_another_carrier_is_refused(self):
        # {0,2} over a 3-element carrier is not the class {0,2} of z4-ring;
        # it is refused before any relation is closed
        alg = by_name("z4-ring")
        for op in (is_top_normal, clot_closure):
            with pytest.raises(SizeMismatch, match=r"^set over a different carrier$"):
                op(alg, 0, ElementSet.of(3, [0, 2]))

    def test_top_singleton_on_pointed_set(self):
        ok, cls = is_top_normal(by_name("pointed-3"), 0, ElementSet.of(3, [0]))
        assert ok and set(cls) == {0}

    def test_class_is_the_unionfind_class_on_the_catalog(self):
        # top's component in R_I u R_I~ is its union-find class, every set
        # of every entry up to eight elements
        for entry in build_catalog(8):
            alg, top = entry.algebra, entry.algebra.top
            n = alg.size
            for mask, cls in enumerate(unionfind_classes(alg, top)):
                assert is_top_normal(alg, top, ElementSet(n, mask)) == \
                    (mask == cls, ElementSet(n, cls)), (entry.name, mask)

    def test_class_is_the_unionfind_class_on_random_algebras(self):
        rng = random.Random("normality")
        for n in range(1, 7):
            for sparse in (False, True) * 6:
                arities = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
                alg = random_algebra(rng, n, arities, sparse)
                top = rng.randrange(n)
                for mask, cls in enumerate(unionfind_classes(alg, top)):
                    assert is_top_normal(alg, top, ElementSet(n, mask)) == \
                        (mask == cls, ElementSet(n, cls)), (n, arities, top, mask)

    def test_empty_set_is_never_normal(self):
        for entry in sample_entries():
            alg = entry.algebra
            ok, cls = is_top_normal(alg, alg.top, ElementSet.empty(alg.size))
            assert not ok
            assert alg.top in cls


class TestPowerImages:
    def test_relation_power_images(self):
        rel = BinRel.diagonal(3).union(BinRel.from_pairs(3, [(1, 0), (2, 1)]))
        chain = power_images(rel, ElementSet.of(3, [0]), "left")
        assert [set(s) for s in chain] == [{0}, {0, 1}, {0, 1, 2}]
        assert [set(s) for s in power_images(rel, ElementSet.of(3, [0]), "right")] == [{0}]

    def test_unknown_side_is_refused(self):
        with pytest.raises(ValueOutOfRange, match="^unknown side 'up'; choose 'left' or 'right'$"):
            power_images(BinRel.diagonal(2), ElementSet.of(2, [0]), "up")

    def test_power_images_stop_on_a_cycle(self):
        swap = BinRel.from_pairs(2, [(0, 1), (1, 0)])
        chain = power_images(swap, ElementSet.of(2, [0]), "right")
        assert [set(s) for s in chain] == [{0}, {1}]


class TestCoverageEquivalence:
    """The claimed equivalence between covering the subalgebra of top and
    induction covering the generated subalgebra: the forward implication
    holds on the whole catalog; the converse has a genuine two-element
    counterexample, pinned here so the behavior stays documented."""

    def test_forward_implication_holds_everywhere(self):
        for entry in build_catalog(4):
            alg = entry.algebra
            top_sub = generate_subalgebra(alg, ElementSet.of(alg.size, [alg.top]))
            for subset in subsets_in_order(alg.size):
                if top_sub.issubset(subset):
                    assert generate_subalgebra(alg, subset).issubset(
                        top_induction(alg, alg.top, subset)
                    ), f"{entry.name} {subset}"

    def test_converse_counterexample_is_stable(self):
        alg = by_name("z2-monoid")
        subset = ElementSet.of(2, [1])
        top_sub = generate_subalgebra(alg, ElementSet.of(2, [0]))
        assert set(top_sub) == {0}
        assert not top_sub.issubset(subset)  # left side false
        generated = generate_subalgebra(alg, subset)
        assert set(generated) == {0, 1}
        induced = top_induction(alg, 0, subset)
        assert set(induced) == {0, 1}
        assert generated.issubset(induced)  # right side true


@settings(max_examples=150)
@given(algebras_with_top())
def test_operators_on_random_algebras(case):
    """Random algebras, ops of arity 0-3, every subset: the congruence
    engine equals union-find, both steps are increasing, a nonempty set is
    normal iff one induction and one deduction step fix it (theorem-a), and
    the clot is idempotent."""
    alg, top = case
    for subset in subsets_in_order(alg.size, nonempty=False):
        pairs = [(x, top) for x in subset]
        assert congruence_generated(alg, pairs) == congruence_by_unionfind(alg, pairs), subset
        ind = top_induction(alg, top, subset)
        ded = top_deduction(alg, top, subset)
        assert subset.issubset(ind) and subset.issubset(ded), subset
        if subset:
            fixed = ind == subset and ded == subset
            assert is_top_normal(alg, top, subset).is_normal == fixed, subset
        once = clot_closure(alg, top, subset)
        assert clot_closure(alg, top, once) == once, subset
