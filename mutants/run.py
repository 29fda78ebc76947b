"""A catalogue of mutants of finalg, and a runner that checks each is killed.

Each mutant is one edit of one file: its exact old text, which must occur
exactly once in that file, and the new text put in its place. With it go
the ids of the tests written to catch it. A mutant is killed when every one
of those tests fails on the edited tree.

    python mutants/run.py            # every mutant
    python mutants/run.py NAME ...   # the named mutants

For each mutant the runner copies the repository, without `.git` and
caches, to a temporary directory and applies the edit there; the working
tree is never touched. It runs the mutant's tests in one pytest process,
one mutant at a time, under a timeout of TIMEOUT seconds, and prints one
line per mutant: `killed`, `survived` (with the tests that did not fail) or
`timeout`, and the seconds taken. It exits 1 unless every mutant it ran was
killed. Standard library only; the interpreter that runs it must import
pytest and hypothesis, as the tests do. `tests/test_mutants.py` checks in
tier-1 that every old text still occurs exactly once, so the catalogue
cannot rot silently.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600  # seconds per mutant; the slowest, `table-length-unguarded`, took 21 s on 2 cores


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, each of which must fail


MUTANTS = (
    # the parse layer: one line rule, one keyword read, one huge-arity guard
    Mutant(
        "lines-splitlines", "src/finalg/fileformat.py",
        'lines = text.replace("\\r\\n", "\\n").replace("\\r", "\\n").split("\\n")',
        "lines = text.splitlines()",
        ("tests/test_fileformat.py::TestLineEnds::test_commented_out_symbol_is_skipped[op-ff]",
         "tests/test_fileformat.py::TestLineEnds::test_commented_out_symbol_is_skipped[const-ls]",
         "tests/test_fileformat.py::TestLineEnds::test_fault_reports_the_text_mode_position"
         "[after-comment-nel]",
         "tests/test_fileformat.py::TestLineEnds::test_fault_reports_the_text_mode_position"
         "[inside-row-vt]"),
    ),
    Mutant(
        "table-length-unguarded", "src/finalg/algebra.py",
        "return bound + 1 if size > 1 and arity > bound.bit_length() else size**arity",
        "return size**arity",
        ("tests/test_fileformat.py::TestTableLength::test_builder_and_parser_agree[10-20000000-1]",
         "tests/test_cli.py::TestInputErrors::test_huge_arity_fails_at_the_table_end"),
    ),
    Mutant(
        "unknown-keyword-at-next-token", "src/finalg/fileformat.py",
        "found {word!r}\", at)",
        "found {word!r}\")",
        ("tests/test_fileformat.py::TestKeywordRefusals::test_refusal[unknown-keyword]",
         "tests/test_fileformat.py::TestExactDiagnostics::test_refusal[hash-after-table]"),
    ),
    Mutant(
        "top-twice-at-next-token", "src/finalg/fileformat.py",
        'raise p._error("top declared twice", at)',
        'raise p._error("top declared twice")',
        ("tests/test_fileformat.py::TestKeywordRefusals::test_refusal[top-twice]",),
    ),
    # the kernel and the relation cache
    Mutant(
        "cut-columns-reversed", "src/finalg/closure.py",
        "return [int.from_bytes(lanes[b::n], byteorder) for b in range(n)]",
        "return [int.from_bytes(lanes[b::n], byteorder) for b in reversed(range(n))]",
        ("tests/test_kernel.py::test_cut_equals_an_integer_transpose[8]",
         "tests/test_kernel.py::test_cut_equals_an_integer_transpose[64]"),
    ),
    Mutant(
        "arity-0-ops-packed", "src/finalg/closure.py",
        "            if k:\n                stacked.setdefault(k, []).extend(table)",
        "            stacked.setdefault(k, []).extend(table)",
        ("tests/test_kernel.py::test_one_table_entry_per_arity",
         "tests/test_closure.py::TestKeptPrincipalRelations"
         "::test_one_entry_per_one_pair_seed_the_kernel_closed"),
    ),
    Mutant(
        "no-size-0-check", "src/finalg/closure.py",
        '        if n < 1:\n            raise SizeMismatch("carrier size must be at least 1")\n'
        "        if n * n > DEFAULT_CARRIER_LIMIT:",
        "        if n * n > DEFAULT_CARRIER_LIMIT:",
        ("tests/test_closure.py::TestClosuresCache::test_size_zero_is_refused[unary-op]",
         "tests/test_closure.py::TestClosuresCache::test_size_zero_is_refused[no-op]"),
    ),
    Mutant(
        "no-pre-round-check", "src/finalg/closure.py",
        "    if (got := _reached(known, rows, rows)) is not None:\n        return got\n"
        "    fmt = closures._fmt",
        "    fmt = closures._fmt",
        ("tests/test_suites.py::TestKernelRuns::test_kernel_runs_over_every_suite",),
    ),
    Mutant(
        "rows-of-highest-pair-first", "src/finalg/closure.py",
        "            low = rest & -rest\n            if (got := kept.get(seed ^ low)) is not None:",
        "            low = 1 << rest.bit_length() - 1\n"
        "            if (got := kept.get(seed ^ low)) is not None:",
        ("tests/test_suites.py::TestKernelRuns::test_kernel_runs_over_every_suite",
         "tests/test_suites.py::TestKernelRuns::test_kernel_runs_per_deduction_rank[sat12-monoid]"),
    ),
    Mutant(
        "rows-of-last-kept-start", "src/finalg/closure.py",
        "start = start or got",
        "start = got",
        ("tests/test_suites.py::TestKernelRuns::test_kernel_runs_over_every_suite",
         "tests/test_suites.py::TestKernelRuns::test_kernel_runs_per_deduction_rank[sat12-monoid]"),
    ),
    Mutant(
        "growth-without-the-seed", "src/finalg/closure.py",
        "got = _close(self, [r | row for r, row in zip(rows, seed_rows)], rows,",
        "got = _close(self, list(rows), rows,",
        ("tests/test_golden.py::test_per_set_digest[semicong]",
         "tests/test_suites.py::TestKernelRuns::test_kernel_runs_over_every_suite"),
    ),
    Mutant(
        "step-returns-a-fresh-stage", "src/finalg/closure.py",
        "            memo[mask] = got\n        return got",
        "            memo[mask] = got\n            return ElementSet(self.size, nxt)\n        return got",
        ("tests/test_closure.py::TestStages::test_every_step_returns_the_kept_stage"
         "[top_induction-induction]",
         "tests/test_closure.py::TestStages::test_every_step_returns_the_kept_stage"
         "[top_deduction-deduction]"),
    ),
    Mutant(
        "fixpoint-appends-the-kept-stage", "src/finalg/closure.py",
        "        if stage.mask == last.mask:\n            chain.append(last)",
        "        if stage.mask == last.mask:\n            chain.append(stage)",
        ("tests/test_closure.py::TestClosureReport::test_rank_reports_repeat_one_stage_object"
         "[induction]",
         "tests/test_closure.py::TestClosureReport::test_rank_reports_repeat_one_stage_object"
         "[deduction]"),
    ),
    Mutant(
        "right-mask-drops-the-last-source", "src/finalg/relations.py",
        "    mask = 0\n    while sources:\n        low = sources & -sources\n"
        "        mask |= rows[low.bit_length() - 1]",
        "    mask = 0\n    while sources & sources - 1:\n        low = sources & -sources\n"
        "        mask |= rows[low.bit_length() - 1]",
        ("tests/test_relations.py::TestMaskImages::test_images_match_their_definitions[8]",
         "tests/test_relations.py::TestMaskImages::test_images_match_their_definitions[64]"),
    ),
    # the suite walk
    Mutant(
        "suite-names-the-first-entry-only", "src/finalg/suites.py",
        "        for entry in build_catalog(default_limit if limit is None else limit):\n"
        "            if takes is None or takes(entry):\n"
        "                col.algebra = entry.name\n",
        "        entries = build_catalog(default_limit if limit is None else limit)\n"
        "        col.algebra = entries[0].name\n"
        "        for entry in entries:\n"
        "            if takes is None or takes(entry):\n",
        ("tests/test_suites.py::TestSelection::test_each_failure_names_its_own_entry",
         "tests/test_golden.py::test_verify_digest"),
    ),
    Mutant(
        "nat-chain-unnamed", "src/finalg/suites.py",
        '    col.algebra = "nat-mult"\n',
        "",
        ("tests/test_suites.py::TestSelection::test_nat_chain_failures_name_nat_mult",),
    ),
    # the naive oracles and the term-image reference
    Mutant(
        "subtractive-ideal-is-any-ideal", "src/finalg/oracles.py",
        "return subtractive_closure_submonoid(view.algebra, subset) == subset and is_ideal(view, subset)",
        "return is_ideal(view, subset)",
        ("tests/test_oracles.py::TestTruncatedNaturals::test_normal_iff_subtractive_ideal[2-3-1]",
         "tests/test_oracles.py::TestTruncatedNaturals::test_normal_iff_subtractive_ideal[7-17-15]"),
    ),
    Mutant(
        "subtractive-ideal-without-is-ideal", "src/finalg/oracles.py",
        "return subtractive_closure_submonoid(view.algebra, subset) == subset and is_ideal(view, subset)",
        "return subtractive_closure_submonoid(view.algebra, subset) == subset",
        ("tests/test_oracles.py::TestTruncatedNaturals::test_subtractive_closure_alone_is_not_an_ideal",),
    ),
    Mutant(
        "maltsev-first-identity-dropped", "src/finalg/oracles.py",
        "        *(((x, y, y), x) for x in xs for y in xs),\n",
        "",
        ("tests/test_oracles.py::TestTermConditionCheckers::test_a_projection_fails_the_identity_it_misses"
         "[maltsev-third-projection]",),
    ),
    Mutant(
        "jonsson-tarski-second-identity-dropped", "src/finalg/oracles.py",
        "        *(((x, zero), x) for x in xs),\n        *(((zero, x), x) for x in xs),\n",
        "        *(((x, zero), x) for x in xs),\n",
        ("tests/test_oracles.py::TestTermConditionCheckers::test_a_projection_fails_the_identity_it_misses"
         "[jonsson-tarski-first]",),
    ),
    Mutant(
        "term-images-one-element-pool", "src/finalg/algebra.py",
        "pick = itemgetter(*pool, pool[0])",
        "pick = itemgetter(*pool)",
        ("tests/test_algebra.py::TestTermEnumeration::test_one_element_pool[None]",),
    ),
    Mutant(
        "term-images-one-code-block", "src/finalg/algebra.py",
        "pick_pairs = itemgetter(*codes, codes[0])",
        "pick_pairs = itemgetter(*codes)",
        ("tests/test_algebra.py::TestTermEnumeration::test_one_element_pool[None]",),
    ),
    Mutant(
        "term-images-block-at-o-n", "src/finalg/algebra.py",
        "nxt.update(pick_pairs(table[o * block : o * block + block]))",
        "nxt.update(pick_pairs(table[o * n : o * n + block]))",
        ("tests/test_algebra.py::TestTermEnumeration::test_matches_per_tuple_evaluation[0]",),
    ),
)


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} times "
                         f"in {mutant.path}, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _failed(output: str, test: str) -> bool:
    """Whether pytest's short summary (`-rfE`) lists `test` as failed or errored."""
    return any(line == f"{kind} {test}" or line.startswith(f"{kind} {test} ")
               for line in output.splitlines() for kind in ("FAILED", "ERROR"))


def run(mutant: Mutant) -> tuple[str, float]:
    """(`killed`, `survived: ...` or `timeout`, seconds) for one mutant."""
    with tempfile.TemporaryDirectory(prefix="finalg-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        _apply(tree, mutant)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *mutant.tests]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - start
        seconds = time.perf_counter() - start
    alive = [test for test in mutant.tests if not _failed(proc.stdout, test)]
    return ("survived: " + " ".join(alive) if alive else "killed"), seconds


def main(argv: list[str]) -> int:
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutant(s): {' '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in argv] or list(MUTANTS)
    all_killed = True
    for mutant in chosen:
        outcome, seconds = run(mutant)
        all_killed &= outcome == "killed"
        print(f"{mutant.name}: {outcome} ({seconds:.1f} s)", flush=True)
    return 0 if all_killed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
