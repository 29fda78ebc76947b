"""Output checks that do not trust the engine under test.

Every op's exit code and stdout are compared, outside the timed span, with:
- suite-sweep: the stdout and exit code each suite printed at the recorded
  commit (theorem-b prints `FAIL theorem-b 209 67` and exits 1 by design);
- rank-sweep and cli-cold catalog shapes: the output recorded on the canonical
  labelling, carried through the seed's relabelling (every operator is
  isomorphism-equivariant; the rank witness is the first subset in
  enumeration order whose canonical preimage attains the rank);
- cli-cold random algebras: a naive reference closure written here, plus the
  union-find congruence oracle for `cong` and `normal`;
- every cli-cold `cong` request: the union-find congruence oracle;
- cli-cold, for the seeds in expected/cli-cold-digests.json: a digest of the
  exit code and stdout recorded at that commit.
"""
from __future__ import annotations

import hashlib
import json
import re
from itertools import product
from pathlib import Path

from workloads import Op, Spec

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
CHAIN_PRINT_CAP = 32
_SET = re.compile(r"\{([0-9,]*)\}")


def load_expected() -> dict:
    out = {}
    for name in ("suites", "shapes", "cli-cold-digests"):
        with open(EXPECTED_DIR / f"{name}.json", encoding="utf-8") as fh:
            out[name] = json.load(fh)
    return out


def digest(rc, stdout: str) -> str:
    return hashlib.sha256(f"{rc}\n{stdout}".encode()).hexdigest()[:16]


def fmt_set(members) -> str:
    return "{" + ",".join(str(x) for x in sorted(members)) + "}"


def fmt_chain(stages) -> str:
    shown = [fmt_set(s) for s in stages[:CHAIN_PRINT_CAP]]
    if len(stages) > CHAIN_PRINT_CAP:
        shown.append("...")
    return " ⊂ ".join(shown)


def fmt_pairs(pairs) -> str:
    return "".join(f"{a} {b}\n" for a, b in sorted(pairs))


def relabel_output(cmd: str, text: str, perm) -> str:
    """Canonical stdout of `cmd` rewritten for the copy where x is perm[x]."""
    if cmd in ("semicong", "cong"):
        pairs = (tuple(map(int, line.split())) for line in text.splitlines())
        return fmt_pairs((perm[a], perm[b]) for a, b in pairs)

    def sub(m: re.Match) -> str:
        return fmt_set(perm[int(x)] for x in m.group(1).split(",") if x)

    return _SET.sub(sub, text)


def subsets_in_order(n: int):
    """Masks of nonempty subsets by cardinality, ties by numeric mask."""
    return sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m))


def expected_rank_output(record: dict, n: int, perm) -> str:
    inv = [0] * n
    for x, y in enumerate(perm):
        inv[y] = x
    attain = record["attain"]
    for mask in subsets_in_order(n):
        members = [x for x in range(n) if mask >> x & 1]
        canon = sum(1 << inv[x] for x in members)
        if str(canon) in attain:
            chain = relabel_output("rank", attain[str(canon)], perm)
            return f"rank {record['rank']}\nwitness {fmt_set(members)}\n{chain}\n"
    raise ValueError("no recorded subset attains the rank")


# -- naive reference, independent of the engine ------------------------------

def ref_semicongruence(spec: Spec, pairs) -> set[tuple[int, int]]:
    """Smallest reflexive relation containing the pairs and closed under every
    operation componentwise, by full rescans until nothing changes."""
    n = spec.size
    rel = {(a, a) for a in range(n)} | set(pairs)
    ops = [(arity, table) for _, arity, table in spec.ops if arity > 0]
    while True:
        found = set()
        current = list(rel)
        for arity, table in ops:
            for tup in product(current, repeat=arity):
                left = right = 0
                for a, b in tup:
                    left = left * n + a
                    right = right * n + b
                found.add((table[left], table[right]))
        if found <= rel:
            return rel
        rel |= found


def _induced(spec: Spec, members) -> set[tuple[int, int]]:
    return ref_semicongruence(spec, [(x, spec.top) for x in members])


def _iterate(spec: Spec, members, mode: str) -> tuple[frozenset, list[frozenset]]:
    chain = [frozenset(members)]
    for _ in range(spec.size + 1):
        cur = chain[-1]
        rel = _induced(spec, cur)
        if mode == "ind":
            nxt = frozenset(a for a, b in rel if b in cur)
        else:
            nxt = frozenset(b for a, b in rel if a in cur)
        chain.append(nxt)
        if nxt == cur:
            break
    distinct = [chain[0]]
    for stage in chain[1:]:
        if stage != distinct[-1]:
            distinct.append(stage)
    return chain[-1], distinct


def _finite_algebra(spec: Spec):
    from finalg.algebra import make_algebra

    return make_algebra([(name, arity) for name, arity, _ in spec.ops], spec.size,
                        {name: table for name, _, table in spec.ops}, spec.top)


def oracle_congruence(spec: Spec, members) -> set[tuple[int, int]]:
    from finalg.oracles import congruence_by_unionfind

    rel = congruence_by_unionfind(_finite_algebra(spec), [(x, spec.top) for x in members])
    return set(rel.pairs())


def reference_output(spec: Spec, cmd: str, members) -> str:
    if cmd == "semicong":
        return fmt_pairs(_induced(spec, members))
    if cmd == "cong":
        return fmt_pairs(oracle_congruence(spec, members))
    if cmd == "clot":
        return fmt_set(a for a, b in _induced(spec, members) if b == spec.top) + "\n"
    if cmd == "normal":
        cls = {a for a, b in oracle_congruence(spec, members) if b == spec.top}
        word = "normal" if cls == set(members) else "not-normal"
        return f"{word} {fmt_set(cls)}\n"
    final, distinct = _iterate(spec, members, cmd)
    return f"{fmt_set(final)}\n{fmt_chain(distinct)}\n"


# -- per-op verdict -------------------------------------------------------------

def check(op: Op, rc, stdout: str, expected: dict, recorded: str | None = None) -> str | None:
    """None when the op's exit code and stdout are right, else the reason.
    `recorded` is the digest recorded for this op, if its seed has one."""
    if recorded is not None and digest(rc, stdout) != recorded:
        return "differs from the output recorded for this seed"
    if op.kind == "suite":
        want = expected["suites"][op.key]
        if rc != want["exit"]:
            return f"exit {rc}, expected {want['exit']}"
        return None if stdout == want["stdout"] else "suite output differs"
    if rc != 0:
        return f"exit {rc}, expected 0"
    if op.kind == "rank":
        shape_key, mode = op.key
        record = expected["shapes"]["rank"][shape_key][mode]
        want = expected_rank_output(record, len(op.perm), op.perm)
        return None if stdout == want else "rank output differs"
    if op.kind == "shape":
        record = expected["shapes"]["cli"][op.key]
        want = relabel_output(op.cmd, record["stdout"], op.perm)
        if stdout != want:
            return f"{op.cmd} output differs from the relabelled recording"
        if op.cmd == "cong" and stdout != fmt_pairs(oracle_congruence(op.spec, op.members)):
            return "cong differs from the union-find oracle"
        return None
    if op.kind == "random":
        want = reference_output(op.spec, op.cmd, op.members)
        return None if stdout == want else f"{op.cmd} differs from the reference"
    return f"unknown op kind {op.kind!r}"

