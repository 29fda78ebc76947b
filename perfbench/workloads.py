"""Seeded inputs for the three benchmark workloads.

The benchmark defines its own algebras and writes its own files, so the
program under test sees nothing but algebra description files and argv. The
shapes below mirror the catalog families (cyclic monoids, groups, rings,
modules, semirings, saturating monoids, min-plus semirings); a seed relabels
them by a permutation of the carrier, draws the random tables and picks the
sets, and changes nothing else: the mix of size, arity and subcommand is fixed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path

SUITES = (
    "theorem-a", "theorem-b", "theorem-c", "clot-idempotent", "term-oracle",
    "semiring", "comm-monoid", "maltsev", "subtractive", "jonsson-tarski",
    "rank0", "nat-chain",
)

# Subcommand -> argv words after the file; every request also gets --set.
COMMANDS = {
    "semicong": ("semicong",),
    "cong": ("cong",),
    "ind": ("ind", "--fixpoint"),
    "ded": ("ded", "--fixpoint"),
    "clot": ("clot",),
    "normal": ("normal",),
}


@dataclass(frozen=True)
class Spec:
    """An algebra as the benchmark knows it: ops are (name, arity, table)
    with row-major tables, leftmost argument slowest, as the file format."""

    name: str
    size: int
    ops: tuple[tuple[str, int, tuple[int, ...]], ...]
    top: int


@dataclass(frozen=True)
class Op:
    """One request. `kind` says how its output is checked:
    suite -> key is the suite name;
    rank -> key is (shape, mode), perm relabels the canonical shape into spec;
    shape -> key is the cli-cold slot index, perm relabels its canonical output
             and spec is the relabelled algebra;
    random -> spec/cmd/members are replayed by the benchmark's reference."""

    argv: tuple[str, ...]
    kind: str
    key: object = None
    perm: tuple[int, ...] | None = None
    spec: Spec | None = None
    cmd: str | None = None
    members: tuple[int, ...] = ()


def _table(n: int, arity: int, fn) -> tuple[int, ...]:
    return tuple(fn(*args) for args in product(range(n), repeat=arity))


def _group_ops(n: int) -> list:
    return [
        ("add", 2, _table(n, 2, lambda a, b: (a + b) % n)),
        ("neg", 1, _table(n, 1, lambda a: (-a) % n)),
        ("sub", 2, _table(n, 2, lambda a, b: (a - b) % n)),
        ("mal", 3, _table(n, 3, lambda a, b, c: (a - b + c) % n)),
        ("zero", 0, (0,)),
    ]


def _minplus(cap: int) -> Spec:
    n, inf = cap + 2, cap + 1

    def add(a: int, b: int) -> int:
        return b if a == inf else a if b == inf else min(a, b)

    def mul(a: int, b: int) -> int:
        return inf if inf in (a, b) else min(a + b, cap)

    ops = (("add", 2, _table(n, 2, add)), ("mul", 2, _table(n, 2, mul)),
           ("zero", 0, (inf,)), ("one", 0, (0,)))
    return Spec(f"minplus{cap}", n, ops, inf)


def shape(key: str) -> Spec:
    """Canonical shape by key, e.g. 'ring10', 'monoid32', 'sat31', 'minplus22'."""
    family = key.rstrip("0123456789")
    k = int(key[len(family):])
    if family == "monoid":
        ops = [("add", 2, _table(k, 2, lambda a, b: (a + b) % k)), ("zero", 0, (0,))]
    elif family == "sat":
        n = k + 1
        return Spec(key, n, (("add", 2, _table(n, 2, lambda a, b: min(a + b, k))),
                             ("zero", 0, (0,))), 0)
    elif family == "group":
        ops = _group_ops(k)
    elif family == "ring":
        ops = _group_ops(k) + [("mul", 2, _table(k, 2, lambda a, b: a * b % k)),
                               ("one", 0, (1 % k,))]
    elif family == "module":
        ops = _group_ops(k) + [(f"r{r}", 1, _table(k, 1, lambda a, r=r: r * a % k))
                               for r in range(k)]
    elif family == "semiring":
        ops = [("add", 2, _table(k, 2, lambda a, b: (a + b) % k)),
               ("mul", 2, _table(k, 2, lambda a, b: a * b % k)),
               ("zero", 0, (0,)), ("one", 0, (1 % k,))]
    elif family == "minplus":
        return _minplus(k)
    else:
        raise ValueError(f"unknown shape {key!r}")
    return Spec(key, k, tuple(ops), 0)


def relabel(spec: Spec, perm: tuple[int, ...]) -> Spec:
    """The isomorphic copy in which element x is called perm[x]."""
    n = spec.size
    inv = [0] * n
    for x, y in enumerate(perm):
        inv[y] = x
    ops = []
    for name, arity, table in spec.ops:
        new = []
        for args in product(inv, repeat=arity):
            idx = 0
            for a in args:
                idx = idx * n + a
            new.append(perm[table[idx]])
        ops.append((name, arity, tuple(new)))
    return Spec(spec.name, n, tuple(ops), perm[spec.top])


def render(spec: Spec) -> str:
    n = spec.size
    lines = [f"algebra {spec.name}", f"size {n}"]
    for name, arity, table in spec.ops:
        if arity == 0:
            lines.append(f"const {name} {table[0]}")
            continue
        lines.append(f"op {name} {arity}")
        lines.extend(" ".join(map(str, table[i:i + n])) for i in range(0, len(table), n))
    lines += [f"top {spec.top}", "end"]
    return "\n".join(lines) + "\n"


def set_arg(members) -> str:
    return ",".join(str(x) for x in sorted(members)) if members else "-"


# cli-cold: catalog-shape slots (shape, subcommand, canonical set). The first
# ten are the slow tail that sets op_p95_ms; binary-only shapes go up to
# n = 32, shapes with the ternary `mal` stay at n <= 10.
CLI_SHAPE_SLOTS = (
    ("monoid32", "semicong", (2,)), ("sat31", "cong", (5,)),
    ("semiring24", "normal", (4,)), ("minplus22", "semicong", (3,)),
    ("monoid24", "ind", (3,)), ("ring10", "cong", (2,)), ("module10", "ded", (2,)),
    ("group9", "ind", (3,)), ("group9", "ded", (3, 6)), ("ring9", "normal", (3,)),
    ("semiring20", "ded", (6,)), ("minplus18", "cong", (1, 7)),
    ("monoid20", "semicong", (4,)), ("monoid20", "cong", (5,)),
    ("monoid12", "ind", (2,)), ("monoid12", "ded", (6,)),
    ("monoid12", "clot", (8,)), ("monoid12", "normal", (10,)),
    ("monoid16", "semicong", (2,)), ("monoid16", "normal", (4, 8)),
    ("monoid16", "ind", (6,)), ("monoid16", "clot", (3,)),
    ("semiring16", "semicong", (2,)), ("semiring16", "cong", (4,)),
    ("semiring16", "ind", (8,)), ("semiring16", "normal", (2, 6)),
    ("minplus14", "semicong", (2,)), ("minplus14", "ded", (5,)),
    ("minplus14", "clot", (1, 3)), ("minplus14", "cong", (7,)),
    ("sat15", "semicong", (3,)), ("sat15", "cong", (6,)),
    ("sat15", "ind", (2, 9)), ("sat15", "ded", (4,)),
    ("ring7", "semicong", (2,)), ("ring7", "cong", (4,)), ("ring7", "ind", (1,)),
    ("ring7", "normal", (2, 4, 6)),
    ("module7", "clot", (2,)), ("module7", "ded", (4,)),
    ("module7", "normal", (4,)), ("module7", "ind", (6,)),
    ("group7", "semicong", (4,)), ("group7", "cong", (2, 6)),
    ("group7", "clot", (1,)), ("group7", "ded", (3,)),
    ("semiring12", "clot", (3,)), ("semiring12", "ind", (5,)),
)

# cli-cold: random algebras, (size, arities) x every subcommand, twice each.
# Ternary ops stay at n <= 4 so the benchmark's naive reference stays cheap.
RANDOM_SIGNATURES = (
    (3, (2, 0)), (3, (1, 2)), (3, (3,)), (3, (0, 1, 2, 3)),
    (4, (2, 0)), (4, (1, 2)), (4, (3, 0)), (4, (1, 3)),
    (5, (2, 0)), (5, (1, 2)), (5, (2, 2, 0)), (5, (1, 1, 2)),
    (6, (2, 0)), (6, (1, 2)), (6, (2, 2, 0)), (6, (1, 1, 2)),
)
RANDOM_REPEATS = 2

# rank-sweep: both modes on each shape, n = 5..8.
RANK_SHAPES = ("ring5", "module5", "group5", "sat7", "minplus6", "semiring7", "monoid8")


def random_spec(rng: random.Random, name: str, n: int, arities) -> Spec:
    ops = tuple(
        (f"f{i}", arity, tuple(rng.randrange(n) for _ in range(n**arity)))
        for i, arity in enumerate(arities)
    )
    return Spec(name, n, ops, rng.randrange(n))


def _perm(rng: random.Random, n: int) -> tuple[int, ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def write_spec(workdir: Path, filename: str, spec: Spec) -> str:
    """Write the file, rewriting an existing one in place. Creating files and
    truncating them to zero cost time that depends on the file system's
    history (inode allocation, a flush on close), not on the program."""
    path = workdir / filename
    with open(path, "r+b" if path.exists() else "wb") as fh:
        fh.write(render(spec).encode("utf-8"))
        fh.truncate()
    return str(path)


def suite_sweep(seed: int) -> list[Op]:
    order = list(SUITES)
    random.Random(f"suite-sweep/{seed}").shuffle(order)
    return [Op(("verify", "--suite", s), "suite", s) for s in order]


def cli_cold(seed: int, pass_index: int, workdir: Path) -> list[Op]:
    """A few hundred single requests, each on its own file. Every pass of a
    run draws fresh inputs, so no request shares work with another; a pass
    rewrites the files of the one before."""
    rng = random.Random(f"cli-cold/{seed}/{pass_index}")
    ops = []
    for slot, (key, cmd, canon) in enumerate(CLI_SHAPE_SLOTS):
        base = shape(key)
        perm = _perm(rng, base.size)
        spec = relabel(base, perm)
        path = write_spec(workdir, f"s{slot}.alg", spec)
        members = tuple(perm[x] for x in canon)
        argv = (COMMANDS[cmd][0], path) + COMMANDS[cmd][1:] + ("--set", set_arg(members))
        ops.append(Op(argv, "shape", slot, perm=perm, spec=spec, cmd=cmd, members=members))
    for rep in range(RANDOM_REPEATS):
        for sig, (n, arities) in enumerate(RANDOM_SIGNATURES):
            for cmd in COMMANDS:
                spec = random_spec(rng, f"rand{n}", n, arities)
                members = tuple(x for x in range(n) if rng.random() < 0.5)
                path = write_spec(workdir, f"r{rep}-{sig}-{cmd}.alg", spec)
                argv = (COMMANDS[cmd][0], path) + COMMANDS[cmd][1:] + ("--set", set_arg(members))
                ops.append(Op(argv, "random", spec=spec, cmd=cmd, members=members))
    return ops


def rank_sweep(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"rank-sweep/{seed}")
    ops = []
    for key in RANK_SHAPES:
        base = shape(key)
        perm = _perm(rng, base.size)
        spec = relabel(base, perm)
        path = write_spec(workdir, f"{key}.alg", spec)
        for mode in ("ind", "ded"):
            argv = ("rank", path, "--mode", mode)
            ops.append(Op(argv, "rank", (key, mode), perm=perm, spec=spec))
    return ops


def build(workload: str, seed: int, pass_index: int, workdir: Path) -> list[Op]:
    """The op list of one pass. Only cli-cold changes its inputs per pass."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "suite-sweep":
        return suite_sweep(seed)
    if workload == "cli-cold":
        return cli_cold(seed, pass_index, workdir)
    if workload == "rank-sweep":
        return rank_sweep(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("suite-sweep", "cli-cold", "rank-sweep")
