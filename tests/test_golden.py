"""Golden digests of the catalog and of every CLI subcommand.

Each digest is the sha256 of what in-process `main` calls print (stdout,
stderr and exit code per call) over a fixed sweep: every subset of every
catalog algebra with n <= 4, rendered to a file, for the per-set commands;
both rank modes per algebra; all verification suites at their default limit.
A refactor that claims byte-identical output must leave every digest as it is.
Every rank in that part of the catalog is at most 1, so each fixpoint digest
equals its one-step digest. Chains of two or more growth steps are pinned
over the n <= 8 catalog: the deduction fixpoint of every subset of the
saturating monoids of rank 2 or more, both rank modes per algebra, and all
suites at --limit 6. The parser's refusals are pinned by the outcomes of
seeded mutations of the rendered n <= 4 catalog.
"""
from __future__ import annotations

import hashlib
import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

from finalg import (
    SUITE_NAMES,
    build_catalog,
    parse_algebra_file,
    render_algebra,
    subsets_in_order,
)
from finalg.cli import main
from finalg.errors import EngineError

CATALOG_DIGEST = "f89ac61ea1150f1b4da6af185c085085235d20b11eec130b11bd8578ee0436a4"

# subcommand -> (extra arguments per call, digest)
PER_SET = {
    "ind": (("--steps", "1"), "f819a6bbc6362305d9c066520118161b5958fee7ebf048a5cc5090daa3323440"),
    "ind-fixpoint": (("--fixpoint",), "f819a6bbc6362305d9c066520118161b5958fee7ebf048a5cc5090daa3323440"),
    "ded": (("--steps", "1"), "84cecfa4b0668f79b9698ef42493ffc632bdfe8932c38e227b0520597d11d6fd"),
    "ded-fixpoint": (("--fixpoint",), "84cecfa4b0668f79b9698ef42493ffc632bdfe8932c38e227b0520597d11d6fd"),
    "clot": ((), "91363545c9c41f8e8ce44176f8d26ed8b6d5ed9e8620593b1346fd3af39a7433"),
    "normal": ((), "f561d8020ceb3f6ec28c26a47edeb265079b504d57ba049cb2f8fe2987ddd740"),
    "semicong": ((), "70e6cd5bc1f90044b68cc07c87d3d6ed3c314521dff6e4c350b115456e1fdba0"),
    "cong": ((), "3d694437d0c0180de2d589228cc60fdd5153d045eb8d6ab7a71935933da58204"),
}
RANK_DIGEST = "45fc8eec6131fc55e69f62850d190e07b7cd4f54b10cad4cc47d23188dceeced"
VERIFY_DIGEST = "21b1914d7090f70cec8bf3f648e5fb3158ee8a70aae806d40a56eb8fccdb2c57"

# the entries of the n <= 8 catalog with a rank of 2 or more
MULTISTEP = ("sat5-monoid", "sat6-monoid", "sat7-monoid")
MULTISTEP_FIXPOINT_DIGEST = "e19eacc3ef311c2fcff751e68db332afc384819dbefab4e412cbbae11f769ace"
RANK_8_DIGEST = "3b2c29d32b12dd1723b2fc73ee3150ef6b7d3c894a33d9b24b23d4d0b18d08de"
# its summaries include FAIL theorem-b 961 369 and FAIL theorem-c 9610 6
VERIFY_LIMIT_6_DIGEST = "8b42974ecf7a34aed045b0a99e9ae52831aa94f7964dea4c3a5cee63fd917f60"

# parsed file or exception type and message of each seeded mutation
MUTATIONS = 2000
MUTATION_TOKENS = (
    "x", "7", "-1", "0 0 7", "end", "op", "op g 1", "top 0", "const k 1",
    "#", "# note\n", "\n  # note\n", "+1", "1_0", "\u0663", "\t", "\n", "0",
)
PARSE_MUTATION_DIGEST = "9da94ed15cbce8e5c1efd8b5b81ab24a20cc4f182d72ae90980a7575e34dc0c1"


def _digest(calls) -> str:
    h = hashlib.sha256()
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        h.update(f"{code}\n{out.getvalue()}\0{err.getvalue()}\0".encode())
    return h.hexdigest()


def _render(root, limit):
    """(name, path, size) of every catalog entry up to `limit`, one file each."""
    out = []
    for entry in build_catalog(limit):
        path = root / f"{entry.name}.ua"
        path.write_text(render_algebra(entry.name, entry.algebra))
        out.append((entry.name, str(path), entry.algebra.size))
    return out


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return [(path, n) for _, path, n in _render(tmp_path_factory.mktemp("golden"), 4)]


@pytest.fixture(scope="module")
def files_8(tmp_path_factory):
    return _render(tmp_path_factory.mktemp("golden8"), 8)


def test_catalog_digest():
    assert hashlib.sha256(repr(build_catalog(8)).encode()).hexdigest() == CATALOG_DIGEST


@pytest.mark.parametrize("name", sorted(PER_SET))
def test_per_set_digest(files, name):
    extra, expected = PER_SET[name]
    command = name.split("-")[0]
    calls = (
        (command, path, "--set", ",".join(map(str, subset)) or "-", *extra)
        for path, n in files
        for subset in subsets_in_order(n, nonempty=False)
    )
    assert _digest(calls) == expected


def test_rank_digest(files):
    calls = (("rank", path, "--mode", mode) for path, _ in files for mode in ("ind", "ded"))
    assert _digest(calls) == RANK_DIGEST


def test_verify_digest():
    assert _digest(("verify", "--suite", suite) for suite in SUITE_NAMES) == VERIFY_DIGEST


def test_multistep_fixpoint_digest(files_8):
    calls = (
        ("ded", path, "--set", ",".join(map(str, subset)) or "-", "--fixpoint")
        for name, path, n in files_8 if name in MULTISTEP
        for subset in subsets_in_order(n, nonempty=False)
    )
    assert _digest(calls) == MULTISTEP_FIXPOINT_DIGEST


def test_rank_8_digest(files_8):
    calls = (("rank", path, "--mode", mode) for _, path, _ in files_8 for mode in ("ind", "ded"))
    assert _digest(calls) == RANK_8_DIGEST


def test_verify_limit_6_digest():
    calls = (("verify", "--suite", suite, "--limit", "6") for suite in SUITE_NAMES)
    assert _digest(calls) == VERIFY_LIMIT_6_DIGEST


def _mutate(rng: random.Random, text: str) -> str:
    """Insert a token, delete a token or truncate the text."""
    kind = rng.randrange(3)
    if kind == 0:
        at = rng.randrange(len(text) + 1)
        sep = rng.choice((" ", "\t", "\n", ""))
        return text[:at] + sep + rng.choice(MUTATION_TOKENS) + sep + text[at:]
    words = [m.span() for m in re.finditer(r"\S+", text)]
    if kind == 1 and words:
        start, stop = rng.choice(words)
        return text[:start] + text[stop:]
    return text[: rng.randrange(len(text) + 1)]


def test_parse_mutation_digest():
    texts = [render_algebra(e.name, e.algebra) for e in build_catalog(4)]
    rng = random.Random(13)
    h = hashlib.sha256()
    for _ in range(MUTATIONS):
        text = rng.choice(texts)
        for _ in range(rng.randrange(1, 3)):
            text = _mutate(rng, text)
        try:
            outcome = repr(parse_algebra_file(text))
        except EngineError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        h.update(f"{outcome}\0".encode())
    assert h.hexdigest() == PARSE_MUTATION_DIGEST
