"""Command-line surface: golden outputs and exit codes, in-process."""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finalg
from finalg import ElementSet, build_catalog, parse_algebra_file, render_algebra
from finalg import cli
from finalg.catalog import cyclic_monoid, cyclic_ring
from finalg.cli import build_parser, main
from finalg.errors import EngineError


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("algebras")
    out = {}
    for entry in build_catalog(4):
        if entry.name in {"z4-ring", "bool-semiring", "z4-monoid", "z4-group"}:
            path = root / f"{entry.name}.ua"
            path.write_text(render_algebra(entry.name, entry.algebra))
            out[entry.name] = str(path)
    no_top = root / "no-top.ua"
    no_top.write_text("algebra bare\nsize 2\nop f 1\n1 0\nend\n")
    out["no-top"] = str(no_top)
    bad = root / "broken.ua"
    bad.write_text("algebra broken\nsize 2\nop f 1\n0 7\nend\n")
    out["broken"] = str(bad)
    return out


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStepCommands:
    def test_induction_fixpoint_golden(self, files, capsys):
        code, out, _ = run(capsys, "ind", files["z4-ring"], "--set", "2", "--fixpoint")
        assert code == 0
        assert out == "{0,2}\n{2} ⊂ {0,2}\n"

    def test_deduction_fixpoint_golden(self, files, capsys):
        code, out, _ = run(capsys, "ded", files["bool-semiring"], "--set", "1", "--fixpoint")
        assert code == 0
        assert out == "{0,1}\n{1} ⊂ {0,1}\n"

    def test_zero_steps_echoes_input(self, files, capsys):
        code, out, _ = run(capsys, "ind", files["z4-monoid"], "--set", "1", "--steps", "0")
        assert code == 0
        assert out == "{1}\n{1}\n"

    def test_default_is_one_step(self, files, capsys):
        code, out, _ = run(capsys, "ded", files["bool-semiring"], "--set", "1")
        assert code == 0
        assert out.splitlines()[0] == "{0,1}"

    def test_empty_set_spelling(self, files, capsys):
        code, out, _ = run(capsys, "ind", files["z4-monoid"], "--set", "-")
        assert code == 0
        assert out == "{}\n{}\n"

    def test_negative_steps_rejected(self, files, capsys):
        code, out, err = run(capsys, "ind", files["z4-monoid"], "--set", "1", "--steps", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: --steps must be non-negative\n"

    def test_chain_past_the_print_cap(self):
        # 33 stages print the first 32, then "..."
        stages = [ElementSet.of(33, range(k)) for k in range(33)]
        assert cli.CHAIN_PRINT_CAP == 32
        assert cli._format_chain(stages) == " ⊂ ".join([*map(str, stages[:32]), "..."])
        assert cli._format_chain(stages[:32]) == " ⊂ ".join(map(str, stages[:32]))

    def test_steps_and_fixpoint_conflict(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ind", files["z4-monoid"], "--set", "1", "--steps", "2", "--fixpoint"])
        assert exc.value.code == 2


class TestPointCommands:
    def test_clot(self, files, capsys):
        code, out, _ = run(capsys, "clot", files["bool-semiring"], "--set", "1")
        assert code == 0
        assert out == "{0,1}\n"

    def test_clot_of_empty_set_is_top(self, files, capsys):
        code, out, _ = run(capsys, "clot", files["z4-ring"], "--set", "-")
        assert code == 0
        assert out == "{0}\n"

    def test_normal_and_not_normal(self, files, capsys):
        code, out, _ = run(capsys, "normal", files["bool-semiring"], "--set", "1")
        assert code == 0
        assert out == "not-normal {0,1}\n"
        code, out, _ = run(capsys, "normal", files["z4-ring"], "--set", "0,2")
        assert code == 0
        assert out == "normal {0,2}\n"

    def test_top_override(self, files, capsys):
        code, out, _ = run(capsys, "clot", files["no-top"], "--set", "-", "--top", "1")
        assert code == 0
        assert out == "{1}\n"


class TestRelationDumps:
    EXPECTED = "0 0\n0 2\n1 1\n1 3\n2 0\n2 2\n3 1\n3 3\n"

    def test_semicong_dump(self, files, capsys):
        code, out, _ = run(capsys, "semicong", files["z4-monoid"], "--set", "2")
        assert code == 0
        assert out == self.EXPECTED

    def test_cong_dump(self, files, capsys):
        code, out, _ = run(capsys, "cong", files["z4-monoid"], "--set", "2")
        assert code == 0
        assert out == self.EXPECTED

    def test_semicong_empty_set_is_diagonal(self, files, capsys):
        code, out, _ = run(capsys, "semicong", files["z4-monoid"], "--set", "-")
        assert code == 0
        assert out == "0 0\n1 1\n2 2\n3 3\n"


class TestRank:
    def test_rank_golden(self, files, capsys):
        code, out, _ = run(capsys, "rank", files["bool-semiring"], "--mode", "ded")
        assert code == 0
        assert out == "rank 1\nwitness {1}\n{1} ⊂ {0,1}\n"

    def test_rank_zero(self, files, capsys):
        code, out, _ = run(capsys, "rank", files["bool-semiring"], "--mode", "ind")
        assert code == 0
        assert out.splitlines()[0] == "rank 0"

    def test_rank_budget_exceeded(self, files, capsys):
        code, out, _ = run(capsys, "rank", files["z4-group"], "--mode", "ind", "--max-n", "0")
        assert code == 0
        assert out.splitlines()[0] == "rank exceeded 0"

    def test_negative_budget_rejected(self, files, capsys):
        code, out, err = run(capsys, "rank", files["z4-group"], "--mode", "ind", "--max-n", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: --max-n must be non-negative\n"


class TestVerify:
    def test_passing_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "theorem-a")
        assert code == 0
        assert out == "PASS theorem-a 209 0\n"

    def test_failing_suite_exits_one(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "theorem-b")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "FAIL theorem-b 209 67"
        assert len(lines) == 68
        assert lines[1].startswith("fail algebra=z2-monoid set={1}")

    def test_limit_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "theorem-a", "--limit", "2")
        assert code == 0
        assert out.startswith("PASS theorem-a ")

    def test_limit_above_sixteen_is_refused(self, capsys, monkeypatch):
        # refused before any catalog entry is built; nat-chain has no catalog
        def no_entry(*args, **tags):
            raise AssertionError("an entry was built")

        monkeypatch.setattr(finalg.catalog, "_entry", no_entry)
        code, out, err = run(capsys, "verify", "--suite", "theorem-a", "--limit", "17")
        assert (code, out, err) == (2, "", "error: catalog limit must be at most 16\n")
        code, out, _ = run(capsys, "verify", "--suite", "nat-chain", "--limit", "17")
        assert code == 0 and out.startswith("PASS nat-chain ")

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "bogus")
        assert code == 2
        assert "unknown suite" in err

    def test_nat_chain_suite_with_config(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "nat-chain", "--primes", "2,3,5", "--depth", "2"
        )
        assert code == 0
        assert out.startswith("PASS nat-chain 5 0")

    def test_nat_chain_past_its_truncation(self, capsys):
        # depth 4 on two primes: stage 2 repeats stage 1 and is checked once
        code, out, _ = run(
            capsys, "verify", "--suite", "nat-chain", "--primes", "2,3", "--depth", "4"
        )
        assert (code, out) == (0, "PASS nat-chain 4 0\n")

    @pytest.mark.parametrize("argv, expected", [
        (("verify", "--suite", "nat-chain"), "PASS nat-chain 4 0\n"),
        (("chain",), "{2,6}\n{1,2,3,6}\n{1,2,3,6}\n"),
    ], ids=["verify", "chain"])
    def test_nat_chain_huge_depth_ends_at_the_fixpoint(self, argv, expected):
        # a fresh process, killed if still running after 10 s: the chain ends
        # at stage 2, which repeats stage 1, whatever the depth
        proc = subprocess.run(
            [sys.executable, "-m", "finalg", *argv, "--primes", "2,3", "--depth", "100000000"],
            capture_output=True, text=True, env=_fresh_env(), timeout=10,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")

    def test_empty_prime_list_is_refused(self, capsys):
        # as `chain` refuses it, not replaced by the default primes
        code, out, err = run(capsys, "verify", "--suite", "nat-chain", "--primes", "")
        assert (code, out, err) == (
            2, "", "error: malformed prime list '': use comma-separated integers\n"
        )


M61 = 2**61 - 1  # a Mersenne prime


class TestChain:
    def test_golden_stages(self, capsys):
        code, out, _ = run(capsys, "chain", "--primes", "2,3,5,7", "--depth", "3")
        assert code == 0
        assert out == (
            "{2,6,15,35}\n"
            "{1,2,3,6,15,35}\n"
            "{1,2,3,5,6,15,35}\n"
            "{1,2,3,5,6,7,15,35}\n"
        )

    def test_nonprime_rejected(self, capsys):
        code, _, err = run(capsys, "chain", "--primes", "2,9", "--depth", "1")
        assert code == 2
        assert "not prime" in err

    def test_malformed_primes(self, capsys):
        code, _, err = run(capsys, "chain", "--primes", "2,x", "--depth", "1")
        assert code == 2
        assert "malformed" in err

    @pytest.mark.parametrize("command, accepted", [
        (["chain"], f"{{2,{2 * M61}}}\n" + f"{{1,2,{M61},{2 * M61}}}\n" * 2),
        (["verify", "--suite", "nat-chain"], "PASS nat-chain 4 0\n"),
    ], ids=["chain", "verify"])
    @pytest.mark.parametrize("prime, code, err", [
        (M61, 0, ""),
        (M61 + 2, 2, f"error: {M61 + 2} is not prime\n"),
        (10**39 + 3, 2, f"error: {10**39 + 3} is too large: primes must be below "
                        "3317044064679887385961981\n"),
    ], ids=["2^61-1", "2^61+1", "10^39+3"])
    def test_large_prime_ends(self, command, accepted, prime, code, err):
        # a fresh process, killed if still running after 10 s; stdout is
        # `accepted` for the prime and empty for a refusal
        proc = subprocess.run(
            [sys.executable, "-m", "finalg", *command, "--primes", f"2,{prime}", "--depth", "2"],
            capture_output=True, text=True, env=_fresh_env(), timeout=10,
        )
        out = accepted if code == 0 else ""
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    def test_first_hundred_primes(self):
        # a fresh process, killed if still running after 10 s; the stages
        # are pinned by the sha256 of stdout
        primes = [p for p in range(2, 542) if all(p % d for d in range(2, p))]
        assert len(primes) == 100
        proc = subprocess.run(
            [sys.executable, "-m", "finalg", "chain", "--primes", ",".join(map(str, primes)),
             "--depth", "1000"],
            capture_output=True, env=_fresh_env(), timeout=10,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert hashlib.sha256(proc.stdout).hexdigest() == \
            "dda4b1aeafb77dc99ef7746829e5dd0ac16e4b1e216c1f906306979eec6f37ef"


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "ind", "/nonexistent/f.ua", "--set", "1")
        assert code == 2
        assert err.startswith("error:")

    def test_missing_top(self, files, capsys):
        code, _, err = run(capsys, "ind", files["no-top"], "--set", "1")
        assert code == 2
        assert "top" in err

    def test_malformed_set(self, files, capsys):
        code, _, err = run(capsys, "ind", files["z4-monoid"], "--set", "1,x")
        assert code == 2
        assert "malformed set" in err

    def test_set_element_out_of_range(self, files, capsys):
        code, _, err = run(capsys, "ind", files["z4-monoid"], "--set", "9")
        assert code == 2
        assert "outside carrier" in err

    def test_parse_error_in_file(self, files, capsys):
        code, _, err = run(capsys, "ind", files["broken"], "--set", "1")
        assert code == 2
        assert "4:3" in err

    def test_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin.ua"
        path.write_bytes(b"algebra \xff\xfe\nsize 2\nop f 1\n1 0\ntop 0\nend\n")
        code, out, err = run(capsys, "ind", str(path), "--set", "1")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path} is not UTF-8 text: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("body", ["op f 1\n1 0\nop f 1\n0 1\n", "op f 1\n1 0\nconst f 0\n"],
                             ids=["op-repeated", "const-repeats-op"])
    def test_duplicate_symbol(self, tmp_path, capsys, body):
        path = tmp_path / "dup.ua"
        path.write_text(f"algebra dup\nsize 2\n{body}top 0\nend\n")
        assert run(capsys, "clot", str(path), "--set", "1") == \
            (2, "", "error: duplicate operation symbol 'f'\n")

    def test_duplicate_symbol_is_refused_after_the_whole_file(self, tmp_path, capsys):
        path = tmp_path / "dup.ua"
        path.write_text("algebra dup\nsize 2\nop f 1\n1 0\nconst f 0\ntop 5\nend\n")
        assert run(capsys, "clot", str(path), "--set", "1") == \
            (2, "", "error: 6:5: top element 5 outside carrier of size 2\n")

    def test_huge_arity_fails_at_the_table_end(self, tmp_path):
        # 10**20000000 entries are never counted: the table fails at 'end'
        path = tmp_path / "huge.ua"
        path.write_text("algebra huge\nsize 10\nop f 20000000\n0\nend\n")
        proc = subprocess.run(
            [sys.executable, "-m", "finalg", "semicong", str(path), "--set", "0"],
            capture_output=True, text=True, env=_fresh_env(), timeout=10,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (2, "", "error: 5:1: expected table entry, found 'end'\n")


def _load_text_mode(path: str):
    # the file read in text mode, universal newlines: the reference for `_load`
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise EngineError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_algebra_file(text).algebra


def _line_ends(text: str, *ends: bytes) -> bytes:
    """`text` encoded, its line ends taken in turn from `ends`."""
    *lines, last = text.encode().split(b"\n")
    return b"".join(line + ends[i % len(ends)] for i, line in enumerate(lines)) + last


Z4_RING = render_algebra("z4-ring", cyclic_ring(4).algebra)
# the second row of `add` with 3 read as 7: refused at 5:5
Z4_FAULT = Z4_RING.replace("\n1 2 3 0\n", "\n1 2 7 0\n", 1)
Z4_CRLF = _line_ends(Z4_RING, b"\r\n")
BOM = "\ufeff".encode()
FAULT = "error: 5:5: table entry 7 outside carrier of size 4\n"
NOT_UTF8 = "error: {path} is not UTF-8 text: 'utf-8' codec can't decode byte "
READING_CASES = {
    "crlf": (Z4_CRLF, 0, ""),
    "cr": (_line_ends(Z4_RING, b"\r"), 0, ""),
    "mixed": (_line_ends(Z4_RING, b"\r\n", b"\r", b"\n"), 0, ""),
    "fault-crlf": (_line_ends(Z4_FAULT, b"\r\n"), 2, FAULT),
    "fault-cr": (_line_ends(Z4_FAULT, b"\r"), 2, FAULT),
    "fault-mixed": (_line_ends(Z4_FAULT, b"\r\n", b"\r", b"\n"), 2, FAULT),
    "bom": (BOM + Z4_RING.encode(), 2,
            "error: 1:1: expected 'algebra', found '\\ufeffalgebra'\n"),
    "bad-first-byte": (b"\xff" + Z4_RING.encode(), 2,
                       NOT_UTF8 + "0xff in position 0: invalid start byte\n"),
    "bad-middle-byte": (Z4_RING[:40].encode() + b"\xc3(" + Z4_RING[40:].encode(), 2,
                        NOT_UTF8 + "0xc3 in position 40: invalid continuation byte\n"),
    "bad-last-byte": (Z4_CRLF + b"\xe2", 2,
                      NOT_UTF8 + f"0xe2 in position {len(Z4_CRLF)}: unexpected end of data\n"),
}


class TestReading:
    """`_load` decodes the file's bytes once. Line ends, a byte order mark and
    bytes that are not UTF-8 give what a text-mode read gives."""

    @pytest.mark.parametrize("name", READING_CASES)
    def test_same_as_a_text_mode_read(self, tmp_path, capsys, monkeypatch, name):
        data, code, err = READING_CASES[name]
        path = tmp_path / f"{name}.ua"
        path.write_bytes(data)
        argv = ("semicong", str(path), "--set", "1")
        got = run(capsys, *argv)
        monkeypatch.setattr(cli, "_load", _load_text_mode)
        assert got == run(capsys, *argv)
        assert got[0] == code
        if code:
            assert got[1:] == ("", err.format(path=path))
        else:
            plain = tmp_path / "plain.ua"
            plain.write_text(Z4_RING)
            assert got == run(capsys, "semicong", str(plain), "--set", "1")


class TestRefusalOrder:
    """Where two faults coincide, the first one reported is the file, then
    the top, then the set, then the subcommand's own flags, and only then
    the engine's refusals."""

    @pytest.fixture
    def paths(self, files, tmp_path):
        big = tmp_path / "z17-monoid.ua"
        big.write_text(render_algebra("z17-monoid", cyclic_monoid(17).algebra))
        return dict(files, big=str(big), missing=str(tmp_path / "missing.ua"))

    @pytest.mark.parametrize("argv, message", [
        (("ind", "z4-ring", "--top", "9", "--set", "7", "--steps", "-1"),
         "top element 9 outside carrier of size 4"),
        (("ind", "z4-ring", "--set", "7", "--steps", "-1"),
         "element 7 outside carrier of size 4"),
        (("ind", "z4-ring", "--set", "1,x", "--steps", "-1"),
         "malformed set '1,x': use comma-separated integers or '-'"),
        (("semicong", "z4-ring", "--top", "9", "--set", "-"),
         "top element 9 outside carrier of size 4"),
        (("normal", "no-top", "--set", "7"),
         "no top element: give --top or declare top in the file"),
        (("rank", "big", "--mode", "ind"),
         "carrier size 17 exceeds enumeration limit 16"),
        (("rank", "big", "--mode", "ind", "--top", "99"),
         "top element 99 outside carrier of size 17"),
        (("rank", "big", "--mode", "ind", "--top", "99", "--max-n", "-1"),
         "top element 99 outside carrier of size 17"),
        (("rank", "big", "--mode", "ind", "--max-n", "-1"),
         "--max-n must be non-negative"),
        (("ded", "missing", "--top", "9", "--set", "x"),
         "[Errno 2] No such file or directory: '{missing}'"),
        (("rank", "missing", "--mode", "ded", "--top", "99", "--max-n", "-1"),
         "[Errno 2] No such file or directory: '{missing}'"),
    ])
    def test_first_fault_is_reported(self, paths, capsys, argv, message):
        code, out, err = run(capsys, *(paths.get(arg, arg) for arg in argv))
        assert (code, out, err) == (2, "", f"error: {message.format(**paths)}\n")


def _fresh_env():
    src = str(Path(finalg.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))


class TestOneProcess:
    def test_shared_parser_matches_fresh_processes(self, files, capsys):
        # the parser is built once per process; later calls, a usage error
        # among them, must print what a fresh process prints
        calls = [
            ["ind", files["z4-ring"], "--set", "2", "--fixpoint"],
            ["clot", files["bool-semiring"], "--set", "1"],
            ["normal", files["z4-ring"], "--set", "0,2"],
            ["cong", files["z4-monoid"], "--set", "2"],
            ["ind", files["z4-monoid"], "--steps", "2"],
            ["rank", files["z4-group"], "--mode", "ded"],
            ["ded", files["z4-monoid"], "--set", "9"],
            ["verify", "--suite", "nat-chain", "--depth", "2"],
            ["ind", files["z4-ring"], "--set", "2", "--fixpoint"],
        ]
        assert build_parser() is build_parser()
        codes = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            codes.append(code)
            captured = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "finalg", *argv], capture_output=True,
                                   text=True, env=_fresh_env(), timeout=120)
            assert (code, captured.out, captured.err) == \
                (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert codes == [0, 0, 0, 0, 2, 0, 2, 0, 0]

    def test_usage_errors_and_help_match_fresh_processes(self, files, capsys, monkeypatch):
        # a request naming a subcommand is parsed by that subcommand's parser
        # alone; a word left over, no subcommand or an unknown one go through
        # the whole parser. Either way a fresh process prints the same, and
        # so does this process with every request sent through the whole parser
        monkeypatch.setenv("COLUMNS", "80")  # -h wraps at the terminal width
        calls = [
            ["clot", files["z4-ring"], "--set", "1", "extra"],
            ["bogus"],
            [],
            ["ind", "-h"],
            ["verify", "--suite", "theorem-a", "--bogus", "1"],
            ["clot", files["z4-ring"]],
            ["clot", files["z4-ring"], "--set", "1"],
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        got = [outcome(argv) for argv in calls]
        for argv, result in zip(calls, got):
            fresh = subprocess.run([sys.executable, "-m", "finalg", *argv], capture_output=True,
                                   text=True, env=_fresh_env(), timeout=120)
            assert result == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        parser = build_parser()
        monkeypatch.setattr(cli, "_parsers", lambda: (parser, {}))
        assert [outcome(argv) for argv in calls] == got
        assert [code for code, _, _ in got] == [2, 2, 2, 0, 2, 2, 0]


class TestModuleEntry:
    """`python -m finalg` and `python -m finalg.cli` run the same main()."""

    @pytest.mark.parametrize("module", ["finalg", "finalg.cli"])
    def test_failing_suite_exits_one(self, module):
        proc = subprocess.run(
            [sys.executable, "-m", module, "verify", "--suite", "theorem-b"],
            capture_output=True, text=True, env=_fresh_env(), timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout.splitlines()[0] == "FAIL theorem-b 209 67"
        assert proc.stderr == ""
