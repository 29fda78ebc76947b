"""Command-line surface: golden outputs and exit codes, in-process."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import finalg
from finalg import build_catalog, render_algebra
from finalg.cli import build_parser, main


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
