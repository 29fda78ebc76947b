"""The README's library quick tour and its command-line examples run as
written and give the results the README shows."""
from __future__ import annotations

import ast
import shlex
from pathlib import Path

from finalg import ElementSet, build_catalog, render_algebra
from finalg.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick tour"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def _shown(value) -> str:
    """How a comment in the tour writes a value: sets as `{0,2}`."""
    if isinstance(value, ElementSet):
        return str(value)
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_shown, value)) + ")"
    return repr(value)


def test_quick_tour_runs_and_matches_its_comments():
    source = _quick_tour()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = lines[stmt.end_lineno - 1].partition("  # ")[2].strip()
        if comment.endswith(", ...]"):
            assert _shown(value).startswith(comment[:-len("...]")])
        else:
            assert _shown(value) == comment
        checked.append(comment)
    assert checked == [
        "{0,2}",
        "({0,2}, 1)",
        "[(0, 0), (0, 2), (1, 1), ...]",
        "True",
        "1",
        "'PASS maltsev 729 0'",
    ]


def _cli_examples() -> list[tuple[list[str], str]]:
    """Each `$ finalg …` line of the command-line section, split into words,
    with the lines the README shows under it, up to a blank line or the end
    of its block."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command-line interface"):text.index("## Library quick tour")]
    examples = []
    for block in section.split("```sh\n")[1:]:
        for example in block[:block.index("```")].split("\n\n"):
            command, _, shown = example.partition("\n")
            if command.startswith("$ finalg "):
                examples.append((shlex.split(command)[2:], shown.rstrip("\n") + "\n"))
    return examples


def test_cli_examples_print_what_the_readme_shows(tmp_path, capsys):
    z4_ring = next(e for e in build_catalog(4) if e.name == "z4-ring")
    path = tmp_path / "z4-ring.ua"
    path.write_text(render_algebra(z4_ring.name, z4_ring.algebra))
    examples = _cli_examples()
    for argv, shown in examples:
        argv = [str(path) if word == "z4-ring.ua" else word for word in argv]
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == shown, argv
    assert [argv[0] for argv, _ in examples] == ["ind", "rank", "normal", "chain", "verify"]
