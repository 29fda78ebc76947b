"""The README's library quick tour runs as written and gives the results its
comments show."""
from __future__ import annotations

import ast
from pathlib import Path

from finalg import ElementSet

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
