"""Plain-text algebra descriptions.

    algebra NAME
    size INT
    op NAME ARITY
    <size^ARITY integers, whitespace-separated, free line breaks>
    const NAME INT
    top INT
    # comment lines are skipped anywhere
    end

Tables are row-major with the leftmost argument varying slowest. `const` is
sugar for an arity-0 op. Canonical rendering emits one table row (last
argument sweep) per line.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import FiniteAlgebra, Signature, make_algebra
from .errors import ParseError, ValueOutOfRange

_KEYWORDS = {"algebra", "size", "op", "const", "top", "end"}


@dataclass(frozen=True)
class AlgebraFile:
    """Parsed description: name plus the validated algebra."""

    name: str
    algebra: FiniteAlgebra


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("#"):
            continue
        col = 0
        for piece in line.split():
            col = line.index(piece, col)
            out.append(_Token(piece, lineno, col + 1))
            col += len(piece)
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def _error(self, message: str) -> ParseError:
        if self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            return ParseError(message, tok.line, tok.col)
        if self.tokens:
            last = self.tokens[-1]
            return ParseError(message + " (at end of input)", last.line, last.col + len(last.text))
        return ParseError(message + " (empty input)", 1, 1)

    def peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos].text
        return None

    def take(self) -> _Token:
        if self.pos >= len(self.tokens):
            raise self._error("unexpected end of input")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, keyword: str) -> None:
        tok = self.take()
        if tok.text != keyword:
            raise ParseError(f"expected {keyword!r}, found {tok.text!r}", tok.line, tok.col)

    def name(self, what: str) -> str:
        tok = self.take()
        if tok.text in _KEYWORDS:
            raise ParseError(f"expected {what}, found keyword {tok.text!r}", tok.line, tok.col)
        return tok.text

    def integer(self, what: str) -> tuple[int, _Token]:
        tok = self.take()
        try:
            return int(tok.text), tok
        except ValueError:
            raise ParseError(f"expected {what}, found {tok.text!r}", tok.line, tok.col) from None

    def element(self, what: str, label: str, size: int) -> int:
        """An integer that must name an element of a carrier of this size."""
        value, tok = self.integer(what)
        if not 0 <= value < size:
            raise ValueOutOfRange(
                f"{label} {value} outside carrier of size {size}", tok.line, tok.col
            )
        return value


def parse_algebra_file(text: str) -> AlgebraFile:
    """Parse a description; total-or-error with line:col diagnostics."""
    p = _Parser(text)
    p.expect("algebra")
    name = p.name("algebra name")
    p.expect("size")
    size, size_tok = p.integer("carrier size")
    if size < 1:
        raise ParseError("carrier size must be at least 1", size_tok.line, size_tok.col)
    symbols: list[tuple[str, int]] = []
    tables: dict[str, list[int]] = {}
    top: int | None = None
    while True:
        word = p.peek()
        if word is None:
            raise p._error("expected 'end' before end of input")
        if word == "end":
            p.take()
            break
        if word == "op":
            p.take()
            op_name = p.name("operation name")
            arity, arity_tok = p.integer("arity")
            if arity < 0:
                raise ParseError("arity must be non-negative", arity_tok.line, arity_tok.col)
            symbols.append((op_name, arity))
            tables[op_name] = [p.element("table entry", "table entry", size)
                               for _ in range(size**arity)]
        elif word == "const":
            p.take()
            const_name = p.name("constant name")
            symbols.append((const_name, 0))
            tables[const_name] = [p.element("constant value", "constant", size)]
        elif word == "top":
            tok_kw = p.take()
            value = p.element("top element", "top element", size)
            if top is not None:
                raise ParseError("top declared twice", tok_kw.line, tok_kw.col)
            top = value
        else:
            tok = p.take()
            raise ParseError(
                f"expected 'op', 'const', 'top' or 'end', found {tok.text!r}",
                tok.line, tok.col,
            )
    if p.peek() is not None:
        tok = p.take()
        raise ParseError(f"trailing content after 'end': {tok.text!r}", tok.line, tok.col)
    algebra = make_algebra(Signature.of(*symbols), size, tables, top)
    return AlgebraFile(name, algebra)


def parse_algebra(text: str) -> FiniteAlgebra:
    return parse_algebra_file(text).algebra


def render_algebra(name: str, algebra: FiniteAlgebra) -> str:
    """Canonical text form: one table row per line, constants as const lines."""
    n = algebra.size
    lines = [f"algebra {name}", f"size {n}"]
    for op_name, arity, table in algebra.ops():
        if arity == 0:
            lines.append(f"const {op_name} {table[0]}")
            continue
        lines.append(f"op {op_name} {arity}")
        row_count = n ** (arity - 1)
        for r in range(row_count):
            row = table[r * n : (r + 1) * n]
            lines.append(" ".join(str(v) for v in row))
    if algebra.top is not None:
        lines.append(f"top {algebra.top}")
    lines.append("end")
    return "\n".join(lines) + "\n"
