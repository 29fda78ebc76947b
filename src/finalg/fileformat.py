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

from .algebra import FiniteAlgebra, Signature
from .errors import ParseError, ValueOutOfRange

_KEYWORDS = {"algebra", "size", "op", "const", "top", "end"}


@dataclass(frozen=True)
class AlgebraFile:
    """Parsed description: name plus the validated algebra."""

    name: str
    algebra: FiniteAlgebra


def _words(text: str) -> list[str]:
    """The tokens: whitespace-separated words of every non-comment line."""
    return [
        word
        for line in text.splitlines()
        if not line.lstrip().startswith("#")
        for word in line.split()
    ]


def overlong_digits(word: str) -> int:
    """The digit count of `word` when it is a decimal numeral, signed or
    not, that `int` refuses, which it does only past its digit limit
    (`sys.get_int_max_str_digits`); else 0."""
    digits = word.strip()
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    if digits.isdecimal():
        try:
            int(digits)
        except ValueError:
            return len(digits)
    return 0


def _positions(text: str) -> list[tuple[int, int]]:
    """(line, col) of every token of `_words`; only an error needs them."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("#"):
            continue
        col = 0
        for piece in line.split():
            col = line.index(piece, col)
            out.append((lineno, col + 1))
            col += len(piece)
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.words = _words(text)
        self.pos = 0

    def _error(self, message: str, at: int | None = None,
               kind=ParseError) -> ParseError | ValueOutOfRange:
        """A `kind` error at token `at` (default: the next one), with its line:col."""
        at = self.pos if at is None else at
        if at < len(self.words):
            return kind(message, *_positions(self.text)[at])
        if self.words:
            line, col = _positions(self.text)[-1]
            return kind(message + " (at end of input)", line, col + len(self.words[-1]))
        return kind(message + " (empty input)", 1, 1)

    def _last(self, message: str, kind=ParseError) -> ParseError | ValueOutOfRange:
        """A `kind` error at the token just taken."""
        return self._error(message, self.pos - 1, kind)

    def peek(self) -> str | None:
        if self.pos < len(self.words):
            return self.words[self.pos]
        return None

    def take(self) -> str:
        if self.pos >= len(self.words):
            raise self._error("unexpected end of input")
        self.pos += 1
        return self.words[self.pos - 1]

    def expect(self, keyword: str) -> None:
        word = self.take()
        if word != keyword:
            raise self._last(f"expected {keyword!r}, found {word!r}")

    def name(self, what: str) -> str:
        word = self.take()
        if word in _KEYWORDS:
            raise self._last(f"expected {what}, found keyword {word!r}")
        return word

    def integer(self, what: str) -> int:
        word = self.take()
        try:
            return int(word)
        except ValueError:
            if digits := overlong_digits(word):
                raise self._last(f"{what} of {digits} digits is too large",
                                 ValueOutOfRange) from None
            raise self._last(f"expected {what}, found {word!r}") from None

    def element(self, what: str, label: str, size: int) -> int:
        """An integer that must name an element of a carrier of this size."""
        value = self.integer(what)
        if not 0 <= value < size:
            raise self._last(f"{label} {value} outside carrier of size {size}", ValueOutOfRange)
        return value

    def table(self, size: int, count: int) -> tuple[int, ...]:
        """The next `count` tokens as table entries, read and checked as one slice;
        on any fault `element` re-reads them and raises the first error."""
        try:
            values = tuple(map(int, self.words[self.pos : self.pos + count]))
        except ValueError:
            values = ()
        if len(values) == count and 0 <= min(values) and max(values) < size:
            self.pos += count
            return values
        return tuple([self.element("table entry", "table entry", size) for _ in range(count)])


def parse_algebra_file(text: str) -> AlgebraFile:
    """Parse a description; total-or-error with line:col diagnostics."""
    p = _Parser(text)
    p.expect("algebra")
    name = p.name("algebra name")
    p.expect("size")
    size = p.integer("carrier size")
    if size < 1:
        raise p._last("carrier size must be at least 1")
    symbols: list[tuple[str, int]] = []
    tables: list[tuple[int, ...]] = []
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
            arity = p.integer("arity")
            if arity < 0:
                raise p._last("arity must be non-negative")
            symbols.append((op_name, arity))
            # past the tokens' bit length size**arity outruns them: the table
            # fails at or before its last token, and the power is not computed
            left = len(p.words) - p.pos
            big = size > 1 and arity > left.bit_length()
            tables.append(p.table(size, left + 1 if big else size**arity))
        elif word == "const":
            p.take()
            const_name = p.name("constant name")
            symbols.append((const_name, 0))
            tables.append((p.element("constant value", "constant", size),))
        elif word == "top":
            at = p.pos
            p.take()
            value = p.element("top element", "top element", size)
            if top is not None:
                raise p._error("top declared twice", at)
            top = value
        else:
            raise p._error(f"expected 'op', 'const', 'top' or 'end', found {word!r}")
    if p.peek() is not None:
        raise p._error(f"trailing content after 'end': {p.peek()!r}")
    # every table has size**arity entries, each in range, and the top is in
    # range: all `make_algebra` would check but the repeated name
    algebra = FiniteAlgebra(Signature(tuple(symbols)), size, tuple(tables), top)
    return AlgebraFile(name, algebra)


def parse_algebra(text: str) -> FiniteAlgebra:
    return parse_algebra_file(text).algebra


def _check_name(what: str, name: str) -> None:
    """Refuse a name the parser would not read back as that one name: an
    empty one, a keyword, or one holding whitespace."""
    if name in _KEYWORDS or name.split() != [name]:
        raise ValueOutOfRange(
            f"cannot render {what} {name!r}: a name must be one word and not a keyword")


def render_algebra(name: str, algebra: FiniteAlgebra) -> str:
    """Canonical text form: one table row per line, constants as const lines.
    Every name is checked before any text is built."""
    _check_name("algebra name", name)
    for op_name, arity, _ in algebra.ops():
        _check_name("constant name" if arity == 0 else "operation name", op_name)
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
