"""Plain-text algebra format: parsing, diagnostics, canonical rendering."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finalg import (
    build_catalog,
    make_algebra,
    parse_algebra,
    parse_algebra_file,
    render_algebra,
)
from finalg.errors import DuplicateSymbol, EngineError, ParseError, ValueOutOfRange

Z2_TEXT = "algebra z2\nsize 2\nop add 2\n0 1 1 0\nconst zero 0\ntop 0\nend"


@st.composite
def small_algebras(draw):
    size = draw(st.integers(1, 3))
    op_count = draw(st.integers(1, 3))
    symbols = []
    tables = {}
    for i in range(op_count):
        arity = draw(st.integers(0, 2))
        name = f"f{i}"
        symbols.append((name, arity))
        tables[name] = draw(
            st.lists(
                st.integers(0, size - 1),
                min_size=size**arity,
                max_size=size**arity,
            )
        )
    top = draw(st.one_of(st.none(), st.integers(0, size - 1)))
    return make_algebra(symbols, size, tables, top)


class TestParsing:
    def test_z2_example(self):
        parsed = parse_algebra_file(Z2_TEXT)
        assert parsed.name == "z2"
        alg = parsed.algebra
        assert alg.size == 2
        assert alg.apply("add", 1, 1) == 0
        assert alg.apply("zero") == 0
        assert alg.top == 0

    def test_const_is_arity_zero_op(self):
        alg = parse_algebra("algebra a\nsize 2\nconst c 1\nend")
        assert alg.sig.arity("c") == 0
        assert alg.constants() == (1,)

    def test_comments_and_free_whitespace(self):
        text = (
            "# leading comment\n"
            "algebra   spaced\n"
            "size 2\n"
            "op add 2\n"
            "0 1\n"
            "# interleaved comment\n"
            "1 0\n"
            "end\n"
        )
        alg = parse_algebra(text)
        assert alg.apply("add", 1, 0) == 1

    def test_table_split_across_lines(self):
        alg = parse_algebra("algebra a\nsize 2\nop f 2\n0\n1\n1\n0\nend")
        assert alg.apply("f", 1, 1) == 0

    def test_no_top_is_allowed(self):
        alg = parse_algebra("algebra a\nsize 2\nop f 1\n1 0\nend")
        assert alg.top is None


class TestDiagnostics:
    def test_missing_end(self):
        with pytest.raises(ParseError, match="end"):
            parse_algebra("algebra a\nsize 2\nop f 1\n0 1")

    def test_table_entry_out_of_range_carries_position(self):
        text = "algebra a\nsize 2\nop f 1\n0 2\nend"
        with pytest.raises(ValueOutOfRange) as exc:
            parse_algebra(text)
        assert exc.value.line == 4
        assert exc.value.col == 3
        assert "4:3" in str(exc.value)

    def test_top_declared_twice(self):
        with pytest.raises(ParseError, match="twice"):
            parse_algebra("algebra a\nsize 2\nconst c 0\ntop 0\ntop 1\nend")

    def test_top_out_of_range(self):
        with pytest.raises(ValueOutOfRange):
            parse_algebra("algebra a\nsize 2\nconst c 0\ntop 2\nend")

    def test_const_out_of_range(self):
        with pytest.raises(ValueOutOfRange):
            parse_algebra("algebra a\nsize 2\nconst c 5\nend")

    def test_trailing_content(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_algebra("algebra a\nsize 1\nconst c 0\nend extra")

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="oops"):
            parse_algebra("algebra a\nsize 1\noops\nend")

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty input"):
            parse_algebra("")

    def test_non_integer_where_integer_expected(self):
        with pytest.raises(ParseError, match="carrier size"):
            parse_algebra("algebra a\nsize big\nend")

    def test_size_must_be_positive(self):
        with pytest.raises(ParseError):
            parse_algebra("algebra a\nsize 0\nend")

    def test_negative_arity(self):
        with pytest.raises(ParseError, match="non-negative"):
            parse_algebra("algebra a\nsize 2\nop f -1\nend")

    def test_keyword_where_name_expected(self):
        with pytest.raises(ParseError, match="keyword"):
            parse_algebra("algebra size\nsize 2\nend")

    def test_duplicate_operation(self):
        with pytest.raises(DuplicateSymbol):
            parse_algebra("algebra a\nsize 2\nconst c 0\nconst c 1\nend")

    def test_truncated_table(self):
        with pytest.raises(ParseError):
            parse_algebra("algebra a\nsize 2\nop f 2\n0 1 1\nend")


class TestExactDiagnostics:
    """The exception type and its full message, `line:col` included."""

    @pytest.mark.parametrize(
        "text, kind, message",
        [
            pytest.param(
                "algebra a\nsize 3\nop f 2\n0 1 2\n# note\n1 x 0\n2 0 1\nend\n",
                ParseError, "6:3: expected table entry, found 'x'",
                id="non-integer-after-comment-line",
            ),
            pytest.param(
                "algebra a\nsize 3\nop f 1\n0 0 7\nend\n",
                ValueOutOfRange, "4:5: table entry 7 outside carrier of size 3",
                id="out-of-range-after-repeated-token",
            ),
            pytest.param(
                "algebra a\nsize 3\nop f 1\n0 1\nend\n",
                ParseError, "5:1: expected table entry, found 'end'",
                id="keyword-inside-table",
            ),
            pytest.param(
                "algebra a\nsize 2\nop f 2\n0 1\n1",
                ParseError, "5:2: unexpected end of input (at end of input)",
                id="end-of-input-inside-table",
            ),
            pytest.param(
                "algebra a\nsize 2\nop f 2\n0 1\n1 # 0\nend\n",
                ParseError, "5:3: expected table entry, found '#'",
                id="hash-inside-line-is-a-token",
            ),
            pytest.param(
                "algebra a\nsize 2\n  # c\nop f 1\n1 0 # x\nend\n",
                ParseError, "5:5: expected 'op', 'const', 'top' or 'end', found '#'",
                id="hash-after-table",
            ),
            pytest.param(
                "algebra a\nsize 2\nop f 2\n\t0\t1\n\t1\t9\nend\n",
                ValueOutOfRange, "5:4: table entry 9 outside carrier of size 2",
                id="tab-indented-rows",
            ),
            pytest.param(
                "algebra a\nsize 4\nop f 1\n+1 \u0663 1_0 0\nend\n",
                ValueOutOfRange, "4:6: table entry 10 outside carrier of size 4",
                id="entry-read-by-int",
            ),
        ],
    )
    def test_refusal(self, text, kind, message):
        with pytest.raises(EngineError) as exc:
            parse_algebra(text)
        assert type(exc.value) is kind
        assert str(exc.value) == message

    def test_tab_indented_rows_parse(self):
        alg = parse_algebra("algebra a\nsize 2\nop f 2\n\t0\t1\n\t1\t0\nend\n")
        assert alg.tables == ((0, 1, 1, 0),)

    def test_entries_read_by_int(self):
        alg = parse_algebra("algebra a\nsize 4\nop f 1\n+1 \u0663 0 0_1\nend\n")
        assert alg.tables == ((1, 3, 0, 1),)

    @pytest.mark.parametrize("text, message", [
        (f"algebra a\nsize {'1' * 5000}\nend\n",
         "2:6: carrier size of 5000 digits is too large"),
        (f"algebra a\nsize 2\nop f -{'0' * 4301}\nend\n",
         "3:6: arity of 4301 digits is too large"),
        (f"algebra a\nsize 2\nop f 1\n0 +{'1' * 5000}\nend\n",
         "4:3: table entry of 5000 digits is too large"),
        (f"algebra a\nsize 2\ntop {'0' * 4301}\nend\n",
         "3:5: top element of 4301 digits is too large"),
    ], ids=["size", "signed-arity", "table-entry", "top"])
    def test_overlong_numeral_is_refused_by_digit_count(self, text, message):
        # past `int`'s 4,300 digits: the numeral is not echoed
        with pytest.raises(ValueOutOfRange) as exc:
            parse_algebra(text)
        assert str(exc.value) == message

    def test_the_longest_numeral_int_reads_is_accepted(self):
        alg = parse_algebra(f"algebra a\nsize 2\nconst c {'0' * 4300}\nend\n")
        assert alg.tables == ((0,),)


class TestMakeAlgebraRefusals:
    @pytest.mark.parametrize("table, first", [([2, 7, -3], 7), ([2, -3, 7], -3)])
    def test_names_first_bad_entry(self, table, first):
        with pytest.raises(ValueOutOfRange) as exc:
            make_algebra([("f", 1)], 3, {"f": table})
        assert str(exc.value) == f"table entry {first} outside carrier of size 3"


class TestRendering:
    def test_canonical_z2_rendering(self):
        alg = parse_algebra(Z2_TEXT)
        assert render_algebra("z2", alg) == (
            "algebra z2\n"
            "size 2\n"
            "op add 2\n"
            "0 1\n"
            "1 0\n"
            "const zero 0\n"
            "top 0\n"
            "end\n"
        )

    def test_round_trip_on_catalog(self):
        for entry in build_catalog(4):
            text = render_algebra(entry.name, entry.algebra)
            parsed = parse_algebra_file(text)
            assert parsed.name == entry.name
            assert parsed.algebra == entry.algebra

    def test_round_trip_builds_the_catalog_algebra(self):
        # the parser builds the algebra from the tables it has checked; it
        # must equal the catalog's, built by `make_algebra`, field by field
        for entry in build_catalog(8):
            parsed = parse_algebra_file(render_algebra(entry.name, entry.algebra)).algebra
            assert parsed == entry.algebra, entry.name
            assert all(type(table) is tuple for table in parsed.tables), entry.name

    @given(small_algebras())
    def test_round_trip_random(self, alg):
        assert parse_algebra(render_algebra("t", alg)) == alg

    @pytest.mark.parametrize("name", ["#f", "1", "end1"])
    def test_unusual_names_round_trip(self, name):
        alg = make_algebra([(name, 1), (name + "c", 0)], 2, {name: [1, 0], name + "c": [0]})
        parsed = parse_algebra_file(render_algebra(name, alg))
        assert (parsed.name, parsed.algebra) == (name, alg)

    @pytest.mark.parametrize("name", ["end", "op", "a b", "", "x\ty", "x\u2028y"],
                             ids=["end", "op", "space", "empty", "tab", "line-separator"])
    @pytest.mark.parametrize("where", ["algebra", "operation", "constant"])
    def test_unreadable_name_is_refused(self, name, where):
        ops = {"operation": [(name, 1), ("c", 0)], "constant": [("f", 1), (name, 0)]}
        sig = ops.get(where, [("f", 1), ("c", 0)])
        alg = make_algebra(sig, 2, {sig[0][0]: [1, 0], sig[1][0]: [0]})
        title = name if where == "algebra" else "a"
        with pytest.raises(ValueOutOfRange) as exc:
            render_algebra(title, alg)
        assert str(exc.value) == \
            f"cannot render {where} name {name!r}: a name must be one word and not a keyword"
