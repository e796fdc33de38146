import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regexbias import grammar as gr
from regexbias.errors import GrammarError

from conftest import ast_shape, ast_to_pattern


class TestParse:
    def test_digit_union(self):
        text = 'DIGIT = "0"|"1"|"2"|"3"|"4"|"5"|"6"|"7"|"8"|"9";\nexport = DIGIT;'
        source = gr.parse_grammar(text)
        assert [name for name, _ in source.definitions] == ["DIGIT", "export"]
        digit = source.ast("DIGIT")
        assert isinstance(digit, gr.Union) and len(digit.children) == 10
        assert source.export_ast() is digit

    def test_reference_resolution(self):
        source = gr.parse_grammar('A = "x"; B = A A; export = B;')
        exported = source.export_ast()
        assert ast_shape(exported) == ast_shape(gr.Concat((gr.Literal("x"), gr.Literal("x"))))
        # a reference is the referenced definition's AST, shared, not copied
        assert exported.children[0] is exported.children[1] is source.ast("A")

    def test_empty_export_expression(self):
        with pytest.raises(GrammarError):
            gr.parse_grammar("export = ;")

    def test_missing_export(self):
        with pytest.raises(GrammarError, match="export"):
            gr.parse_grammar('A = "x";')

    def test_forward_reference_rejected(self):
        with pytest.raises(GrammarError, match="earlier"):
            gr.parse_grammar('A = B; B = "x"; export = A;')

    def test_self_reference_rejected(self):
        with pytest.raises(GrammarError):
            gr.parse_grammar('A = A; export = A;')

    def test_duplicate_name(self):
        with pytest.raises(GrammarError, match="duplicate"):
            gr.parse_grammar('A = "x"; A = "y"; export = A;')

    def test_error_carries_position(self):
        with pytest.raises(GrammarError) as err:
            gr.parse_grammar('A = "x";\nB = $;\nexport = A;')
        assert err.value.line == 2

    def test_comments_and_classes(self):
        text = '# header\nU = [A-C];  # trailing\nexport = U \\d;'
        source = gr.parse_grammar(text)
        exported = source.export_ast()
        assert isinstance(exported, gr.Concat)
        assert ast_shape(exported.children[0]) == ast_shape(gr.Class(("A", "B", "C")))
        assert ast_shape(exported.children[1]) == ast_shape(gr.Class(gr.DIGITS))

    def test_repeat_bounds(self):
        source = gr.parse_grammar('export = "a"{2,3};')
        node = source.export_ast()
        assert ast_shape(node) == ast_shape(gr.Repeat(gr.Literal("a"), 2, 3))
        with pytest.raises(GrammarError):
            gr.parse_grammar('export = "a"{3,2};')
        with pytest.raises(GrammarError):
            gr.parse_grammar('export = "a"{0,65};')

    def test_long_repeat_bound_is_typed(self):
        # int() raises an untyped ValueError on thousands of digits
        with pytest.raises(GrammarError, match="exceeds 64") as err:
            gr.parse_grammar('export = "a"{' + "9" * 5000 + "};")
        assert (err.value.line, err.value.column) == (1, 14)
        node = gr.parse_grammar('export = "a"{' + "0" * 5000 + "2};").export_ast()
        assert ast_shape(node) == ast_shape(gr.Repeat(gr.Literal("a"), 2, 2))

    def test_postfix_operators_are_repeats(self):
        for op, lo, hi in [("*", 0, None), ("+", 1, None), ("?", 0, 1)]:
            node = gr.parse_grammar(f'export = "a"{op};').export_ast()
            assert ast_shape(node) == ast_shape(gr.Repeat(gr.Literal("a"), lo, hi))

    def test_space_is_ordinary_symbol(self):
        source = gr.parse_grammar('export = "a b";')
        node = source.export_ast()
        assert ast_shape(node) == ast_shape(
            gr.Concat((gr.Literal("a"), gr.Literal(" "), gr.Literal("b"))))

    def test_quoted_escapes(self):
        source = gr.parse_grammar('export = "\\"\\\\";')
        node = source.export_ast()
        assert ast_shape(node) == ast_shape(gr.Concat((gr.Literal('"'), gr.Literal("\\"))))

    def test_unterminated_string(self):
        with pytest.raises(GrammarError, match="unterminated"):
            gr.parse_grammar('export = "abc;')

    def test_escaped_newline_does_not_continue_a_string(self):
        # a newline may not appear in a string even after a backslash, so the
        # error names the string's start and no later position is shifted
        with pytest.raises(GrammarError, match="unterminated string") as err:
            gr.parse_grammar('export = "a\\\nb" $;')
        assert (err.value.line, err.value.column) == (1, 10)
        with pytest.raises(GrammarError, match="unterminated character class"):
            gr.parse_grammar('export = [a\\\n];')

    def test_error_after_trailing_comment_points_at_end(self):
        with pytest.raises(GrammarError, match="found EOF") as err:
            gr.parse_grammar('export = "a" # done')
        assert (err.value.line, err.value.column) == (1, 20)

    def test_escaped_bracket_in_class(self):
        node = gr.parse_grammar('export = [\\]];').export_ast()
        assert ast_shape(node) == ast_shape(gr.Class(("]",)))
        node = gr.parse_grammar('export = [a\\]b];').export_ast()
        assert ast_shape(node) == ast_shape(gr.Class(("a", "]", "b")))

    def test_class_range_ending_in_escape(self):
        # a backslash escapes a range's upper end: X to ], not X to backslash
        node = gr.parse_grammar('export = [X-\\]];').export_ast()
        assert ast_shape(node) == ast_shape(gr.Class(tuple("XYZ[\\]")))
        node = gr.parse_grammar('export = [+-\\-];').export_ast()
        assert ast_shape(node) == ast_shape(gr.Class(("+", ",", "-")))
        with pytest.raises(GrammarError, match="backwards class range z-a"):
            gr.parse_grammar('export = [z-\\a];')


class TestDepthBound:
    def depth_error(self, text):
        with pytest.raises(GrammarError, match="deeper than") as err:
            gr.parse_grammar(text).export_ast()
        return err.value

    def test_nested_parentheses(self):
        ok = "export = " + "(" * (gr.MAX_DEPTH - 1) + '"a"' + ")" * (gr.MAX_DEPTH - 1) + ";"
        assert ast_shape(gr.parse_grammar(ok).export_ast()) == ast_shape(gr.Literal("a"))
        err = self.depth_error("export = " + "(" * 300 + '"a"' + ")" * 300 + ";")
        assert (err.line, err.column) == (1, 10 + gr.MAX_DEPTH)

    def test_stacked_postfix_operators(self):
        ok = 'export = "a"' + "*" * (gr.MAX_DEPTH - 1) + ";"
        assert gr.parse_grammar(ok).export_ast() is not None
        for op in ("*", "+", "?", "{1,2}"):
            err = self.depth_error('export = "a"' + op * 5000 + ";")
            assert (err.line, err.column) == (1, 13 + len(op) * (gr.MAX_DEPTH - 1))

    def test_reference_chain_counts_definition_depth(self):
        # each definition wraps the previous one in a group and a star: 2 levels
        lines = ['d0 = "a";'] + [f"d{i} = (d{i - 1})*;" for i in range(1, 200)]
        err = self.depth_error("\n".join(lines + ["export = d199;"]))
        assert err.line == gr.MAX_DEPTH // 2 + 1
        short = "\n".join(lines[:gr.MAX_DEPTH // 2] + [f"export = d{gr.MAX_DEPTH // 2 - 1};"])
        assert gr.parse_grammar(short).export_ast() is not None


class TestAstIdentity:
    def test_shared_subtrees_hash_and_compare_at_once(self):
        # 60 doublings share 61 nodes; a value hash or == would walk 2**60 leaves
        lines = ['d0 = "a";'] + [f"d{i} = d{i - 1} d{i - 1};" for i in range(1, 61)]
        source = gr.parse_grammar("\n".join(lines + ["export = d60;"]))
        ast = source.export_ast()
        twin = gr.Concat(ast.children)
        t0 = time.perf_counter()
        assert hash(ast) == hash(ast) and ast == ast and ast != twin
        assert ast in {ast} and twin not in {ast}
        assert time.perf_counter() - t0 < 1.0

    def test_equal_shapes_are_distinct_nodes(self):
        a, b = gr.Literal("a"), gr.Literal("a")
        assert a != b and len({a, b}) == 2
        assert ast_shape(a) == ast_shape(b)
        assert ast_shape(gr.Repeat(a, 0, 1)) != ast_shape(gr.Repeat(a, 0, None))


GRAMMAR_TOKENS = ['"a"', '"ab"', '""', '"', "[a-c]", "[", "]", "-", "\\d", "\\u", "\\",
                  "|", "*", "+", "?", "(", ")", "{", "}", ",", "0", "2", "70", "=", ";",
                  "export", "x", " ", "\n", "#"]
GRAMMAR_TEXT = st.tuples(
    st.sampled_from(["", "export = ", 'x = "a"*;\nexport = x ']),
    st.lists(st.sampled_from(GRAMMAR_TOKENS), max_size=40).map("".join),
    st.sampled_from(["", ";"]),
).map("".join)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(GRAMMAR_TEXT)
def test_parse_raises_only_grammar_error(text):
    try:
        gr.parse_grammar(text).export_ast()
    except GrammarError:
        pass


PUNCT_KINDS = {"=": "EQUALS", ";": "SEMI", "|": "PIPE", "*": "STAR", "+": "PLUS",
               "?": "QMARK", "(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE",
               ",": "COMMA"}
BODY_CHARS = st.characters(blacklist_characters="\n", max_codepoint=0x7F)
SAFE_LO = st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x7F)


@st.composite
def string_token(draw):
    value = draw(st.text(BODY_CHARS, max_size=6))
    text = "".join("\\" + c if c in '"\\' or draw(st.booleans()) else c for c in value)
    return '"' + text + '"', "STRING", value


@st.composite
def class_token(draw):
    text, members = [], []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            lo = draw(SAFE_LO)
            hi = chr(ord(lo) + draw(st.integers(0, 3)))
            text.append(lo + "-" + ("\\" + hi if hi in "]\\" or draw(st.booleans()) else hi))
            members.extend(chr(o) for o in range(ord(lo), ord(hi) + 1))
        else:
            c = draw(BODY_CHARS)
            text.append("\\" + c if c in "]\\-" or draw(st.booleans()) else c)
            members.append(c)
    return "[" + "".join(text) + "]", "CLASS", tuple(members)


LEX_TOKENS = st.one_of(
    string_token(),
    class_token(),
    st.sampled_from([("\\d", "CLASS", gr.DIGITS), ("\\u", "CLASS", gr.UPPER)]),
    st.sampled_from([(c, kind, c) for c, kind in PUNCT_KINDS.items()]),
    st.integers(0, 999).map(lambda n: (str(n), "NUMBER", n)),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True).map(
        lambda name: (name, "NAME", name)),
)
SEPARATOR = st.lists(st.sampled_from([" ", "\t", "\r", "\n", '# note "[\\\n']),
                     min_size=1, max_size=3).map("".join)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(SEPARATOR, LEX_TOKENS), max_size=12), SEPARATOR,
       st.sampled_from(["", "# a comment may end the text"]))
def test_tokens_and_positions_from_offsets(pieces, tail, last_comment):
    text, want = "", []
    for sep, (token_text, kind, value) in pieces:
        text += sep
        offset = len(text)
        text += token_text
        want.append((kind, value, offset))
    text += tail + last_comment
    want.append(("EOF", None, len(text)))
    got = [(t.kind, t.value, t.line, t.column) for t in gr._tokenize(text)]
    assert got == [(kind, value, text.count("\n", 0, offset) + 1,
                    offset - text.rfind("\n", 0, offset))
                   for kind, value, offset in want]


class TestAstToPattern:
    def test_license_plate_pattern(self):
        source = gr.parse_grammar('export = \\d [A-Z]{3} \\d{3};')
        pattern = ast_to_pattern(source.export_ast())
        assert re.fullmatch(pattern, "1ABC234")
        assert not re.fullmatch(pattern, "AABC234")
        assert not re.fullmatch(pattern, "1ABC23")

    def test_alphabet_narrowing(self):
        source = gr.parse_grammar('export = [A-Z];')
        pattern = ast_to_pattern(source.export_ast(), alphabet=["A", "B"])
        assert re.fullmatch(pattern, "A") and re.fullmatch(pattern, "B")
        assert not re.fullmatch(pattern, "C")
