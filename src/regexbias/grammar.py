"""Thrax-lite grammar files: `name = expr ;` definitions and one export.

Supported regex syntax: double-quoted literals (a quoted string is the
concatenation of its characters), `|`, juxtaposition for concatenation,
`*` `+` `?`, `{m}`, `{m,n}` with m <= n <= 64, parentheses, references to
earlier definitions, character classes like `[A-Z0-9]`, the escapes `\\d`
(digits) and `\\u` (upper-case A-Z), and `#` comments. References may only
point at names defined earlier in the file, so grammars cannot recurse.

Lexical rules: one compiled pattern, `_TOKEN_RE`, scans the text. Strings
and classes end on their own line, and `\\` inside them escapes any
character, a class range's upper end included. A class lists each member
once, in the order first written. Errors point at the start of the
offending token.

The AST has five node types: `Literal`, `Class`, `Concat`, `Union` and
`Repeat(child, min, max)`, which spells every postfix operator (`*` is
`{0,}`, `+` is `{1,}`, `?` is `{0,1}`; `max=None` is unbounded). The parser
resolves a reference to the referenced definition's AST as it reads it, so
references are shared subtrees, not copies. Nodes hash and compare by
identity, so `hash`, `==` and set membership take constant time however
often an AST shares a subtree; compare two trees' structure to compare them
by value. Walk an AST memoised by node identity, since a pass that follows
every reference repeats the work for each one.
Expressions nest at most MAX_DEPTH levels: each operator and group adds one
and a reference counts its definition's depth, so no recursive pass over an
AST comes near Python's recursion limit.

The module only parses: an AST is compiled into machines by `compiler`,
and rendered back into a Python `re` pattern only by the tests'
reference-engine oracle, `ast_to_pattern` in `tests/conftest.py`.
"""

import re as _stdlib_re
import string
from collections import namedtuple
from dataclasses import dataclass, field, fields

from .errors import GrammarError

MAX_REPEAT = 64
MAX_DEPTH = 64

DIGITS = tuple(string.digits)
UPPER = tuple(string.ascii_uppercase)


# --- AST ------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Literal:
    symbol: str


@dataclass(frozen=True, eq=False)
class Class:
    """Candidate characters; narrowed to the decoder alphabet at compile time."""

    symbols: tuple


class _Inner:
    """A Concat, Union or Repeat, whose repr prints each of these under it
    once and `...` where one recurs, as a shared subtree does."""

    def __repr__(self):
        printed = set()  # ids of the inner nodes shown so far

        def show(x):
            if isinstance(x, tuple):
                return f"({', '.join(map(show, x))}{',' * (len(x) == 1)})"
            if not isinstance(x, _Inner):
                return repr(x)
            if id(x) in printed:
                return "..."
            printed.add(id(x))
            values = (f"{f.name}={show(getattr(x, f.name))}" for f in fields(x))
            return f"{type(x).__name__}({', '.join(values)})"

        return show(self)


@dataclass(frozen=True, eq=False, repr=False)
class Concat(_Inner):
    children: tuple


@dataclass(frozen=True, eq=False, repr=False)
class Union(_Inner):
    children: tuple


@dataclass(frozen=True, eq=False, repr=False)
class Repeat(_Inner):
    """`child` repeated min..max times; `max=None` is unbounded."""

    child: object
    min: int
    max: int | None

    def __post_init__(self):
        top = self.min if self.max is None else self.max
        if not (0 <= self.min <= top <= MAX_REPEAT):
            raise GrammarError(
                f"repeat bounds must satisfy 0 <= min <= max <= {MAX_REPEAT}, "
                f"got {{{self.min},{self.max}}}"
            )


@dataclass
class GrammarSource:
    """Parsed grammar: ordered definitions plus the mandatory export."""

    definitions: list = field(default_factory=list)  # (name, ast)

    def export_ast(self):
        """The export expression; references in it are already resolved."""
        return dict(self.definitions)["export"]


# --- tokenizer --------------------------------------------------------------

_POSTFIX = {"STAR": (0, None), "PLUS": (1, None), "QMARK": (0, 1)}

_TOKEN_RE = _stdlib_re.compile(r"""
    (?P<skip>     [ \t\r\n]+ | \#.* )
  | (?P<STRING>   " (?: [^"\\\n] | \\. )* (?P<STRING_end> " )? )
  | (?P<CLASS>    \[ (?: [^]\\\n] | \\. )* (?P<CLASS_end> ] )? )
  | (?P<ESCAPE>   \\[\s\S]? )
  | (?P<EQUALS>=) | (?P<SEMI>;) | (?P<PIPE>\|) | (?P<STAR>\*) | (?P<PLUS>\+) | (?P<QMARK>\?)
  | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<LBRACE>\{) | (?P<RBRACE>\}) | (?P<COMMA>,)
  | (?P<NUMBER>   [0-9]+ )
  | (?P<NAME>     [A-Za-z_][A-Za-z0-9_]* )
  | (?P<OTHER>    . )
""", _stdlib_re.VERBOSE)
_ESCAPED = _stdlib_re.compile(r"\\(.)")
_CLASS_ITEM = _stdlib_re.compile(r"([^\\])-\\?(.)|\\?(.)")  # a range lo-hi, or one member
_ESCAPES = {"\\d": DIGITS, "\\u": UPPER}
# (message, message when the text ends in the backslash that left it open)
_UNCLOSED = {"STRING": ("unterminated string literal", "dangling backslash in string"),
             "CLASS": ("unterminated character class", "dangling backslash in class")}

_Token = namedtuple("_Token", "kind value line column")


def _tokenize(text):
    tokens = []
    line, line_start = 1, 0  # newlines only occur in skipped text
    for m in _TOKEN_RE.finditer(text):
        kind, value = m.lastgroup, m.group()
        if kind == "skip":
            if "\n" in value:
                line += value.count("\n")
                line_start = m.start() + value.rindex("\n") + 1
            continue
        where = line, m.start() - line_start + 1  # every position comes from here
        if kind in _UNCLOSED and m.group(kind + "_end") is None:
            raise GrammarError(_UNCLOSED[kind][text[m.end():] == "\\"], *where)
        if kind == "STRING":
            value = _ESCAPED.sub(r"\1", value[1:-1])
        elif kind == "CLASS":
            members = []
            for lo, hi, member in _CLASS_ITEM.findall(value[1:-1]):
                if not lo:
                    members.append(member)
                elif lo > hi:
                    raise GrammarError(f"backwards class range {lo}-{hi}", *where)
                else:
                    members.extend(map(chr, range(ord(lo), ord(hi) + 1)))
            if not members:
                raise GrammarError("empty character class", *where)
            value = tuple(dict.fromkeys(members))
        elif kind == "ESCAPE":
            if value == "\\":
                raise GrammarError("dangling backslash", *where)
            if value not in _ESCAPES:
                raise GrammarError(
                    f"unknown escape {value} (only \\d and \\u are supported)", *where)
            kind, value = "CLASS", _ESCAPES[value]
        elif kind == "NUMBER":
            # more than MAX_REPEAT significant digits is out of range whatever
            # they are, and int() refuses thousands of digits, zeros included
            digits = value.lstrip("0")
            if len(digits) > MAX_REPEAT:
                raise GrammarError(f"repeat bound exceeds {MAX_REPEAT}", *where)
            value = int(digits or "0")
        elif kind == "OTHER":
            raise GrammarError(f"unexpected character {value!r}", *where)
        tokens.append(_Token(kind, value, *where))
    tokens.append(_Token("EOF", None, line, len(text) - line_start + 1))
    return tokens


# --- parser -----------------------------------------------------------------

class _Parser:
    """Recursive descent; every parse_* method returns (node, depth)."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.definitions = {}  # name -> (resolved ast, depth)
        self.open_groups = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            raise GrammarError(f"expected {kind}, found {tok.kind}", tok.line, tok.column)
        self.pos += 1
        return tok

    @staticmethod
    def nest(node, depth, tok):
        if depth > MAX_DEPTH:
            raise GrammarError(f"expression nests deeper than {MAX_DEPTH} levels",
                               tok.line, tok.column)
        return node, depth

    def parse_expr(self):
        tok = self.peek()
        node, depth = self.parse_concat()
        alternatives = [node]
        while self.peek().kind == "PIPE":
            self.take()
            node, d = self.parse_concat()
            alternatives.append(node)
            depth = max(depth, d)
        if len(alternatives) == 1:
            return node, depth
        return self.nest(Union(tuple(alternatives)), depth + 1, tok)

    def parse_concat(self):
        tok = self.peek()
        parts, depth = [], 0
        while self.peek().kind in ("STRING", "CLASS", "NAME", "LPAREN"):
            node, d = self.parse_postfix()
            parts.append(node)
            depth = max(depth, d)
        if not parts:
            raise GrammarError("expected an expression", tok.line, tok.column)
        if len(parts) == 1:
            return node, depth
        return self.nest(Concat(tuple(parts)), depth + 1, tok)

    def parse_postfix(self):
        node, depth = self.parse_atom()
        while True:
            tok = self.peek()
            if tok.kind in _POSTFIX:
                self.take()
                lo, hi = _POSTFIX[tok.kind]
            elif tok.kind == "LBRACE":
                self.take()
                lo = self.take("NUMBER").value
                hi = lo
                if self.peek().kind == "COMMA":
                    self.take()
                    hi = self.take("NUMBER").value
                self.take("RBRACE")
            else:
                return node, depth
            try:
                node = Repeat(node, lo, hi)
            except GrammarError as exc:
                raise GrammarError(str(exc), tok.line, tok.column) from None
            node, depth = self.nest(node, depth + 1, tok)

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "STRING":
            self.take()
            if len(tok.value) == 0:
                return Concat(()), 1  # empty string: matches epsilon
            if len(tok.value) == 1:
                return Literal(tok.value), 1
            return Concat(tuple(Literal(c) for c in tok.value)), 2
        if tok.kind == "CLASS":
            self.take()
            return Class(tok.value), 1
        if tok.kind == "NAME":
            self.take()
            if tok.value not in self.definitions:
                raise GrammarError(
                    f"reference to undefined name {tok.value!r} "
                    "(definitions may only refer to earlier lines)",
                    tok.line, tok.column)
            return self.definitions[tok.value]
        self.take("LPAREN")
        # checked before descending, so deep nesting cannot exhaust the stack
        self.open_groups += 1
        self.nest(None, self.open_groups, tok)
        node, depth = self.parse_expr()
        self.take("RPAREN")
        self.open_groups -= 1
        return self.nest(node, depth + 1, tok)


def parse_grammar(text: str) -> GrammarSource:
    """Parse and validate grammar text into ordered, reference-checked rules."""
    source = GrammarSource()
    parser = _Parser(_tokenize(text))
    while parser.peek().kind != "EOF":
        name_tok = parser.take("NAME")
        name = name_tok.value
        if name in parser.definitions:
            raise GrammarError(f"duplicate definition of {name!r}",
                               name_tok.line, name_tok.column)
        parser.take("EQUALS")
        ast, depth = parser.parse_expr()
        parser.take("SEMI")
        source.definitions.append((name, ast))
        parser.definitions[name] = ast, depth
    if "export" not in parser.definitions:
        raise GrammarError("grammar must end with an `export = expr ;` rule")
    return source
