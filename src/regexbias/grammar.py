"""Thrax-lite grammar files: `name = expr ;` definitions and one export.

Supported regex syntax: double-quoted literals (a quoted string is the
concatenation of its characters), `|`, juxtaposition for concatenation,
`*` `+` `?`, `{m}`, `{m,n}` with m <= n <= 64, parentheses, references to
earlier definitions, character classes like `[A-Z0-9]`, the escapes `\\d`
(digits) and `\\u` (upper-case A-Z), and `#` comments. References may only
point at names defined earlier in the file, so grammars cannot recurse.

The AST has five node types: `Literal`, `Class`, `Concat`, `Union` and
`Repeat(child, min, max)`, which spells every postfix operator (`*` is
`{0,}`, `+` is `{1,}`, `?` is `{0,1}`; `max=None` is unbounded). The parser
resolves a reference to the referenced definition's AST as it reads it, so
references are shared subtrees, not copies; walk an AST memoised by node
identity, since hashing or comparing shared subtrees repeats the work.
Expressions nest at most MAX_DEPTH levels: each operator and group adds one
and a reference counts its definition's depth, so no recursive pass over an
AST comes near Python's recursion limit.
"""

import re as _stdlib_re
import string
from dataclasses import dataclass, field

from .errors import GrammarError

MAX_REPEAT = 64
MAX_DEPTH = 64

DIGITS = tuple(string.digits)
UPPER = tuple(string.ascii_uppercase)


# --- AST ------------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    symbol: str


@dataclass(frozen=True)
class Class:
    """Candidate characters; narrowed to the decoder alphabet at compile time."""

    symbols: tuple

    def __post_init__(self):
        if not self.symbols:
            raise GrammarError("empty character class")


@dataclass(frozen=True)
class Concat:
    children: tuple


@dataclass(frozen=True)
class Union:
    children: tuple


@dataclass(frozen=True)
class Repeat:
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

    def names(self):
        return [name for name, _ in self.definitions]

    def ast(self, name):
        for n, a in self.definitions:
            if n == name:
                return a
        raise GrammarError(f"no definition named {name!r}")

    def export_ast(self):
        """The export expression; references in it are already resolved."""
        return self.ast("export")


# --- tokenizer --------------------------------------------------------------

_PUNCT = {"=": "EQUALS", ";": "SEMI", "|": "PIPE", "*": "STAR", "+": "PLUS",
          "?": "QMARK", "(": "LPAREN", ")": "RPAREN", "{": "LBRACE",
          "}": "RBRACE", ",": "COMMA"}

_POSTFIX = {"STAR": (0, None), "PLUS": (1, None), "QMARK": (0, 1)}

_NAME_RE = _stdlib_re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = _stdlib_re.compile(r"[0-9]+")


@dataclass
class _Token:
    kind: str
    value: object
    line: int
    column: int


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)

    def err(msg):
        raise GrammarError(msg, line, col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch == '"':
            i += 1
            col += 1
            chars = []
            while True:
                if i >= n or text[i] == "\n":
                    err("unterminated string literal")
                c = text[i]
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\\":
                    if i + 1 >= n:
                        err("dangling backslash in string")
                    chars.append(text[i + 1])
                    i += 2
                    col += 2
                else:
                    chars.append(c)
                    i += 1
                    col += 1
            tokens.append(_Token("STRING", "".join(chars), line, start_col))
            continue
        if ch == "[":
            i += 1
            col += 1
            members = []
            while True:
                if i >= n or text[i] == "\n":
                    err("unterminated character class")
                c = text[i]
                if c == "]":
                    i += 1
                    col += 1
                    break
                if c == "\\":
                    if i + 1 >= n:
                        err("dangling backslash in class")
                    members.append(text[i + 1])
                    i += 2
                    col += 2
                    continue
                if (i + 2 < n and text[i + 1] == "-" and text[i + 2] not in "]\n"):
                    lo, hi = c, text[i + 2]
                    if ord(lo) > ord(hi):
                        err(f"backwards class range {lo}-{hi}")
                    members.extend(chr(o) for o in range(ord(lo), ord(hi) + 1))
                    i += 3
                    col += 3
                    continue
                members.append(c)
                i += 1
                col += 1
            if not members:
                err("empty character class")
            tokens.append(_Token("CLASS", tuple(members), line, start_col))
            continue
        if ch == "\\":
            if i + 1 >= n:
                err("dangling backslash")
            esc = text[i + 1]
            if esc == "d":
                tokens.append(_Token("CLASS", DIGITS, line, start_col))
            elif esc == "u":
                tokens.append(_Token("CLASS", UPPER, line, start_col))
            else:
                err(f"unknown escape \\{esc} (only \\d and \\u are supported)")
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, line, start_col))
            i += 1
            col += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(_Token("NUMBER", int(m.group()), line, start_col))
            col += m.end() - i
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            tokens.append(_Token("NAME", m.group(), line, start_col))
            col += m.end() - i
            i = m.end()
            continue
        err(f"unexpected character {ch!r}")
    tokens.append(_Token("EOF", None, line, col))
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
        if tok.kind == "LPAREN":
            self.take()
            # checked before descending, so deep nesting cannot exhaust the stack
            self.open_groups += 1
            self.nest(None, self.open_groups, tok)
            node, depth = self.parse_expr()
            self.take("RPAREN")
            self.open_groups -= 1
            return self.nest(node, depth + 1, tok)
        raise GrammarError(f"expected an expression, found {tok.kind}", tok.line, tok.column)


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


# --- Python-regex rendering (the reference-engine oracle hook) ---------------

def ast_to_pattern(node, alphabet=None) -> str:
    """Render an AST as an equivalent Python `re` pattern.

    When `alphabet` (an iterable of symbols) is given, character classes
    are narrowed to it, mirroring how compilation expands classes against
    the decoder's symbol table.
    """
    allowed = set(alphabet) if alphabet is not None else None

    def render(n):
        if isinstance(n, Literal):
            return _stdlib_re.escape(n.symbol)
        if isinstance(n, Class):
            members = [c for c in n.symbols if allowed is None or c in allowed]
            if not members:
                raise GrammarError("character class is empty after alphabet narrowing")
            return "(?:" + "|".join(_stdlib_re.escape(c) for c in members) + ")"
        if isinstance(n, Concat):
            return "".join(render(c) for c in n.children)
        if isinstance(n, Union):
            return "(?:" + "|".join(render(c) for c in n.children) + ")"
        if isinstance(n, Repeat):
            top = "" if n.max is None else n.max
            return "(?:" + render(n.child) + ")" + f"{{{n.min},{top}}}"
        raise TypeError(f"not a regex AST node: {n!r}")

    return render(node)
