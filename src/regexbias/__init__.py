"""Regex-biased WFST decoding toolkit.

Compiles user regexes into acceptors biased by a per-character cost alpha,
builds a word-level root graph optim(L' o G') with a `$REGEX` nonterminal,
and splices a compiled regex in at that nonterminal by dynamic replacement:
`ops.replace` returns a lazy view of the spliced machine, at a cost per
regex that grows with the regex's machine, not the root. The decoder that
reads CTC-style posteriors is not written yet.
"""

from .fst import (
    BLANK,
    DISAMBIG,
    EPSILON,
    EPSILON_ID,
    REGEX_NT,
    Arc,
    SymbolTable,
    Wfst,
    linear_acceptor,
)
from .semiring import ONE, ZERO

__all__ = [
    "Arc",
    "BLANK",
    "DISAMBIG",
    "EPSILON",
    "EPSILON_ID",
    "ONE",
    "REGEX_NT",
    "SymbolTable",
    "Wfst",
    "ZERO",
    "linear_acceptor",
]

__version__ = "0.1.0"
