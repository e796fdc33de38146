"""Regex-biased WFST decoding toolkit.

Compiles user regexes into acceptors biased by a per-character cost alpha,
builds a word-level root graph optim(L' o G') with a `$REGEX` nonterminal,
and splices a compiled regex in at that nonterminal by dynamic replacement:
`ops.replace` returns a lazy view of the spliced machine, at a cost per
regex that grows with the regex's machine, not the root. The decoder that
reads CTC-style posteriors is not written yet.
"""
