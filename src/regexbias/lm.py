"""Word-level language model machinery: counts -> G, lexicon -> L, the
`$REGEX` nonterminal splice (G', L'), and the optimized root graph.

Layout conventions baked in here and relied on downstream:

* G's unigram/backoff state is state 0 (`UNIGRAM_STATE`), followed by one
  state per word in sorted order, each reached from state 0 by the word's
  unigram arc. Any G laid out this way works downstream, including one read
  back from machine text: nothing else marks the unigram state.
* A sentence holds at least one token: `<s>` never backs off to `</s>`.
  `<s>` backs off exactly, with one arc per unseen word, instead of an
  epsilon arc into the unigram state; the char-fallback and `$REGEX`
  arcs therefore leave the start state too, into the unigram state.
* The caller makes one word table for G and L's output side, and
  `add_char_fallback`, `insert_nonterminal` and `build_root` register in it
  what they write, among them one token per recognizer character, so
  out-of-vocabulary spans can surface verbatim in the decoded token stream.
* L spells each word with its own characters, emits the word on the
  first one and reads a space separator between words. `ops.determinize`
  takes each (ilabel, olabel) pair as one label, so a word that prefixes
  another already differs on its first arc, and L needs no disambiguation
  symbols. Neither L nor the root adds a symbol to the caller's charset.
* `#0` is the word-side backoff marker, and only that. G backs off on
  eps:eps arcs; inside `build_root` those arcs read `#0`, which L writes
  on an eps:#0 loop on its final states, so the backoff is taken only
  where a word has just ended, and the product's backoff arcs come out
  eps:eps. On the benchmark's corpora L' o G' is deterministic per label
  pair with or without `#0`, since `compose` defers each backoff to just
  before the next match, so optim skips the subset construction either
  way, and both products optimize to the same paths. What `#0` buys is a
  smaller root, built faster: 9,771 root arcs against 10,264 on the
  benchmark's V~500 seed-1 corpus. The root keeps the eps:eps backoff
  arcs: it is neither epsilon-free nor deterministic on its input labels.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import (
    ConfigError,
    LexiconError,
    RegexBiasError,
    SymbolError,
    SymbolTableMismatchError,
)
from .fst import (
    DISAMBIG,
    EPSILON,
    EPSILON_ID,
    REGEX_NT,
    RESERVED,
    ZERO,
    SymbolTable,
    Wfst,
    character_symbols,
    nogc,
)
from .ops import compose, optim

SENTENCE_START = "<s>"
SENTENCE_END = "</s>"
WORD_SEPARATOR = " "
UNIGRAM_STATE = 0
_RESERVED_TOKENS = RESERVED | {EPSILON, SENTENCE_START, SENTENCE_END}


@dataclass
class NgramCounts:
    unigram: dict = field(default_factory=dict)
    bigram: dict = field(default_factory=dict)

    def vocabulary(self):
        return sorted(w for w in self.unigram
                      if w not in (SENTENCE_START, SENTENCE_END))


@dataclass
class LmConfig:
    """T_r's alpha is an absolute cost per character: a matching span of n
    characters goes through `$REGEX` exactly when nonterminal_weight +
    n*alpha < n*char_fallback_penalty, so at the defaults the neutral
    alpha is 8.0, not 0."""

    backoff_discount: float = 0.4
    char_fallback_penalty: float = 8.0
    nonterminal_weight: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.backoff_discount < 1.0:
            raise ConfigError(f"backoff_discount must be in (0, 1), got {self.backoff_discount}")
        if math.isnan(self.char_fallback_penalty) or math.isinf(self.char_fallback_penalty):
            raise ConfigError("char_fallback_penalty must be finite")
        # +inf means no `$REGEX` arc; -inf would make every residual -inf - -inf
        if math.isnan(self.nonterminal_weight) or self.nonterminal_weight == -math.inf:
            raise ConfigError(
                f"nonterminal_weight must be a real or +inf, got {self.nonterminal_weight}"
            )


class Lexicon:
    """The words L spells, each with its own characters. A word may not be
    empty, hold the word separator or be a token `count_ngrams` rejects."""

    def __init__(self, words=()):
        self._words: set[str] = set()
        for word in words:
            self.add(word)

    def add(self, word):
        if not word:
            raise LexiconError("empty lexicon word")
        if word in _RESERVED_TOKENS:
            raise LexiconError(f"lexicon word {word!r} is reserved")
        if WORD_SEPARATOR in word:
            raise LexiconError(f"lexicon word {word!r} contains the word separator")
        self._words.add(word)

    @classmethod
    def from_words(cls, words):
        return cls(words)

    def words(self):
        return sorted(self._words)

    def __len__(self):
        return len(self._words)


@nogc
def count_ngrams(lines) -> NgramCounts:
    """Exact unigram and bigram counts with sentence-boundary markers.

    `lines` is read once, so it may be a generator. Each non-blank line is
    padded with `<s>` and `</s>` onto one token list, which `Counter`
    counts with its bigrams, less the `</s> <s>` joins between lines. A
    line holding a boundary marker, `<eps>` or a symbol of `fst.RESERVED`
    as a token raises RegexBiasError naming the first such line: each
    would be taken for the symbol it names. The check runs once, on the
    counts, and only a failing corpus is searched line by line.
    """
    padded = []
    ends = []  # (line number, end in padded) per non-blank line
    for lineno, line in enumerate(lines, 1):
        tokens = line.split()
        if tokens:
            padded.append(SENTENCE_START)
            padded += tokens
            padded.append(SENTENCE_END)
            ends.append((lineno, len(padded)))
    uni = Counter(padded)
    n = len(ends)
    if any(uni[tok] != (n if tok in (SENTENCE_START, SENTENCE_END) else 0)
           for tok in _RESERVED_TOKENS):  # a line holds a reserved token
        begin = 0
        for lineno, end in ends:
            reserved = _RESERVED_TOKENS.intersection(padded[begin + 1:end - 1])
            if reserved:
                raise RegexBiasError(f"line {lineno}: corpus token {min(reserved)!r} is reserved")
            begin = end
    bi = Counter(zip(padded, padded[1:]))
    del bi[(SENTENCE_END, SENTENCE_START)]  # the joins between sentences
    return NgramCounts(uni, bi)


def make_word_table(words, name="words") -> SymbolTable:
    return SymbolTable.from_symbols(sorted(words), name)


def _unigram_layout(p_uni: dict, word_table: SymbolTable):
    """G's shared layout: the unigram state UNIGRAM_STATE, then one state per
    word of `p_uni` in sorted order, reached from it at -log p(w), with no
    arc where p(w) is 0. Returns the machine, with no start state yet, and
    {word: (its id in `word_table`, its state)}."""
    if not p_uni:
        raise RegexBiasError("cannot build a grammar from an empty vocabulary")
    g = Wfst(word_table, word_table)
    g.add_states(len(p_uni) + 1)
    append = g.arcs(UNIGRAM_STATE).append
    target = {}
    for state, w in enumerate(sorted(p_uni), UNIGRAM_STATE + 1):
        tok = word_table.id(w)
        target[w] = (tok, state)
        p = p_uni[w]
        if p > 0.0:
            append((tok, tok, -math.log(p), state))
    return g, target


@nogc
def build_grammar(counts: NgramCounts, cfg: LmConfig, word_table: SymbolTable) -> Wfst:
    """Bigram backoff acceptor over the words of `word_table`, the table
    object the caller also passes to `build_lexicon`.

    Unigram arcs leave the backoff state at -log p(w); bigram arcs cost
    -log p(w2|w1) with absolute discounting (discount = backoff_discount);
    epsilon backoff arcs return to the unigram state carrying the
    normalized discounted mass. Sentence end lands in final weights.

    The start state `<s>` is the exception: its unseen mass leaves out
    `</s>`, so the empty sentence has no path, and it backs off exactly,
    with one arc per unseen word w at bow * p(w) straight to w's state.

    Arcs are appended to G's lists as tuples. Every count is at least 1,
    as `count_ngrams` makes them, and the discount is below 1, so each
    probability is above 0 but a backoff one that underflows, which gets
    no arc.
    """
    vocab = counts.vocabulary()
    d = cfg.backoff_discount
    total = sum(c for w, c in counts.unigram.items() if w != SENTENCE_START)
    p_uni = {w: counts.unigram[w] / total for w in vocab}
    g, target = _unigram_layout(p_uni, word_table)
    finals = g.finals
    log = math.log

    p_uni[SENTENCE_END] = counts.unigram.get(SENTENCE_END, 0) / total
    finals[UNIGRAM_STATE] = -log(p_uni[SENTENCE_END])

    contexts = {}
    for (w1, w2), c in counts.bigram.items():
        contexts.setdefault(w1, {})[w2] = c
    start_state = g.add_state()
    g.set_start(start_state)

    vocab_mass = math.fsum(p_uni[w] for w in vocab)
    for w1 in sorted(contexts):
        exact = w1 == SENTENCE_START
        src = start_state if exact else target[w1][1]
        append = g.arcs(src).append
        conts = contexts[w1]
        c_ctx = sum(conts.values())
        seen = [w for w in conts if w != SENTENCE_END]
        unseen_mass = vocab_mass - math.fsum(map(p_uni.__getitem__, seen))
        end_unseen = SENTENCE_END not in conts and not exact
        if end_unseen:
            unseen_mass += p_uni[SENTENCE_END]
        # counts, not the float difference, decide there is nowhere to back off to
        discount = d if len(seen) < len(vocab) or end_unseen else 0.0
        for w2, c in sorted(conts.items()):
            p = (c - discount) / c_ctx
            if w2 == SENTENCE_END:
                finals[src] = -log(p)
            else:
                tok, t = target[w2]
                append((tok, tok, -log(p), t))
        if discount > 0.0:
            bow = (discount * len(conts) / c_ctx) / unseen_mass
            if exact:
                for w in vocab:
                    if w not in conts:
                        p = bow * p_uni[w]
                        if p > 0.0:
                            tok, t = target[w]
                            append((tok, tok, -log(p), t))
            elif bow > 0.0:
                append((EPSILON_ID, EPSILON_ID, -log(bow), UNIGRAM_STATE))
    return g


@nogc
def build_lexicon(lex: Lexicon, charset: SymbolTable, word_table: SymbolTable) -> Wfst:
    """Characters -> words transducer, closed over word sequences with a
    space separator; each word is spelled with its own characters and its
    label rides on the first one. The input side is `charset`, unchanged;
    the output side is `word_table`, the table object G was built over.
    The states are the start, then one per character of each word in
    sorted order, all added at once; arcs are appended as tuples."""
    if not len(lex):
        raise RegexBiasError("cannot build a lexicon machine from no words")
    sep = charset.find(WORD_SEPARATOR)
    char_id = {ch: cid for cid, ch in enumerate(charset)}
    words = lex.words()

    l = Wfst(charset, word_table)
    n = 1 + sum(map(len, words))
    arcs = list(map(l.arcs, range(l.add_states(n), n)))
    l.set_start(0)
    finals = l.finals
    last = 0  # the last state given to a character
    for w in words:
        wid = word_table.find(w)
        if wid is None:
            raise SymbolError(f"word {w!r} missing from table {word_table.name!r}")
        append = arcs[0].append
        out_label = wid
        for ch in w:
            cid = char_id.get(ch)
            if cid is None:
                raise LexiconError(
                    f"spelling of {w!r} uses unknown character {ch!r}"
                )
            last += 1
            append((cid, out_label, 0.0, last))
            append = arcs[last].append
            out_label = EPSILON_ID
        finals[last] = 0.0
        if sep is not None:
            append((sep, EPSILON_ID, 0.0, 0))
    return l


@nogc
def _add_unigram_tokens(g: Wfst, l: Wfst, tokens, weight: float):
    """Copies of G and L with unigram tokens, (character id, word symbol)
    pairs whose symbols are registered in the word table G and L share. G
    gains per token a loop on the unigram state and an arc into it from the
    start state at `weight`, or none at +inf. L gains one final state,
    entered from the start on each pair, looping on each pair that reads a
    character, and left for the start on the separator. The arcs are
    appended as tuples: `weight` comes from an `LmConfig`, which has
    checked it."""
    word_table = g.isymbols
    if word_table is not l.osymbols:
        raise SymbolTableMismatchError(word_table, l.osymbols,
                                       "G and L must share one word table object")
    g2, l2 = g.copy(), l.copy()
    hub = l2.add_state()
    g_lists = [g2.arcs(s) for s in {UNIGRAM_STATE, g2.start}] if weight != ZERO else []
    entries, loops = l2.arcs(l2.start), l2.arcs(hub)
    for cid, symbol in tokens:
        tok = word_table.add(symbol)
        for arcs in g_lists:
            arcs.append((tok, tok, weight, UNIGRAM_STATE))
        entries.append((cid, tok, 0.0, hub))
        if cid != EPSILON_ID:  # an epsilon loop would emit tokens reading nothing
            loops.append((cid, tok, 0.0, hub))
    l2.finals[hub] = 0.0
    sep = l2.isymbols.find(WORD_SEPARATOR)
    if sep is not None:
        loops.append((sep, EPSILON_ID, 0.0, l2.start))
    return g2, l2


def add_char_fallback(g: Wfst, l: Wfst, charset: SymbolTable, cfg: LmConfig):
    """Attach the out-of-vocabulary escape hatch.

    The grammar's unigram state gains a self-loop per character token at
    char_fallback_penalty, and the start state an arc per character token
    into it at the same cost, so a line may begin with an out-of-vocabulary
    span; the lexicon gains identity character paths so any text can be
    consumed and resurfaced verbatim as char tokens, which are registered in
    the word table G and L share.
    """
    chars = [c for c in character_symbols(charset) if c != WORD_SEPARATOR]
    return _add_unigram_tokens(g, l, [(charset.id(c), c) for c in chars],
                               cfg.char_fallback_penalty)


def insert_nonterminal(g: Wfst, l: Wfst, cfg: LmConfig):
    """G', L': splice the `$REGEX` nonterminal in as a unigram word whose
    spelling is one epsilon, so a regex span can cover part of a sentence
    while the rest is scored by G. The `$REGEX` arc loops on the unigram
    state and also leads there from the start state, so a line may begin
    with, or consist of, a regex entity. `$REGEX` is registered in the word
    table G and L share."""
    return _add_unigram_tokens(g, l, [(EPSILON_ID, REGEX_NT)], cfg.nonterminal_weight)


@nogc
def build_root(l_prime: Wfst, g_prime: Wfst) -> Wfst:
    """T_root = optim(L' o G'), returned as optim builds it; `$REGEX`
    labels pass through optim as ordinary symbols.

    G's eps:eps backoff arcs read `#0`, which L' writes on an eps:#0 loop
    on each of its final states, so the product backs off only where a word
    has just ended, on eps:eps arcs. L' and G' must share one word table
    object, in which `#0` is registered; both inputs are copied, not changed.
    """
    words = g_prime.isymbols
    if l_prime.osymbols is not words:
        raise SymbolTableMismatchError(l_prime.osymbols, words,
                                       "L' and G' must share one word table object")
    backoff = words.add(DISAMBIG)
    g = g_prime.copy()
    for s in g.states():
        arcs = g.arcs(s)
        for k, (i, o, w, t) in enumerate(arcs):
            if i == EPSILON_ID and o == EPSILON_ID:
                arcs[k] = (backoff, EPSILON_ID, w, t)
    l = l_prime.copy()
    for s in l.finals:
        l.arcs(s).append((EPSILON_ID, backoff, 0.0, s))
    return optim(compose(l, g))
