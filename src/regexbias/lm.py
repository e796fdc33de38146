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
* L emits a word on the first character of its spelling and a space
  separator between words. Each word is spelled with its own characters:
  `ops.determinize` takes each (ilabel, olabel) pair as one label, so
  words that share a spelling, or whose spelling prefixes another's,
  already differ on their first arc, and L needs no disambiguation
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
    Arc,
    SymbolTable,
    Wfst,
    character_symbols,
    nogc,
)
from .ops import compose, optim
from .semiring import ZERO

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
    """Word -> character spelling map. Spellings may not contain spaces, and
    no word may be a token `count_ngrams` rejects."""

    def __init__(self, entries=None):
        self.entries: dict[str, tuple] = {}
        for word, spelling in (entries or {}).items():
            self.add(word, spelling)

    def add(self, word, spelling):
        spelling = tuple(spelling)
        if not word or not spelling:
            raise LexiconError(f"empty word or spelling: {word!r} -> {spelling!r}")
        if word in _RESERVED_TOKENS:
            raise LexiconError(f"lexicon word {word!r} is reserved")
        if WORD_SEPARATOR in spelling:
            raise LexiconError(f"spelling of {word!r} contains the word separator")
        self.entries[word] = spelling

    @classmethod
    def from_words(cls, words):
        """Spell each word with its own characters."""
        lex = cls()
        for w in words:
            lex.add(w, tuple(w))
        return lex

    def words(self):
        return sorted(self.entries)

    def __len__(self):
        return len(self.entries)


@nogc
def count_ngrams(lines) -> NgramCounts:
    """Exact unigram and bigram counts with sentence-boundary markers.

    A line holding a boundary marker, `<eps>` or a symbol of
    `fst.RESERVED` as a token raises RegexBiasError: each would be taken
    for the symbol it names.
    """
    counts = NgramCounts()
    uni, bi = counts.unigram, counts.bigram
    for lineno, line in enumerate(lines, 1):
        tokens = line.split()
        if not tokens:
            continue
        reserved = _RESERVED_TOKENS.intersection(tokens)
        if reserved:
            raise RegexBiasError(f"line {lineno}: corpus token {min(reserved)!r} is reserved")
        uni[SENTENCE_START] = uni.get(SENTENCE_START, 0) + 1
        prev = SENTENCE_START
        for tok in tokens:
            uni[tok] = uni.get(tok, 0) + 1
            bi[(prev, tok)] = bi.get((prev, tok), 0) + 1
            prev = tok
        uni[SENTENCE_END] = uni.get(SENTENCE_END, 0) + 1
        bi[(prev, SENTENCE_END)] = bi.get((prev, SENTENCE_END), 0) + 1
    return counts


def make_word_table(words, name="words") -> SymbolTable:
    return SymbolTable.from_symbols(sorted(words), name)


def _neglog(p: float) -> float:
    if p <= 0.0:
        return ZERO
    return -math.log(p)


def _unigram_layout(p_uni: dict, word_table: SymbolTable):
    """G's shared layout: the unigram state UNIGRAM_STATE, then one state per
    word of `p_uni` in sorted order, reached from it at -log p(w). Returns
    the machine, with no start state yet, and {word: state}."""
    if not p_uni:
        raise RegexBiasError("cannot build a grammar from an empty vocabulary")
    g = Wfst(word_table, word_table)
    g.add_state()
    word_state = {}
    for w in sorted(p_uni):
        word_state[w] = g.add_state()
        tok = word_table.id(w)
        g.add_arc(UNIGRAM_STATE, tok, tok, _neglog(p_uni[w]), word_state[w])
    return g, word_state


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
    """
    vocab = counts.vocabulary()
    d = cfg.backoff_discount
    total = sum(c for w, c in counts.unigram.items() if w != SENTENCE_START)
    p_uni = {w: counts.unigram[w] / total for w in vocab}
    g, word_state = _unigram_layout(p_uni, word_table)

    p_uni[SENTENCE_END] = counts.unigram.get(SENTENCE_END, 0) / total
    if p_uni[SENTENCE_END] > 0.0:
        g.set_final(UNIGRAM_STATE, _neglog(p_uni[SENTENCE_END]))

    contexts = {}
    for (w1, w2), c in counts.bigram.items():
        contexts.setdefault(w1, {})[w2] = c
    start_state = g.add_state()
    g.set_start(start_state)
    state_of = dict(word_state)
    state_of[SENTENCE_START] = start_state

    vocab_mass = math.fsum(p_uni[w] for w in vocab)
    for w1 in sorted(contexts):
        src = state_of[w1]
        conts = contexts[w1]
        c_ctx = sum(conts.values())
        exact = w1 == SENTENCE_START
        seen = [w for w in conts if w != SENTENCE_END]
        unseen_mass = vocab_mass - math.fsum(p_uni[w] for w in seen)
        end_unseen = SENTENCE_END not in conts and not exact
        if end_unseen:
            unseen_mass += p_uni[SENTENCE_END]
        # counts, not the float difference, decide there is nowhere to back off to
        discount = d if len(seen) < len(vocab) or end_unseen else 0.0
        for w2 in sorted(conts):
            p = (conts[w2] - discount) / c_ctx
            if w2 == SENTENCE_END:
                g.set_final(src, _neglog(p))
            else:
                g.add_arc(src, word_table.id(w2), word_table.id(w2),
                          _neglog(p), word_state[w2])
        if discount > 0.0:
            bow = (discount * len(conts) / c_ctx) / unseen_mass
            if exact:
                for w in vocab:
                    if w not in conts:
                        g.add_arc(src, word_table.id(w), word_table.id(w),
                                  _neglog(bow * p_uni[w]), word_state[w])
            else:
                g.add_arc(src, EPSILON_ID, EPSILON_ID, _neglog(bow), UNIGRAM_STATE)
    return g


@nogc
def build_lexicon(lex: Lexicon, charset: SymbolTable, word_table: SymbolTable) -> Wfst:
    """Characters -> words transducer, closed over word sequences with a
    space separator; each word is spelled with its own characters and its
    label rides on the first one. The input side is `charset`, unchanged;
    the output side is `word_table`, the table object G was built over."""
    if not len(lex):
        raise RegexBiasError("cannot build a lexicon machine from no entries")
    sep = charset.find(WORD_SEPARATOR)

    l = Wfst(charset, word_table)
    root = l.add_state()
    l.set_start(root)
    for w in lex.words():
        wid = word_table.find(w)
        if wid is None:
            raise SymbolError(f"word {w!r} missing from table {word_table.name!r}")
        cur = root
        out_label = wid
        for ch in lex.entries[w]:
            cid = charset.find(ch)
            if cid is None:
                raise LexiconError(
                    f"spelling of {w!r} uses unknown character {ch!r}"
                )
            nxt = l.add_state()
            l.add_arc(cur, cid, out_label, 0.0, nxt)
            cur = nxt
            out_label = EPSILON_ID
        l.set_final(cur, 0.0)
        if sep is not None:
            l.add_arc(cur, sep, EPSILON_ID, 0.0, root)
    return l


@nogc
def _add_unigram_tokens(g: Wfst, l: Wfst, tokens, weight: float):
    """Copies of G and L with unigram tokens, (character id, word symbol)
    pairs whose symbols are registered in the word table G and L share. G
    gains per token a loop on the unigram state and an arc into it from the
    start state at `weight`, or none at +inf. L gains one final state,
    entered from the start on each pair, looping on each pair that reads a
    character, and left for the start on the separator."""
    word_table = g.isymbols
    if word_table is not l.osymbols:
        raise SymbolTableMismatchError(word_table, l.osymbols,
                                       "G and L must share one word table object")
    g2, l2 = g.copy(), l.copy()
    hub = l2.add_state()
    for cid, symbol in tokens:
        tok = word_table.add(symbol)
        if weight != ZERO:  # +inf would kill the path anyway
            g2.add_arc(UNIGRAM_STATE, tok, tok, weight, UNIGRAM_STATE)
            if g2.start != UNIGRAM_STATE:
                g2.add_arc(g2.start, tok, tok, weight, UNIGRAM_STATE)
        l2.add_arc(l2.start, cid, tok, 0.0, hub)
        if cid != EPSILON_ID:  # an epsilon loop would emit tokens reading nothing
            l2.add_arc(hub, cid, tok, 0.0, hub)
    l2.set_final(hub, 0.0)
    sep = l2.isymbols.find(WORD_SEPARATOR)
    if sep is not None:
        l2.add_arc(hub, sep, EPSILON_ID, 0.0, l2.start)
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
    g = g_prime.copy()  # shares g_prime's arcs, so relabeling builds new ones
    for s in g.states():
        arcs = g.arcs(s)
        for k, arc in enumerate(arcs):
            if arc.ilabel == EPSILON_ID and arc.olabel == EPSILON_ID:
                arcs[k] = Arc(backoff, EPSILON_ID, arc.weight, arc.nextstate)
    l = l_prime.copy()
    for s in l.finals:
        l.add_arc(s, EPSILON_ID, backoff, 0.0, s)
    return optim(compose(l, g))
