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
* The word table is shared by G and L's output side and also carries one
  token per recognizer character, so out-of-vocabulary spans can surface
  verbatim in the decoded token stream (the char-loop fallback).
* L emits a word on the first character of its spelling and a space
  separator between words; `#0` is appended to spellings that collide
  with or prefix another word's spelling.
* G backs off on eps:eps arcs. Inside `build_root` those arcs read `#0`
  too, which L passes through on its final states, so the backoff is
  taken only where a word has just ended; on the benchmark's corpora
  L' o G' is then deterministic per label pair and optim skips the subset
  construction. Without `#0` the product optimizes to the same paths, since
  determinize takes eps:eps as one more label pair, but the unigram
  fan-out is copied into every history state: 9,806 root arcs against
  278,406 on the benchmark's V~500 seed-1 corpus. Every `#0` is relabeled to
  epsilon after the root graph is optimized, so the root keeps eps:eps
  arcs: it is neither epsilon-free nor deterministic.
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
    Arc,
    SymbolTable,
    Wfst,
    character_symbols,
)
from .ops import compose, optim
from .semiring import ZERO

SENTENCE_START = "<s>"
SENTENCE_END = "</s>"
WORD_SEPARATOR = " "
UNIGRAM_STATE = 0


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
    """Word -> character spelling map. Spellings may not contain spaces."""

    def __init__(self, entries=None):
        self.entries: dict[str, tuple] = {}
        for word, spelling in (entries or {}).items():
            self.add(word, spelling)

    def add(self, word, spelling):
        spelling = tuple(spelling)
        if not word or not spelling:
            raise LexiconError(f"empty word or spelling: {word!r} -> {spelling!r}")
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


def count_ngrams(lines) -> NgramCounts:
    """Exact unigram and bigram counts with sentence-boundary markers.

    A line holding a marker, `<eps>`, `#0` or `$REGEX` as a token raises
    RegexBiasError: each would be taken for the symbol it names.
    """
    counts = NgramCounts()
    uni, bi = counts.unigram, counts.bigram
    for lineno, line in enumerate(lines, 1):
        tokens = line.split()
        if not tokens:
            continue
        for marker in (SENTENCE_START, SENTENCE_END, EPSILON, DISAMBIG, REGEX_NT):
            if marker in tokens:
                raise RegexBiasError(f"line {lineno}: corpus token {marker!r} is reserved")
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


def _unigram_layout(p_uni: dict, word_table: SymbolTable | None):
    """G's shared layout: the unigram state UNIGRAM_STATE, then one state per
    word of `p_uni` in sorted order, reached from it at -log p(w). Returns
    the machine, with no start state yet, and {word: state}."""
    if not p_uni:
        raise RegexBiasError("cannot build a grammar from an empty vocabulary")
    if word_table is None:
        word_table = make_word_table(p_uni)
    g = Wfst(word_table, word_table)
    g.add_state()
    word_state = {}
    for w in sorted(p_uni):
        word_state[w] = g.add_state()
        tok = word_table.id(w)
        g.add_arc(UNIGRAM_STATE, tok, tok, _neglog(p_uni[w]), word_state[w])
    return g, word_state


def _add_unigram_loops(g: Wfst, labels, weight: float) -> Wfst:
    """A copy of G with, per label, a loop on the unigram state and an arc
    into it from the start state, both at `weight`."""
    g2 = g.copy()
    for tok in labels:
        g2.add_arc(UNIGRAM_STATE, tok, tok, weight, UNIGRAM_STATE)
        if g2.start != UNIGRAM_STATE:
            g2.add_arc(g2.start, tok, tok, weight, UNIGRAM_STATE)
    return g2


def build_grammar(counts: NgramCounts, cfg: LmConfig,
                  word_table: SymbolTable | None = None) -> Wfst:
    """Bigram backoff acceptor over words.

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
    word_table = g.isymbols

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


def disambiguated_spellings(lex: Lexicon):
    """Append `#0` (repeated per extra collision) to spellings that equal or
    prefix another word's spelling, so the lexicon determinizes cleanly."""
    spellings = {w: tuple(sp) for w, sp in lex.entries.items()}
    by_spelling = {}
    for w in sorted(spellings):
        by_spelling.setdefault(spellings[w], []).append(w)
    # in sorted order the spellings a spelling prefixes follow it as one block
    ordered = sorted(by_spelling)
    out = {}
    for i, sp in enumerate(ordered):
        words = by_spelling[sp]
        extended = i + 1 < len(ordered) and ordered[i + 1][:len(sp)] == sp
        needs_marker = len(words) > 1 or extended
        for k, w in enumerate(words):
            if needs_marker:
                out[w] = sp + (DISAMBIG,) * (k + 1)
            else:
                out[w] = sp
    return out


def build_lexicon(lex: Lexicon, charset: SymbolTable,
                  word_table: SymbolTable | None = None) -> Wfst:
    """Characters -> words transducer, closed over word sequences with a
    space separator; the word label rides on the first character."""
    if not len(lex):
        raise RegexBiasError("cannot build a lexicon machine from no entries")
    if word_table is None:
        word_table = make_word_table(lex.words())
    spellings = disambiguated_spellings(lex)
    if any(DISAMBIG in sp for sp in spellings.values()):
        charset.add(DISAMBIG)
    sep = charset.find(WORD_SEPARATOR)

    l = Wfst(charset, word_table)
    root = l.add_state()
    l.set_start(root)
    for w in sorted(spellings):
        wid = word_table.find(w)
        if wid is None:
            raise SymbolError(f"word {w!r} missing from table {word_table.name!r}")
        spelling = spellings[w]
        cur = root
        out_label = wid
        for ch in spelling:
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


def add_char_fallback(g: Wfst, l: Wfst, charset: SymbolTable, cfg: LmConfig):
    """Attach the out-of-vocabulary escape hatch.

    The grammar's unigram state gains a self-loop per character token at
    char_fallback_penalty, and the start state an arc per character token
    into it at the same cost, so a line may begin with an out-of-vocabulary
    span; the lexicon gains identity character paths so any text can be
    consumed and resurfaced verbatim as char tokens.
    """
    word_table = g.isymbols
    if word_table is not l.osymbols and word_table != l.osymbols:
        raise SymbolTableMismatchError(word_table.name, l.osymbols.name)
    chars = [c for c in character_symbols(charset) if c != WORD_SEPARATOR]
    for c in chars:
        word_table.add(c)

    g2 = _add_unigram_loops(g, [word_table.id(c) for c in chars], cfg.char_fallback_penalty)

    l2 = l.copy()
    hub = l2.add_state()
    sep = charset.find(WORD_SEPARATOR)
    for c in chars:
        cid = charset.id(c)
        tok = word_table.id(c)
        l2.add_arc(l2.start, cid, tok, 0.0, hub)
        l2.add_arc(hub, cid, tok, 0.0, hub)
    l2.set_final(hub, 0.0)
    if sep is not None:
        l2.add_arc(hub, sep, EPSILON_ID, 0.0, l2.start)
    return g2, l2


def insert_nonterminal(g: Wfst, l: Wfst, cfg: LmConfig):
    """G', L': splice the `$REGEX` nonterminal in as a unigram word whose
    spelling is one epsilon, so a regex span can cover part of a sentence
    while the rest is scored by G. The `$REGEX` arc loops on the unigram
    state and also leads there from the start state, so a line may begin
    with, or consist of, a regex entity."""
    word_table = g.isymbols
    nt = word_table.find(REGEX_NT)
    if nt is None:
        raise SymbolError(
            f"{REGEX_NT!r} is not registered in the word table {word_table.name!r}"
        )
    # +inf would kill the path anyway
    labels = [nt] if cfg.nonterminal_weight != ZERO else []
    g2 = _add_unigram_loops(g, labels, cfg.nonterminal_weight)

    l2 = l.copy()
    end = l2.add_state()
    l2.add_arc(l2.start, EPSILON_ID, nt, 0.0, end)
    l2.set_final(end, 0.0)
    sep = l2.isymbols.find(WORD_SEPARATOR)
    if sep is not None:
        l2.add_arc(end, sep, EPSILON_ID, 0.0, l2.start)
    return g2, l2


def build_root(l_prime: Wfst, g_prime: Wfst) -> Wfst:
    """T_root = optim(L' o G') with every `#0` relabeled to epsilon after
    optimization; `$REGEX` labels pass through optim as ordinary symbols.

    G's eps:eps backoff arcs read `#0` during optimization, and L' passes
    `#0` through with a `#0:#0` loop on each of its final states, where a
    word has just ended. Both inputs are copied, not changed; `#0` is
    registered in their symbol tables. The root keeps the relabeled
    eps:eps arcs, so it is neither epsilon-free nor deterministic.
    """
    if l_prime.osymbols != g_prime.isymbols:
        raise SymbolTableMismatchError(
            l_prime.osymbols.name, g_prime.isymbols.name,
            "lexicon output side must be the grammar's word table",
        )
    char_disambig = l_prime.isymbols.add(DISAMBIG)
    word_disambig = l_prime.osymbols.add(DISAMBIG)
    g_prime.isymbols.add(DISAMBIG)
    g = g_prime.copy()  # shares g_prime's arcs, so relabeling builds new ones
    for s in g.states():
        arcs = g.arcs(s)
        for k, arc in enumerate(arcs):
            if arc.ilabel == EPSILON_ID and arc.olabel == EPSILON_ID:
                arcs[k] = Arc(word_disambig, EPSILON_ID, arc.weight, arc.nextstate)
    l = l_prime.copy()
    for s in l.finals:
        l.add_arc(s, char_disambig, word_disambig, 0.0, s)
    root = optim(compose(l, g))
    for _, arc in root.all_arcs():  # optim built root: no copy shares its arcs
        if arc.ilabel == char_disambig:
            arc.ilabel = EPSILON_ID
    return root
