import math
import random
import re
from collections import Counter

import pytest

from regexbias.compiler import compile_biased
from regexbias.errors import (
    ConfigError,
    LexiconError,
    RegexBiasError,
    SymbolError,
    SymbolTableMismatchError,
)
from regexbias.fst import (
    BLANK,
    DISAMBIG,
    EPSILON,
    EPSILON_ID,
    REGEX_NT,
    SymbolTable,
    Wfst,
    linear_acceptor,
)
from regexbias.lm import (
    UNIGRAM_STATE,
    Lexicon,
    LmConfig,
    NgramCounts,
    add_char_fallback,
    build_grammar,
    build_lexicon,
    build_root,
    count_ngrams,
    insert_nonterminal,
    make_word_table,
)
from regexbias.ops import (
    _shortest_distance,
    compose,
    determinize,
    minimize,
    optim,
    replace,
    shortest_path,
)
from regexbias.textio import read_fst_text, write_fst_text

from conftest import (
    all_arcs,
    arc_snapshot,
    check_eps_free,
    check_stochastic,
    connect,
    enumerate_paths,
    grammar_from_probs,
    join_paths,
    join_with_acceptor,
    make_table,
    pair_deterministic,
    paths_equal,
    replace_eager,
)


def charset_for(words, extra=" "):
    chars = sorted({c for w in words for c in w} | set(extra))
    return SymbolTable.from_symbols(chars, "chars")


def zipf_corpus(rng, n_words, n_lines, letters="abcdefgh", min_len=1):
    """Random distinct words of min_len-6 letters, then sentences of 1-8
    words drawn by 1/rank."""
    words = set()
    while len(words) < n_words:
        words.add("".join(rng.choice(letters) for _ in range(rng.randint(min_len, 6))))
    words = sorted(words)
    rng.shuffle(words)
    ranks = [1.0 / (r + 1) for r in range(len(words))]
    return [" ".join(rng.choices(words, weights=ranks, k=rng.randint(1, 8)))
            for _ in range(n_lines)]


def per_word_grammar(counts, cfg):
    """G's arcs as {(context, symbol, next context): weight} and its finals as
    {context: weight}, summing every context's unseen mass word by word.
    The unigram state is the context None."""
    vocab = counts.vocabulary()
    total = sum(c for w, c in counts.unigram.items() if w != "<s>")
    p_uni = {w: counts.unigram.get(w, 0) / total for w in vocab + ["</s>"]}
    arcs = {(None, w, w): -math.log(p_uni[w]) for w in vocab}
    finals = {None: -math.log(p_uni["</s>"])}
    contexts = {}
    for (w1, w2), c in counts.bigram.items():
        contexts.setdefault(w1, {})[w2] = c
    for w1, conts in contexts.items():
        c_ctx = sum(conts.values())
        unseen = [w for w in vocab if w not in conts]
        mass = sum(p_uni[w] for w in unseen)
        if "</s>" not in conts and w1 != "<s>":
            mass += p_uni["</s>"]
        discount = cfg.backoff_discount if mass > 0.0 else 0.0
        for w2, c in conts.items():
            weight = -math.log((c - discount) / c_ctx)
            if w2 == "</s>":
                finals[w1] = weight
            else:
                arcs[(w1, w2, w2)] = weight
        if discount:
            bow = discount * len(conts) / c_ctx / mass
            if w1 == "<s>":
                arcs.update({(w1, w, w): -math.log(bow * p_uni[w]) for w in unseen})
            else:
                arcs[(w1, "<eps>", None)] = -math.log(bow)
    return arcs, finals


def grammar_by_context(g):
    """build_grammar's output in per_word_grammar's form."""
    context = {UNIGRAM_STATE: None, g.start: "<s>"}
    for i, _, _, t in g.arcs(UNIGRAM_STATE):
        context[t] = g.isymbols.sym(i)
    arcs = {}
    for s, (i, _, w, t) in all_arcs(g):
        key = (context[s], g.isymbols.sym(i), context[t])
        assert key not in arcs
        arcs[key] = w
    return arcs, {context[s]: w for s, w in g.finals.items()}


def per_word_deviation(g, counts):
    """check_stochastic's deviation, summing each backoff state's unseen
    mass word by word over the vocabulary (O(V) per state)."""
    vocab = set(counts.vocabulary())
    total = sum(c for w, c in counts.unigram.items() if w != "<s>")
    p_uni = {w: counts.unigram[w] / total for w in counts.unigram if w != "<s>"}
    worst = 0.0
    for s in g.states():
        word_arcs = []
        backoff_weight = None
        for i, _, w, t in g.arcs(s):
            if i == EPSILON_ID:
                if t == UNIGRAM_STATE:
                    backoff_weight = w
                continue
            if t == UNIGRAM_STATE:
                continue
            symbol = g.isymbols.sym(i)
            if symbol in vocab:
                word_arcs.append((symbol, w))
        if not word_arcs and backoff_weight is None and not g.is_final(s):
            continue
        mass = sum(math.exp(-w) for _, w in word_arcs)
        if g.is_final(s):
            mass += math.exp(-g.final(s))
        if backoff_weight is not None:
            seen = {symbol for symbol, _ in word_arcs}
            unseen = sum(p for w, p in p_uni.items() if w in vocab and w not in seen)
            if not g.is_final(s):
                unseen += p_uni.get("</s>", 0.0)
            mass += math.exp(-backoff_weight) * unseen
        worst = max(worst, abs(mass - 1.0))
    return worst


def join_lexicon_grammar(l, g, max_len):
    """The root's paths with inputs up to `max_len`, by brute force: L's
    paths joined with G, min weight per pair."""
    return join_with_acceptor(enumerate_paths(l, max_len, max_out_len=max_len + 1), g)


class TestCountNgrams:
    def test_small_corpus(self):
        counts = count_ngrams(["foo", "bar", "foo bar"])
        assert counts.unigram["foo"] == 2
        assert counts.unigram["bar"] == 2
        assert counts.bigram[("foo", "bar")] == 1
        assert counts.unigram["<s>"] == 3 and counts.unigram["</s>"] == 3

    def test_empty_corpus(self):
        counts = count_ngrams([])
        assert counts.unigram == {} and counts.bigram == {}

    def test_blank_lines_skipped(self):
        counts = count_ngrams(["", "  ", "a"])
        assert counts.unigram["<s>"] == 1

    @pytest.mark.parametrize("marker", ["<s>", "</s>", EPSILON, BLANK, DISAMBIG, REGEX_NT])
    def test_boundary_marker_token_rejected(self, marker):
        # corpus text is outside input: a boundary marker would otherwise
        # reach build_grammar as a word and fail there untyped, and a
        # reserved symbol would silently become epsilon, the CTC blank, the
        # backoff marker or the nonterminal
        with pytest.raises(RegexBiasError, match=re.escape(f"line 3: corpus token '{marker}'")):
            count_ngrams(["a b", "", f"a {marker} b"])
        for line in (f"a{marker}", f"<{marker}>"):
            assert count_ngrams([line]).unigram[line] == 1

    def test_reads_a_generator_once(self):
        rng = random.Random(12)
        lines = [" ".join(rng.choice("abc") for _ in range(rng.randint(0, 5)))
                 for _ in range(200)]
        counts = count_ngrams(iter(lines))
        assert counts == count_ngrams(lines)
        assert counts.unigram["<s>"] == sum(1 for line in lines if line.split())
        with pytest.raises(RegexBiasError, match=re.escape("line 3: corpus token '#0'")):
            count_ngrams(line for line in ["a b", "", "a #0 b", "$REGEX"])

    def test_against_independent_counter(self):
        rng = random.Random(11)
        vocab = ["red", "green", "blue", "dot"]
        lines = [" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6)))
                 for _ in range(1000)]
        counts = count_ngrams(lines)
        # independent oracle: plain Counters over padded token streams
        uni, bi = Counter(), Counter()
        for line in lines:
            toks = ["<s>"] + line.split() + ["</s>"]
            uni.update(toks)
            bi.update(zip(toks, toks[1:]))
        assert counts.unigram == dict(uni)
        assert counts.bigram == dict(bi)

    def test_bigram_marginals_bounded(self):
        counts = count_ngrams(["a b a", "b a", "a"])
        marginals = Counter()
        for (w1, _), c in counts.bigram.items():
            marginals[w1] += c
        for w, total in marginals.items():
            assert total <= counts.unigram[w]


class TestGrammar:
    def test_fig2_handset_weights(self):
        g = grammar_from_probs({"foo": 0.001, "bar": 0.001}, {("foo", "bar"): 0.01},
                               make_word_table(["foo", "bar"]))
        by_label = {}
        for s, (i, _, w, _) in all_arcs(g):
            by_label[(s, g.isymbols.sym(i))] = w
        assert by_label[(g.start, "foo")] == pytest.approx(6.907755, abs=1e-6)
        assert by_label[(g.start, "bar")] == pytest.approx(6.907755, abs=1e-6)
        bigram = [w for s, (_, _, w, _) in all_arcs(g) if s != g.start]
        assert bigram == [pytest.approx(4.605170, abs=1e-6)]
        # the two-word model's paths
        paths = {tuple(k[0]): w for k, w in enumerate_paths(g, 2).items()}
        assert paths[("foo",)] == pytest.approx(6.907755, abs=1e-6)
        assert paths[("foo", "bar")] == pytest.approx(6.907755 + 4.605170, abs=1e-5)

    def test_neglog_conversion_exact(self):
        g = grammar_from_probs({"w": 0.001}, None, make_word_table(["w"]))
        (_, (_, _, w, _)), = list(all_arcs(g))
        assert w == pytest.approx(-math.log(0.001), abs=1e-9)

    def test_counted_grammar_connected_and_finite(self):
        counts = count_ngrams(["the cat sat", "the dog sat", "a cat"])
        g = build_grammar(counts, LmConfig(), make_word_table(counts.vocabulary()))
        ins, _, w = shortest_path(g)
        assert w < math.inf and ins
        # every state lies on an accepting path (connect is a no-op)
        assert connect(g).num_states() == g.num_states()

    def test_stochasticity(self):
        counts = count_ngrams(["the cat sat on the mat", "the dog sat", "a cat sat",
                               "the mat sat"])
        g = build_grammar(counts, LmConfig(), make_word_table(counts.vocabulary()))
        assert check_stochastic(g, counts) <= 1e-6

    def test_stochastic_with_fallback_and_nonterminal(self):
        # "a" is a word and a char token, both read from the start state
        corpus = ["the cat sat on the mat", "the dog sat", "a cat sat", "the mat sat"]
        counts = count_ngrams(corpus)
        words = counts.vocabulary()
        charset = charset_for(words)
        word_table = make_word_table(words)
        cfg = LmConfig()
        g = build_grammar(counts, cfg, word_table)
        l = build_lexicon(Lexicon.from_words(words), charset, word_table)
        g, l = add_char_fallback(g, l, charset, cfg)
        g, l = insert_nonterminal(g, l, cfg)
        assert check_stochastic(g, counts) <= 1e-6

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_unseen_mass_matches_per_word_sum(self, seed):
        rng = random.Random(seed)
        counts = count_ngrams(zipf_corpus(rng, rng.randint(5, 60), rng.randint(10, 200)))
        cfg = LmConfig(backoff_discount=rng.choice([0.1, 0.4, 0.7]))
        g = build_grammar(counts, cfg, make_word_table(counts.vocabulary()))
        want_arcs, want_finals = per_word_grammar(counts, cfg)
        got_arcs, got_finals = grammar_by_context(g)
        assert got_arcs == pytest.approx(want_arcs, abs=1e-9)
        assert got_finals == pytest.approx(want_finals, abs=1e-9)
        assert check_stochastic(g, counts) <= 1e-6

    def test_context_that_saw_every_word_has_no_backoff(self):
        # "a" is followed by a, b and </s>; "b" by a and b but never </s>
        counts = count_ngrams(["a a b a", "b b a", "a"])
        cfg = LmConfig()
        g = build_grammar(counts, cfg, make_word_table(counts.vocabulary()))
        arcs, _ = grammar_by_context(g)
        assert ("a", "<eps>", None) not in arcs
        assert ("b", "<eps>", None) in arcs
        assert arcs == pytest.approx(per_word_grammar(counts, cfg)[0], abs=1e-9)
        assert check_stochastic(g, counts) <= 1e-6

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_check_stochastic_matches_per_word_sum(self, seed):
        rng = random.Random(seed)
        counts = count_ngrams(zipf_corpus(rng, rng.randint(5, 80), rng.randint(10, 300)))
        words = counts.vocabulary()
        charset = charset_for(words)
        word_table = make_word_table(words)
        cfg = LmConfig(backoff_discount=rng.choice([0.1, 0.4, 0.7]))
        g = build_grammar(counts, cfg, word_table)
        l = build_lexicon(Lexicon.from_words(words), charset, word_table)
        g, l = add_char_fallback(g, l, charset, cfg)
        g, l = insert_nonterminal(g, l, cfg)
        assert any(i == EPSILON_ID for _, (i, _, _, _) in all_arcs(g))
        assert check_stochastic(g, counts) == pytest.approx(per_word_deviation(g, counts),
                                                            abs=1e-12)

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(RegexBiasError):
            build_grammar(count_ngrams([]), LmConfig(), make_word_table([]))

    def test_bad_config(self):
        with pytest.raises(ValueError):
            LmConfig(backoff_discount=0.0)
        with pytest.raises(ValueError):
            LmConfig(backoff_discount=1.0)
        with pytest.raises(ValueError):
            LmConfig(char_fallback_penalty=math.inf)

    @pytest.mark.parametrize("bad", [dict(backoff_discount=0.0),
                                     dict(char_fallback_penalty=math.nan)])
    def test_bad_config_is_typed(self, bad):
        with pytest.raises(ConfigError) as err:
            LmConfig(**bad)
        assert isinstance(err.value, RegexBiasError) and isinstance(err.value, ValueError)


class TestLexicon:
    def test_fig2b_topology_seven_states(self):
        lex = Lexicon(["foo", "bar"])
        charset = charset_for(["foo", "bar"])
        l = build_lexicon(lex, charset, make_word_table(lex.words()))
        assert l.num_states() == 7
        # two word paths, word emitted on the first character
        paths = enumerate_paths(l, 3)
        assert ((("f", "o", "o"), ("foo",))) in paths
        assert ((("b", "a", "r"), ("bar",))) in paths

    def test_single_char_word(self):
        lex = Lexicon(["a"])
        charset = charset_for(["a"])
        l = build_lexicon(lex, charset, make_word_table(lex.words()))
        paths = enumerate_paths(l, 1)
        assert paths == {(("a",), ("a",)): 0.0}

    def test_word_sequences_use_separator(self):
        lex = Lexicon(["ab", "c"])
        charset = charset_for(["ab", "c"])
        l = build_lexicon(lex, charset, make_word_table(lex.words()))
        paths = enumerate_paths(l, 6, max_out_len=6)
        assert (("a", "b", " ", "c"), ("ab", "c")) in paths

    def test_unknown_character_rejected(self):
        lex = Lexicon(["xy"])
        charset = make_table(["x"], "chars")
        with pytest.raises(LexiconError):
            build_lexicon(lex, charset, make_word_table(lex.words()))

    def test_spelling_with_space_rejected(self):
        with pytest.raises(LexiconError, match="lexicon word 'a b' contains the word separator"):
            Lexicon(["a b"])

    @pytest.mark.parametrize("word", ["<s>", "</s>", EPSILON, BLANK, DISAMBIG, REGEX_NT])
    def test_reserved_word_rejected(self, word):
        # the words count_ngrams rejects: `<eps>` would take id 0 and decode
        # as nothing, `#0` would be the backoff marker, `$REGEX` the nonterminal
        with pytest.raises(LexiconError, match=re.escape(f"lexicon word {word!r} is reserved")):
            Lexicon.from_words(["ab", word])

    def test_empty_word_rejected(self):
        with pytest.raises(LexiconError, match="empty lexicon word"):
            Lexicon(["ab", ""])

    def test_no_entries_rejected(self):
        with pytest.raises(RegexBiasError, match="cannot build a lexicon machine from no words"):
            build_lexicon(Lexicon(), charset_for(["ab"]), make_word_table(["ab"]))

    def test_word_missing_from_table_rejected(self):
        with pytest.raises(SymbolError, match="word 'cd' missing from table 'words'"):
            build_lexicon(Lexicon.from_words(["ab", "cd"]), charset_for(["abcd"]),
                          make_word_table(["ab"]))

    def test_root_keeps_prefixes_apart(self):
        # foo prefixes foobar. L writes the word on the first character and
        # determinize takes each label pair as one label, so no lexicon
        # symbol is needed to keep them apart
        cfg = LmConfig()
        lex = Lexicon(["foo", "foobar"])
        counts = count_ngrams(["foo foobar", "foo", "foobar foo foo", "foo foo"])
        charset = charset_for(["foobar"])
        word_table = make_word_table(lex.words())
        n_chars = len(charset)
        g = build_grammar(counts, cfg, word_table)
        l = build_lexicon(lex, charset, word_table)
        g, l = insert_nonterminal(g, l, cfg)
        root = build_root(l, g)
        # nothing is added to the charset, so no arc of L' or the root reads `#0`
        assert len(charset) == n_chars and charset.find(DISAMBIG) is None
        expected = join_lexicon_grammar(l, g, 10)
        assert {outs for (ins, outs) in expected if "".join(ins) == "foo"} == {("foo",)}
        assert {outs for (ins, outs) in expected if "".join(ins) == "foobar"} == {("foobar",)}
        assert paths_equal(enumerate_paths(root, 10, max_out_len=11), expected, tol=1e-6)
        trimmed = connect(root)
        assert (trimmed.num_states(), trimmed.num_arcs()) == (root.num_states(), root.num_arcs())
        # the backoff arcs, eps:eps, are the only eps-input arcs besides the
        # `$REGEX` call sites
        nt = word_table.id(REGEX_NT)
        eps_outputs = {o for _, (i, o, _, _) in all_arcs(root) if i == EPSILON_ID}
        assert eps_outputs == {EPSILON_ID, nt}

    def test_big_lexicon_determinizes(self):
        # 1k random words with shared prefixes must not blow the budget
        rng = random.Random(3)
        words = {"".join(rng.choice("abcd") for _ in range(rng.randint(1, 7)))
                 for _ in range(1400)}
        words = sorted(words)[:1000]
        lex = Lexicon.from_words(words)
        charset = charset_for(words)
        word_table = make_word_table(words)
        l = build_lexicon(lex, charset, word_table)
        out = determinize(l)
        assert pair_deterministic(out)


class TestComposeLG:
    def build_foobar(self):
        charset = charset_for(["foo", "bar"])
        word_table = make_word_table(["foo", "bar"])
        g = grammar_from_probs({"foo": 0.001, "bar": 0.001}, {("foo", "bar"): 0.01},
                               word_table)
        l = build_lexicon(Lexicon(["foo", "bar"]), charset, word_table)
        return charset, word_table, l, g

    def test_fig2c_weights(self):
        _, _, l, g = self.build_foobar()
        t = compose(l, g)
        paths = enumerate_paths(t, 8, max_out_len=4)
        strings = {"".join(k[0]): (k[1], w) for k, w in paths.items()}
        words, w = strings["foo"]
        assert words == ("foo",) and w == pytest.approx(6.907755, abs=1e-6)
        words, w = strings["foo bar"]
        assert words == ("foo", "bar") and w == pytest.approx(6.907755 + 4.605170, abs=1e-5)

    def test_optim_keeps_fig2_weight(self):
        _, _, l, g = self.build_foobar()
        t = optim(compose(l, g))
        paths = enumerate_paths(t, 8, max_out_len=4)
        strings = {"".join(k[0]): w for k, w in paths.items()}
        assert strings["foo"] == pytest.approx(6.907755, abs=1e-6)
        ins, outs, w = shortest_path(t)
        assert w == pytest.approx(6.907755, abs=1e-6)

    def test_start_at_the_unigram_state_gains_one_arc_per_token(self):
        # a G whose start is its unigram state gains one loop per token
        # there, not a loop and a start arc on the same state
        charset, word_table, l, g = self.build_foobar()
        assert g.start == UNIGRAM_STATE
        g2, _ = insert_nonterminal(g, l, LmConfig())
        nt = word_table.id(REGEX_NT)
        assert [arc for arc in g2.arcs(UNIGRAM_STATE) if arc[0] == nt] == \
               [(nt, nt, 0.0, UNIGRAM_STATE)]
        g3, _ = add_char_fallback(g, l, charset, LmConfig())
        assert len(g3.arcs(UNIGRAM_STATE)) == len(g.arcs(UNIGRAM_STATE)) + len(charset) - 2

    def test_optim_equals_brute_force_join(self):
        _, _, l, g = self.build_foobar()
        t = optim(compose(l, g))
        expected = join_paths(enumerate_paths(l, 8, max_out_len=8),
                              enumerate_paths(g, 8, max_out_len=8))
        # compare over strings enumerable on both sides
        got = enumerate_paths(t, 8, max_out_len=8)
        assert paths_equal(got, expected, tol=1e-6)


class TestNonterminal:
    def setup_model(self, cfg=None):
        cfg = cfg or LmConfig()
        corpus = ["foo bar", "bar foo", "foo"]
        counts = count_ngrams(corpus)
        charset = charset_for(["foo", "bar"])
        word_table = make_word_table(counts.vocabulary())
        g = build_grammar(counts, cfg, word_table)
        lex = Lexicon.from_words(counts.vocabulary())
        l = build_lexicon(lex, charset, word_table)
        g, l = add_char_fallback(g, l, charset, cfg)
        return charset, word_table, g, l, cfg

    def test_grammar_read_back_from_text_splices_the_same(self):
        # the unigram state is state 0, so nothing is lost through text
        cfg = LmConfig()
        counts = count_ngrams(["foo bar", "bar foo", "foo"])
        words = counts.vocabulary()
        charset = charset_for(words)
        word_table = make_word_table(words)
        g = build_grammar(counts, cfg, word_table)
        l = build_lexicon(Lexicon.from_words(words), charset, word_table)
        back = read_fst_text(write_fst_text(g), word_table, word_table)
        assert g.start != UNIGRAM_STATE
        for splice in (lambda g: add_char_fallback(g, l, charset, cfg),
                       lambda g: insert_nonterminal(g, l, cfg)):
            assert write_fst_text(splice(back)[0]) == write_fst_text(splice(g)[0])

    def test_steps_leave_their_inputs_unchanged(self):
        # a step that wrote into the arc lists it was given, not its own
        # copy's, would change every machine built from the same one
        cfg = LmConfig()
        counts = count_ngrams(["foo bar", "bar foo", "foo"])
        words = counts.vocabulary()
        charset = charset_for(words)
        word_table = make_word_table(words)
        g = build_grammar(counts, cfg, word_table)
        l = build_lexicon(Lexicon.from_words(words), charset, word_table)
        assert any(i == EPSILON_ID == o for _, (i, o, _, _) in all_arcs(g))
        machines = [g, l]
        snapshots = [arc_snapshot(g), arc_snapshot(l)]
        for step in (lambda g, l: add_char_fallback(g, l, charset, cfg),
                     lambda g, l: insert_nonterminal(g, l, cfg)):
            g, l = step(g, l)
            assert [arc_snapshot(m) for m in machines] == snapshots
            machines += [g, l]
            snapshots += [arc_snapshot(g), arc_snapshot(l)]
        root = build_root(l, g)
        assert [arc_snapshot(m) for m in machines] == snapshots
        assert any(i == EPSILON_ID == o for _, (i, o, _, _) in all_arcs(root))

    def test_registers_its_symbol(self):
        # bench/workloads.py registers `$REGEX` before the call; both give one root
        texts = []
        for preregistered in (False, True):
            charset, word_table, g, l, cfg = self.setup_model()
            if preregistered:
                word_table.add(REGEX_NT)
            else:
                assert word_table.find(REGEX_NT) is None
            g2, l2 = insert_nonterminal(g, l, cfg)
            texts.append([write_fst_text(m) for m in (g2, l2, build_root(l2, g2))])
        assert texts[0] == texts[1]

    def test_separate_word_tables_rejected(self):
        # equal tables are still two tables: a token or `#0` registered in
        # one would be missing from the other, so L' would write output
        # labels its own table does not hold
        cfg = LmConfig()
        counts = count_ngrams(["foo bar", "bar foo", "foo"])
        words = counts.vocabulary()
        charset = charset_for(words)
        g = build_grammar(counts, cfg, make_word_table(words))
        l = build_lexicon(Lexicon.from_words(words), charset, make_word_table(words))
        tables = [list(g.isymbols), list(l.osymbols), list(charset)]
        for step in (lambda: add_char_fallback(g, l, charset, cfg),
                     lambda: insert_nonterminal(g, l, cfg),
                     lambda: build_root(l, g)):
            with pytest.raises(SymbolTableMismatchError, match="equal but separate tables"):
                step()
            assert [list(g.isymbols), list(l.osymbols), list(charset)] == tables

    def test_nonterminal_survives_into_root(self):
        charset, word_table, g, l, cfg = self.setup_model()
        g2, l2 = insert_nonterminal(g, l, cfg)
        root = build_root(l2, g2)
        trimmed = connect(root)
        assert (trimmed.num_states(), trimmed.num_arcs()) == (root.num_states(), root.num_arcs())
        nt = word_table.id(REGEX_NT)
        nt_arcs = [arc for _, arc in all_arcs(root) if arc[1] == nt]
        assert nt_arcs, "nonterminal arcs must survive optim"
        assert all(i == EPSILON_ID for i, _, _, _ in nt_arcs)
        # outputs containing the token are reachable
        paths = enumerate_paths(root, 4, max_out_len=4)
        assert any(REGEX_NT in outs for _, outs in paths)

    def test_fallback_covers_oov(self):
        charset, word_table, g, l, cfg = self.setup_model()
        t = compose(l, g)
        # "fb" is out of vocabulary; the char loop must still accept it
        paths = enumerate_paths(t, 2, max_out_len=2)
        assert (("f", "b"), ("f", "b")) in paths
        # two char tokens, the first straight from the start, then </s> from
        # the unigram state: p(</s>) = 3/8 over foo:3, bar:2, </s>:3
        assert paths[(("f", "b"), ("f", "b"))] == pytest.approx(
            2 * cfg.char_fallback_penalty - math.log(3 / 8), abs=1e-9)

    def test_root_accepts_regex_only_line(self):
        charset, word_table, g, l, cfg = self.setup_model()
        g2, l2 = insert_nonterminal(g, l, cfg)
        paths = enumerate_paths(build_root(l2, g2), 1, max_out_len=1)
        # $REGEX straight from the start at no cost, then </s> from the
        # unigram state
        assert paths[((), (REGEX_NT,))] == pytest.approx(-math.log(3 / 8), abs=1e-6)

    def test_root_accepts_line_starting_oov(self):
        charset, word_table, g, l, cfg = self.setup_model()
        g2, l2 = insert_nonterminal(g, l, cfg)
        paths = enumerate_paths(build_root(l2, g2), 5, max_out_len=2)
        # "b" is not a word: char token b, then unigram foo, then foo's </s>
        d = cfg.backoff_discount
        want = cfg.char_fallback_penalty - math.log(3 / 8) - math.log((2 - d) / 3)
        assert paths[(("b", " ", "f", "o", "o"), ("b", "foo"))] == pytest.approx(want, abs=1e-6)

    def test_disambig_changes_only_the_size(self):
        # determinize takes G's eps:eps backoff arcs as one more label pair,
        # so L' o G' optimized without `#0` keeps the root's paths; `#0`
        # only keeps the backoff at word ends, which keeps the root small
        charset, word_table, g, l, cfg = self.setup_model()
        g, l = insert_nonterminal(g, l, cfg)
        plain = minimize(determinize(compose(l, g)))
        root = build_root(l, g)
        assert paths_equal(enumerate_paths(plain, 5, max_out_len=5),
                           enumerate_paths(root, 5, max_out_len=5), tol=1e-6)

    def test_no_negative_epsilon_cycles_in_root(self):
        charset, word_table, g, l, cfg = self.setup_model()
        g2, l2 = insert_nonterminal(g, l, cfg)
        root = build_root(l2, g2)
        assert not check_eps_free(root)
        # from every state at once: a negative eps:eps cycle anywhere raises
        _shortest_distance(root.num_states(), dict.fromkeys(root.states(), 0.0),
                           lambda s: [arc for arc in root.arcs(s)
                                      if arc[0] == EPSILON_ID == arc[1]])

    @pytest.mark.parametrize("with_nonterminal", [False, True])
    def test_root_with_colliding_spellings_is_plain_t(self, with_nonterminal):
        # "a" prefixes "ab" and "b" prefixes "ba", so the backoff's `#0` is
        # written where another word's spelling goes on; "ba" never ends a
        # sentence, so "ba" alone needs the backoff and then </s>
        cfg = LmConfig()
        counts = count_ngrams(["a ab", "b ba a", "ab b", "a b"])
        words = counts.vocabulary()
        word_table = make_word_table(words)
        g = build_grammar(counts, cfg, word_table)
        l = build_lexicon(Lexicon.from_words(words), charset_for(words), word_table)
        if with_nonterminal:
            g, l = insert_nonterminal(g, l, cfg)
        root = build_root(l, g)
        expected = join_lexicon_grammar(l, g, 6)
        assert ((("b", "a"), ("ba",))) in expected
        assert paths_equal(enumerate_paths(root, 6, max_out_len=7), expected, tol=1e-6)

    def test_root_arcs_at_most_twice_the_inputs(self):
        # the backoff survives optimization, so the root does not copy the
        # unigram fan-out into every history state. Words have two letters or
        # more: a one-letter word shares its symbol with the char-fallback
        # token, which makes G nondeterministic on it at the unigram state.
        rng = random.Random(5)
        corpus = zipf_corpus(rng, 150, 450, "abcdefghijklmnopqrstuvwxyz", min_len=2)
        cfg = LmConfig()
        counts = count_ngrams(corpus)
        words = counts.vocabulary()
        charset = charset_for(words)
        word_table = make_word_table(words)
        g = build_grammar(counts, cfg, word_table)
        l = build_lexicon(Lexicon.from_words(words), charset, word_table)
        g, l = add_char_fallback(g, l, charset, cfg)
        g, l = insert_nonterminal(g, l, cfg)
        assert len(words) >= 100
        assert build_root(l, g).num_arcs() <= 2 * (l.num_arcs() + g.num_arcs())

    def test_root_without_nonterminal_is_plain_t(self):
        charset, word_table, g, l, cfg = self.setup_model()
        plain = build_root(l, g)
        paths_plain = enumerate_paths(plain, 7, max_out_len=7)
        # G with the char loop has ~1M paths up to length 7: look L's
        # outputs up in G instead of enumerating both sides and joining
        expected = join_with_acceptor(enumerate_paths(l, 7, max_out_len=7), g)
        assert paths_equal(paths_plain, expected, tol=1e-6)


@pytest.mark.parametrize("digits", [1, 3, 6])
@pytest.mark.parametrize("alpha", [-2.0, 0.0, 7.0, 8.0, 9.0])
def test_digit_regex_splices_into_root(alpha, digits):
    # corpus -> root -> splice a compiled digit-run regex at `$REGEX`: an
    # entity in a sentence decodes to its characters, through `$REGEX` at
    # alpha per character where that is cheaper than char tokens at the
    # fallback penalty each, so alpha is absolute and 8.0 is neutral
    # whatever the entity's length
    rng = random.Random(13)
    cfg = LmConfig()
    counts = count_ngrams(zipf_corpus(rng, 30, 90, min_len=2))
    vocab = counts.vocabulary()
    charset = charset_for(vocab, extra=" 0123456789")
    words = make_word_table(vocab)
    g = build_grammar(counts, cfg, words)
    l = build_lexicon(Lexicon.from_words(vocab), charset, words)
    g, l = add_char_fallback(g, l, charset, cfg)
    g, l = insert_nonterminal(g, l, cfg)
    root = build_root(l, g)
    _, _, t_r = compile_biased('export = \\d+;', charset, alpha)
    spliced = replace(root, words.id(REGEX_NT), t_r)
    assert write_fst_text(spliced) == write_fst_text(replace_eager(root, words.id(REGEX_NT), t_r))

    w1, w2, w3 = rng.sample(vocab, 3)
    entity = "120521"[:digits]
    sentence = linear_acceptor(f"{w1} {w2} {entity} {w3}", charset)
    _, outs, cost = shortest_path(compose(sentence, spliced))
    _, base_outs, base = shortest_path(compose(sentence, root))
    assert outs == base_outs == (w1, w2, *entity, w3)
    gain = digits * min(0.0, alpha - cfg.char_fallback_penalty)
    assert cost == pytest.approx(base + gain, abs=1e-6)


def test_splice_matches_the_nonterminal_on_the_word_side():
    # `$REGEX` sorts first, so its word id is the charset id of "a": a
    # root arc or a T_r arc that reads "a" is neither a call site nor a
    # recursion
    cfg = LmConfig()
    counts = count_ngrams(["ab ba", "ab", "ba"])
    vocab = counts.vocabulary()
    charset = SymbolTable.from_symbols("abc ", "chars")
    words = make_word_table(vocab + [REGEX_NT])
    nt = words.id(REGEX_NT)
    assert nt == charset.id("a")
    g = build_grammar(counts, cfg, words)
    l = build_lexicon(Lexicon.from_words(vocab), charset, words)
    g, l = add_char_fallback(g, l, charset, cfg)
    g, l = insert_nonterminal(g, l, cfg)
    root = build_root(l, g)
    alpha = -1.0
    # (regex, sentence, its words, how many of its characters T_r reads)
    for text, sentence, want, n_entity in (('"c" "c"', "ab ba", ("ab", "ba"), 0),
                                           ('"a" "c"', "ab ac", ("ab", "a", "c"), 2)):
        _, _, t_r = compile_biased(f"export = {text};", charset, alpha)
        view = replace(root, nt, t_r)
        assert write_fst_text(view) == write_fst_text(replace_eager(root, nt, t_r))
        acceptor = linear_acceptor(sentence, charset)
        _, outs, cost = shortest_path(compose(acceptor, view))
        _, base_outs, base = shortest_path(compose(acceptor, root))
        assert outs == base_outs == want
        assert cost == pytest.approx(
            base + n_entity * (alpha - cfg.char_fallback_penalty), abs=1e-6)


def test_charset_without_separator():
    # with no " " in the charset, L never returns to its start: a line is
    # one word, or a char token or `$REGEX` then char tokens
    cfg = LmConfig()
    charset = SymbolTable.from_symbols("abcd0123", "chars")
    counts = count_ngrams(["ab", "ba", "abc", "ab", "cab"])
    vocab = counts.vocabulary()
    words = make_word_table(vocab)
    g = build_grammar(counts, cfg, words)
    l = build_lexicon(Lexicon.from_words(vocab), charset, words)
    g, l = add_char_fallback(g, l, charset, cfg)
    g, l = insert_nonterminal(g, l, cfg)
    root = build_root(l, g)
    assert (root.num_states(), root.num_arcs()) == (11, 29)

    def best(line, machine):
        return shortest_path(compose(linear_acceptor(line, charset), machine))[1]
    assert best("cab", root) == ("cab",)
    assert best("dd", root) == ("d", "d")
    _, _, t_r = compile_biased("export = [0-3]{2};", charset, -2.0)
    assert best("01", replace(root, words.id(REGEX_NT), t_r)) == ("0", "1")
