import itertools
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regexbias import compiler, ops
from regexbias import grammar as gr
from regexbias.compiler import (
    BiasSpec,
    _positions,
    apply_bias,
    ast_to_nfa,
    compile_biased,
    dfa_to_acceptor,
    nfa_to_dfa,
    scorer,
)
from regexbias.errors import (
    BudgetExceededError,
    ConfigError,
    GrammarError,
    RegexBiasError,
    SymbolError,
)
from regexbias.fst import EPSILON, RESERVED, SymbolTable, character_symbols
from regexbias.ops import DETERMINIZE_STATE_BUDGET, compose
from regexbias.textio import write_fst_text

from conftest import (
    all_arcs,
    arc_snapshot,
    ast_fullmatch,
    ast_to_pattern,
    check_deterministic,
    check_eps_free,
    connect,
    enumerate_paths,
    make_table,
    pair_deterministic,
    per_label_nfa,
)


def accepts(machine, text):
    """Run the machine as a DFA over the characters of `text`."""
    if machine.is_empty():
        return False
    state = machine.start
    for ch in text:
        label = machine.isymbols.find(ch)
        if label is None:
            return False
        for i, _, _, t in machine.arcs(state):
            if i == label:
                state = t
                break
        else:
            return False
    return machine.is_final(state)


def language(machine, max_len):
    return {"".join(ins) for (ins, _) in enumerate_paths(machine, max_len)}


@pytest.fixture
def alnum_table():
    return make_table(list(string.ascii_uppercase) + list(string.digits) + [" "], "chars")


def fail_if_called(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return fail


def random_walk(machine, rng):
    """The labels along a random path from the start that ends in a final."""
    state, labels = machine.start, []
    while not (machine.is_final(state) and (rng.random() < 0.3 or not machine.arcs(state))):
        i, _, _, state = rng.choice(machine.arcs(state))
        labels.append(machine.isymbols.sym(i))
    return "".join(labels)


WIDE_TABLE = make_table(list(string.ascii_letters + string.digits + "/-"), "wide")


def parse_export(text):
    return gr.parse_grammar(f"export = {text};").export_ast()


# (regex, states, arcs, deterministic per label pair) of the per-label
# position automaton
POSITION_AUTOMATA = [
    ('"AB" [A-Z0-9]{6,10} [a-z]{1,2}?', 15, 518, True),  # a wide-code template
    ('[0-9]{2} "/" [0-9]{2} "/" [0-9]{4}', 11, 82, True),  # date
    ('"KM" [A-Z]{0,1} ("-")? [0-9]{2,4} ([A-Z]{2})?', 11, 194, True),  # plate
    ('("XCE" | "YTV") ("-")? [0-9]{1,4}', 12, 68, True),  # amount
    ('"Rqj" "-" [0-9]{3} [A-Z0-9]{7}', 15, 286, True),  # id
    # a digit span that overlaps the alphanumeric span after it
    ('"Qf" "-" [0-9]{1,3} [A-Z0-9]{7}', 14, 357, False),
    # currency codes that share a first letter
    ('("DEK" | "DSC") ("-")? [0-9]{3}', 11, 58, False),
]
# arcs of ast_to_nfa's result for each regex above, one per (link, label class)
CLASS_ARCS = dict(zip((text for text, *_ in POSITION_AUTOMATA), [38, 10, 25, 14, 28, 33, 13]))


class TestAstToNfa:
    def test_single_symbol_two_states(self, ab_table):
        nfa = ast_to_nfa(gr.Literal("a"), ab_table)
        assert nfa.num_states() == 2 and nfa.num_arcs() == 1

    def test_opt_semantics(self, ab_table):
        nfa = ast_to_nfa(gr.Repeat(gr.Literal("a"), 0, 1), ab_table)
        assert language(nfa, 3) == {"", "a"}

    def test_unknown_symbol(self, ab_table):
        with pytest.raises(SymbolError):
            ast_to_nfa(gr.Literal("z"), ab_table)

    @pytest.mark.parametrize("symbol", ["a", EPSILON, *sorted(RESERVED)])
    def test_reserved_symbol_is_no_regex_symbol(self, symbol):
        # a symbol is a regex character exactly when `character_symbols`
        # lists it: a T_r never reads `<eps>`, `<blank>`, `#0` or `$REGEX`,
        # though the alphabet holds them, and a Literal naming one raises as
        # a Class of only it does
        table = make_table(["a", *sorted(RESERVED)], "with_reserved")
        label, a = table.id(symbol), table.id("a")
        if symbol in character_symbols(table):
            for ast in (gr.Literal(symbol), gr.Class((symbol,))):
                assert ast_to_nfa(ast, table).arcs(0) == [(label, label, 0.0, 1)]
            return
        with pytest.raises(SymbolError, match="is not a character of the decoder alphabet"):
            ast_to_nfa(gr.Literal(symbol), table)
        with pytest.raises(SymbolError, match="has no symbols in the decoder alphabet"):
            ast_to_nfa(gr.Class((symbol,)), table)
        nfa = ast_to_nfa(gr.Class(("a", symbol)), table)
        assert nfa.arcs(0) == [(a, a, 0.0, 1)]

    def test_class_narrowed_but_nonempty(self, ab_table):
        nfa = ast_to_nfa(gr.Class(("a", "z")), ab_table)
        assert language(nfa, 2) == {"a"}
        with pytest.raises(SymbolError):
            ast_to_nfa(gr.Class(("x", "z")), ab_table)

    def test_empty_class_rejected(self, ab_table):
        # the grammar text cannot spell one; a class built through the API
        # has nothing left in any alphabet
        with pytest.raises(SymbolError, match="has no symbols in the decoder alphabet"):
            ast_to_nfa(gr.Class(()), ab_table)

    def test_repeated_class_members_build_one_arc(self):
        # a class lists each member once, so the NFA stays deterministic per
        # label pair and optim skips the subset construction; a Class built
        # through the API may name a member twice and still gets one arc
        def nfa_text(text):
            return write_fst_text(ast_to_nfa(parse_export(text), WIDE_TABLE))
        assert nfa_text("[a-za-z]{3}") == nfa_text("[a-z]{3}")
        label = WIDE_TABLE.id("a")
        assert ast_to_nfa(gr.Class(("a", "a")), WIDE_TABLE).arcs(0) == [(label, label, 0.0, 1)]

    def test_class_narrowed_once_per_node(self, monkeypatch):
        # the ten copies of [A-Z0-9] share one node, so its 36 symbols are
        # looked up in the alphabet once, not once per copy
        looked_up = []
        find = SymbolTable.find
        monkeypatch.setattr(SymbolTable, "find",
                            lambda table, symbol: looked_up.append(symbol) or find(table, symbol))
        nfa = ast_to_nfa(parse_export("[A-Z0-9]{6,10}"), WIDE_TABLE)
        assert len(looked_up) == 36
        assert nfa.num_arcs() == 10
        assert per_label_nfa(nfa).num_arcs() == 36 * 10

    def test_license_pattern_vs_reference_engine(self, alnum_table, rng):
        source = gr.parse_grammar('export = \\d [A-Z]{3} \\d{3};')
        ast = source.export_ast()
        nfa = ast_to_nfa(ast, alnum_table)
        dfa = nfa_to_dfa(nfa)
        pattern = re.compile(ast_to_pattern(ast))
        pool = string.ascii_uppercase + string.digits
        hits = 0
        for _ in range(200):
            if rng.random() < 0.5:
                s = (rng.choice(string.digits)
                     + "".join(rng.choice(string.ascii_uppercase) for _ in range(3))
                     + "".join(rng.choice(string.digits) for _ in range(3)))
            else:
                s = "".join(rng.choice(pool) for _ in range(7))
            expected = bool(pattern.fullmatch(s))
            assert accepts(dfa, s) == expected
            hits += expected
        assert hits >= 90  # the generator really does produce matches

    def test_doubling_grammar_over_budget(self, ab_table):
        # 60 doublings parse to 61 shared nodes but would unfold to 2**60 positions
        lines = ['d0 = "a";'] + [f"d{i} = d{i - 1} d{i - 1};" for i in range(1, 61)]
        with pytest.raises(BudgetExceededError, match="ast_to_nfa would build") as err:
            compile_biased("\n".join(lines + ["export = d60;"]), ab_table, 1.0)
        assert (err.value.stage, err.value.limit) == ("ast_to_nfa", DETERMINIZE_STATE_BUDGET)
        assert err.value.used == 2 ** 60 + 1  # one state per "a", plus the start

    @pytest.mark.parametrize("text, states, arcs, deterministic", POSITION_AUTOMATA)
    def test_position_automaton(self, text, states, arcs, deterministic, monkeypatch, rng):
        # one state per symbol position plus the start; an optional repeat
        # copy follows only the copy before it, so most entities come out
        # deterministic and optim skips the subset construction on them
        ast = gr.parse_grammar(f"export = {text};").export_ast()
        nfa = ast_to_nfa(ast, WIDE_TABLE)
        flat = per_label_nfa(nfa)
        assert (nfa.num_states(), nfa.num_arcs()) == (states, CLASS_ARCS[text])
        assert flat.num_arcs() == arcs
        assert pair_deterministic(nfa) == pair_deterministic(flat) == deterministic
        if deterministic:
            monkeypatch.setattr(ops, "determinize", fail_if_called("determinize"))
        dfa = nfa_to_dfa(nfa)
        pattern = re.compile(ast_to_pattern(ast))
        for _ in range(100):
            s = random_walk(dfa, rng)  # the DFA's walks use every class member
            assert pattern.fullmatch(s) and accepts(dfa, s), s
            k = rng.randrange(len(s))
            mutant = s[:k] + rng.choice(string.ascii_letters + string.digits + "/-") + s[k + 1:]
            assert accepts(dfa, mutant) == bool(pattern.fullmatch(mutant)), mutant

    def test_nested_repeats_over_budget(self, ab_table):
        with pytest.raises(BudgetExceededError, match="ast_to_nfa") as err:
            compile_biased('export = ((("a"{64}){64}){64}){64};', ab_table, 1.0)
        assert (err.value.stage, err.value.limit) == ("ast_to_nfa", DETERMINIZE_STATE_BUDGET)
        assert err.value.used > err.value.limit


AB_PATTERNS = ['("a" "b")* | "a"+', '("a" "b")*', '"a"* "b"?', '"a" "b"?', '"a" "b"*',
               '"a"{1,3} "b"?', '"a" | "b"{2}', '("a" | "b")* "a" ("a" | "b"){3}']
WIDE_PATTERNS = [text for text, *_ in POSITION_AUTOMATA] + [
    '\\d [A-Z]{3} \\d{3}', '[A-Z]{1,3} ("-" | \\d)+', '\\d{2} "X" \\d{2} | [A-C]+']


class TestAstFullmatch:
    """The reference engine `ast_fullmatch` agrees with Python `re` on the
    hand-written patterns, and finishes where `re` backtracks."""

    @pytest.mark.parametrize("text", AB_PATTERNS)
    def test_agrees_with_re_on_every_short_string(self, text):
        ast = gr.parse_grammar(f"export = {text};").export_ast()
        pattern = re.compile(ast_to_pattern(ast))
        for n in range(8):
            for chars in itertools.product("ab", repeat=n):
                s = "".join(chars)
                assert ast_fullmatch(ast, s) == bool(pattern.fullmatch(s)), s

    @pytest.mark.parametrize("text", WIDE_PATTERNS)
    def test_agrees_with_re_on_walks_and_mutants(self, text, rng):
        ast = gr.parse_grammar(f"export = {text};").export_ast()
        nfa = per_label_nfa(ast_to_nfa(ast, WIDE_TABLE))
        pattern = re.compile(ast_to_pattern(ast))
        symbols = string.ascii_letters + string.digits + "/-"
        hits = 0
        for _ in range(100):
            s = random_walk(nfa, rng)
            k = rng.randrange(len(s))
            for t in (s, s[:k] + rng.choice(symbols) + s[k + 1:], s[:k], s + s[k]):
                expected = bool(pattern.fullmatch(t))
                assert ast_fullmatch(ast, t) == expected, t
                hits += expected
        assert hits >= 100  # every walk matches

    def test_nested_nullable_repeat_finishes(self):
        # (?:(?:a||){3,}){1,} matches any run of a's; `re` takes seconds on a
        # five-letter miss and longer than any test budget on longer ones
        nullable = gr.Union((gr.Literal("a"), gr.Concat(()), gr.Concat(())))
        ast = gr.Repeat(gr.Repeat(nullable, 3, None), 1, None)
        assert ast_fullmatch(ast, "a" * 40)
        assert not ast_fullmatch(ast, "a" * 40 + "b")


AB_TABLE = make_table(["a", "b"], "ab")
LEAVES = st.sampled_from([gr.Literal("a"), gr.Literal("b"), gr.Class(("a", "b")),
                          gr.Concat(())])


def _branches(children):
    parts = st.lists(children, min_size=1, max_size=3).map(tuple)
    return st.one_of(
        parts.map(gr.Concat),
        parts.map(gr.Union),
        st.builds(lambda child, lo, extra: gr.Repeat(child, lo, None if extra is None
                                                     else lo + extra),
                  children, st.integers(0, 3), st.none() | st.integers(0, 2)),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.recursive(LEAVES, _branches, max_leaves=8))
def test_random_ast_matches_reference_engine(ast):
    nfa = ast_to_nfa(ast, AB_TABLE)
    assert _positions(ast, {}) + 1 == nfa.num_states()
    dfa = nfa_to_dfa(nfa)
    for n in range(6):
        for chars in itertools.product("ab", repeat=n):
            s = "".join(chars)
            assert accepts(dfa, s) == ast_fullmatch(ast, s), (ast, s)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.recursive(LEAVES, _branches, max_leaves=8))
def test_random_ast_gives_position_automaton(ast):
    # no eps arcs, none into the start, and every arc into a state carries
    # the same labels as the others into it
    nfa = ast_to_nfa(ast, AB_TABLE)
    assert _positions(ast, {}) + 1 == nfa.num_states()
    assert check_eps_free(nfa)
    into = {}
    for src, (i, _, _, t) in all_arcs(nfa):
        into.setdefault(t, {}).setdefault(src, set()).add(i)
    assert 0 not in into
    for by_source in into.values():
        assert len({frozenset(labels) for labels in by_source.values()}) == 1


class TestNfaToDfa:
    def test_a_or_a_single_arc(self, ab_table):
        nfa = ast_to_nfa(gr.Union((gr.Literal("a"), gr.Literal("a"))), ab_table)
        dfa = nfa_to_dfa(nfa)
        assert dfa.num_arcs() == 1 and dfa.num_states() == 2

    def test_language_equality_up_to_6(self, ab_table):
        ast = gr.parse_grammar('export = ("a" "b")* | "a"+;').export_ast()
        nfa = ast_to_nfa(ast, ab_table)
        dfa = nfa_to_dfa(nfa)
        assert check_deterministic(dfa)
        assert language(dfa, 6) == language(nfa, 6)

    def test_ab_star_two_live_states(self, ab_table):
        ast = gr.parse_grammar('export = ("a" "b")*;').export_ast()
        dfa = nfa_to_dfa(ast_to_nfa(ast, ab_table))
        assert dfa.num_states() == 2

    def test_deterministic_property_set(self, ab_table):
        ast = gr.parse_grammar('export = "a"* "b"?;').export_ast()
        dfa = nfa_to_dfa(ast_to_nfa(ast, ab_table))
        assert check_deterministic(dfa) and check_eps_free(dfa)

    def test_optim_runs_on_one_arc_per_class(self, monkeypatch):
        # K and F are also carried by positions of their own, the other 34
        # members of [A-Z0-9] only by the class positions: three classes, so
        # optim sees three arcs into each class position
        seen = []

        def recording_optim(m, state_budget):
            seen.append(m)
            return ops.optim(m, state_budget)

        monkeypatch.setattr(compiler, "optim", recording_optim)
        nfa = ast_to_nfa(parse_export('"KF" [A-Z0-9]{8}'), WIDE_TABLE)
        dfa = nfa_to_dfa(nfa)
        assert seen == [nfa]
        assert [len(nfa.arcs(s)) for s in nfa.states()] == [1, 1] + [3] * 8 + [0]
        for s in range(2, 10):
            assert sorted(WIDE_TABLE.sym(i) for i, _, _, _ in nfa.arcs(s)) == ["A", "F", "K"]
        assert (dfa.num_states(), dfa.num_arcs()) == (11, 2 + 36 * 8)
        assert write_fst_text(dfa) == write_fst_text(ops.optim(per_label_nfa(nfa)))

    def test_nullable_chain(self):
        # follow sets are quadratic over chains of nullable copies; each
        # link into an [a-z] position carries two classes, {b} and the other
        # 25 letters
        nfa = ast_to_nfa(parse_export('"b" (([a-z]?){16}){4}'), WIDE_TABLE)
        dfa = nfa_to_dfa(nfa)
        assert (nfa.num_states(), nfa.num_arcs()) == (66, 4161)
        assert per_label_nfa(nfa).num_arcs() == 54081
        assert (dfa.num_states(), dfa.num_arcs()) == (66, 1665)
        assert write_fst_text(dfa) == write_fst_text(ops.optim(per_label_nfa(nfa)))

    def test_budget_raises_as_optim_does(self):
        # b and c move alike, and the DFA needs 2**5 states
        table = make_table(list("abc"), "abc")
        nfa = ast_to_nfa(parse_export('[abc]* "a" [abc]{4}'), table)
        raised = []
        for build, m in ((nfa_to_dfa, nfa), (ops.optim, per_label_nfa(nfa))):
            with pytest.raises(BudgetExceededError) as err:
                build(m, 10)
            raised.append((err.value.stage, err.value.limit, err.value.used))
        assert raised == [("determinize", 10, 10)] * 2


CLASS_TABLE = make_table(list("abc"), "abc")
# classes that overlap, so a regex's label classes merge and split
CLASS_LEAVES = st.sampled_from([gr.Literal("a"), gr.Literal("b"), gr.Class(("a", "b")),
                                gr.Class(("a", "c")), gr.Class(("b", "c")),
                                gr.Class(("a", "b", "c")), gr.Concat(())])


def built_or_raised(build, m, state_budget):
    """build(m, state_budget)'s machine text, or its budget error's fields."""
    try:
        return write_fst_text(build(m, state_budget))
    except BudgetExceededError as err:
        return err.stage, err.limit, err.used


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.recursive(CLASS_LEAVES, _branches, max_leaves=8))
def test_nfa_to_dfa_equals_optim(ast):
    # optim of the class automaton, expanded, is optim of the per-label one,
    # and a budget stops both at the same point
    nfa = ast_to_nfa(ast, CLASS_TABLE)
    for state_budget in (3, 8, DETERMINIZE_STATE_BUDGET):
        assert built_or_raised(nfa_to_dfa, nfa, state_budget) == \
            built_or_raised(ops.optim, per_label_nfa(nfa), state_budget)
    dfa = nfa_to_dfa(nfa)
    for n in range(6):
        for chars in itertools.product("abc", repeat=n):
            s = "".join(chars)
            assert accepts(dfa, s) == ast_fullmatch(ast, s), (ast, s)


class TestCompileGrammar:
    def test_empty_string_rejected(self, ab_table):
        for text in ['export = "a"*;', 'export = "a"?;', 'export = "";', 'export = "a" | "";']:
            with pytest.raises(GrammarError, match="empty string"):
                compile_biased(text, ab_table, -1.0)

    def test_empty_string_rejected_before_subset_construction(self, ab_table, monkeypatch):
        # the start is final exactly when the regex is nullable, so a regex
        # whose DFA has 2**17 states fails without building it
        monkeypatch.setattr(compiler, "nfa_to_dfa", fail_if_called("nfa_to_dfa"))
        with pytest.raises(GrammarError, match="empty string"):
            compile_biased('export = (("a" | "b")* "a" ("a" | "b"){16})?;', ab_table, 1.0)


class TestDfaToAcceptor:
    def test_identity_labels_zero_weights(self, ab_table):
        ast = gr.parse_grammar('export = "a" "b"?;').export_ast()
        r = dfa_to_acceptor(nfa_to_dfa(ast_to_nfa(ast, ab_table)))
        for _, (i, o, w, _) in all_arcs(r):
            assert i == o
            assert w == 0.0
        assert all(w == 0.0 for w in r.finals.values())

    def test_ab_star_topology(self, ab_table):
        # "ab*": one required a, then b loops; two states, the second final
        ast = gr.parse_grammar('export = "a" "b"*;').export_ast()
        r = dfa_to_acceptor(nfa_to_dfa(ast_to_nfa(ast, ab_table)))
        assert r.num_states() == 2
        assert r.num_arcs() == 2
        assert language(r, 4) == {"a", "ab", "abb", "abbb"}

    def test_acceptance_set_preserved(self, ab_table):
        ast = gr.parse_grammar('export = "a"{1,3} "b"?;').export_ast()
        dfa = nfa_to_dfa(ast_to_nfa(ast, ab_table))
        r = dfa_to_acceptor(dfa)
        assert language(r, 5) == language(dfa, 5)


class TestApplyBias:
    def test_abb_costs_minus_three(self, ab_table):
        ast = gr.parse_grammar('export = "a" "b"*;').export_ast()
        r = dfa_to_acceptor(nfa_to_dfa(ast_to_nfa(ast, ab_table)))
        t_r = apply_bias(r, BiasSpec(-1.0))
        paths = {"".join(k[0]): w for k, w in enumerate_paths(t_r, 4).items()}
        assert paths["abb"] == pytest.approx(-3.0)
        assert paths == pytest.approx({"a": -1.0, "ab": -2.0, "abb": -3.0, "abbb": -4.0})

    def test_leaves_r_unchanged(self, ab_table):
        # T_r starts as a copy of R, so biasing must fill T_r's own arc
        # lists and leave R's as they were
        ast = gr.parse_grammar('export = "a" "b"*;').export_ast()
        r = dfa_to_acceptor(nfa_to_dfa(ast_to_nfa(ast, ab_table)))
        before = arc_snapshot(r)
        t_r = apply_bias(r, BiasSpec(-1.5))
        assert arc_snapshot(r) == before
        assert arc_snapshot(t_r) == [(s, i, o, w - 1.5, t) for s, i, o, w, t in before]

    def test_alpha_zero_language_unchanged(self, ab_table):
        ast = gr.parse_grammar('export = "a" | "b"{2};').export_ast()
        r = dfa_to_acceptor(nfa_to_dfa(ast_to_nfa(ast, ab_table)))
        t_r = apply_bias(r, BiasSpec(0.0))
        paths = enumerate_paths(t_r, 4)
        assert all(w == 0.0 for w in paths.values())
        assert language(t_r, 4) == language(r, 4)

    def test_random_path_weights_are_length_linear(self, alnum_table, rng):
        source, r, t_r = compile_biased('export = [A-Z]{1,4} ("-" | \\d)*;'
                                        .replace("-", " "), alnum_table, -2.5)
        paths = enumerate_paths(t_r, 5)
        assert len(paths) >= 50
        for (ins, _), w in paths.items():
            assert w == pytest.approx(-2.5 * len(ins), abs=1e-9)

    def test_bias_never_changes_language(self, alnum_table):
        _, r, t_r = compile_biased('export = \\d{2} "/" \\d{2};'
                                   .replace("/", "X"), alnum_table, -4.0)
        assert language(t_r, 6) == language(r, 6)

    def test_alpha_must_be_finite(self):
        with pytest.raises(ValueError):
            BiasSpec(float("inf"))
        with pytest.raises(ValueError):
            BiasSpec(float("nan"))
        for alpha in (float("-inf"), float("nan")):
            with pytest.raises(ConfigError) as err:
                BiasSpec(alpha)
            assert isinstance(err.value, RegexBiasError)

    @pytest.mark.parametrize("alpha", [float("nan"), float("-inf")])
    def test_bad_alpha_rejected_before_compiling(self, monkeypatch, ab_table, alpha):
        # the subset construction of this export takes seconds
        monkeypatch.setattr(compiler, "ast_to_nfa", fail_if_called("ast_to_nfa"))
        with pytest.raises(ConfigError):
            compile_biased('export = ("a" | "b")* "a" ("a" | "b"){14};', ab_table, alpha)

    @pytest.mark.parametrize("text", [
        'export = "A" "B"*;',
        'export = ("A" | "B")* "A" ("A" | "B"){3};',
        'export = [A-Z]{1,3} ("-" | \\d)+;'.replace("-", " "),
        'export = \\d{2} "X" \\d{2} | [A-C]+;',
    ])
    def test_equals_scorer_composition(self, text, alnum_table):
        # the one-copy fold against the composition it replaces, byte for byte
        for alpha in (-2.5, 0.0, 1.0):
            _, r, t_r = compile_biased(text, alnum_table, alpha)
            oracle = connect(compose(scorer(alnum_table, alpha), r))
            assert write_fst_text(t_r) == write_fst_text(oracle)
            assert write_fst_text(apply_bias(r, BiasSpec(alpha))) == write_fst_text(oracle)


class TestScorer:
    def test_single_state_loops(self, ab_table):
        s = scorer(ab_table, -3.0)
        assert s.num_states() == 1
        assert s.num_arcs() == 2
        assert all(w == -3.0 for _, (_, _, w, _) in all_arcs(s))
        assert s.final(s.start) == 0.0
