"""The bulk builders run with CPython's cyclic garbage collector paused
(`fst.nogc`) and build no reference cycles, so the pause leaves nothing for
a later collection: refcounting alone frees every machine, view and error
they drop."""

import gc
import random
import weakref
from collections import Counter

import pytest

from regexbias import grammar as gr
from regexbias import lm, ops
from regexbias.compiler import ast_to_nfa, compile_biased
from regexbias.errors import (
    BudgetExceededError,
    GrammarError,
    NondeterministicInputError,
    RegexBiasError,
    SymbolError,
    SymbolTableMismatchError,
)
from regexbias.fst import REGEX_NT, Wfst, linear_acceptor
from regexbias.textio import read_fst_text, write_fst_text

from conftest import make_table, pair_deterministic
from test_bench import SLOW_RUNGS, bench  # noqa: F401  (the fixture that imports bench/)

ENTITY_REGEXES = 20
LADDER = 'export = ("a" | "b")* "a" ("a" | "b"){6};'


def ladder_nfa(table):
    """A position automaton that is not deterministic per label pair."""
    return ast_to_nfa(gr.parse_grammar(LADDER).export_ast(), table)


def seed_1_lm(workloads, measure, size=200):
    return workloads.build_lm_root(
        workloads.inputs.lm_inputs(random.Random(1), size).corpus, measure.NullTracer())


@pytest.fixture
def cycle_check():
    """The collector off and saving what it finds. Yields a check that runs
    a collection and fails, naming the step and the objects' types, when
    it finds any unreachable object."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)

    def check(step):
        found = gc.collect()
        kinds = Counter(type(o).__name__ for o in gc.garbage).most_common(5)
        gc.garbage.clear()
        assert found == 0, f"{step} left {found} objects in reference cycles: {kinds}"

    try:
        yield check
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_builders_leave_no_cyclic_garbage(bench, cycle_check, ab_table):
    workloads, measure = bench
    off = measure.NullTracer()
    requests = workloads.RegexRequests(1)
    requests.setup(off)  # count_ngrams through build_root at V~200
    cycle_check("building the root")
    ladder = workloads.RegexLadder(1)
    ladder.setup(off)
    regexes = [requests.item(i) for i in range(ENTITY_REGEXES)]
    regexes += [rx for rx in ladder.regexes if rx.family not in SLOW_RUNGS]
    cycle_check("making the regexes")
    t_rs = [compile_biased(rx.text, ladder.alphabet, rx.alpha)[2] for rx in regexes]
    cycle_check("compile_biased")
    graph = requests.lm
    view = ops.replace(graph.root, requests.nonterminal, t_rs[0])
    for s in view.states():
        view.arcs(s)
    cycle_check("replace")
    back = read_fst_text(write_fst_text(graph.root), graph.charset, graph.words)
    cycle_check("the text round trip")
    sentence = " ".join(graph.vocab[:3])
    ops.shortest_path(ops.compose(linear_acceptor(sentence, graph.charset), back))
    cycle_check("shortest_path")
    with pytest.raises(SymbolError):
        ast_to_nfa(gr.parse_grammar('export = "a" ("b" | "c");').export_ast(), ab_table)
    cycle_check("ast_to_nfa's SymbolError")
    with pytest.raises(GrammarError):
        compile_biased('export = ("a" | "b")*;', ab_table, -1.0)
    cycle_check("compile_biased's GrammarError")
    with pytest.raises(BudgetExceededError):
        ops.determinize(ladder_nfa(ab_table), 3)
    cycle_check("determinize's BudgetExceededError")


def test_dropped_machines_die_by_refcount(bench, cycle_check):
    graph = seed_1_lm(*bench, size=50)
    root = graph.root
    t_r = compile_biased('export = "a" [0-9]{2};', graph.charset, -1.0)[2]
    indexed = len(ops._CALL_INDEXES)
    view = ops.replace(root, graph.words.id(REGEX_NT), t_r)
    for s in view.states():
        view.arcs(s)
    assert len(ops._CALL_INDEXES) == indexed + 1
    refs = [weakref.ref(m) for m in (root, view, t_r)]
    del graph, root, view, t_r
    assert [ref() for ref in refs] == [None, None, None]
    assert len(ops._CALL_INDEXES) == indexed  # the root's call index went with it
    cycle_check("dropping the root")


def test_collection_untracks_every_arc(bench):
    """An arc is a tuple of numbers, so the first collection after its build
    stops tracking it, and later collections do not rescan a machine's arcs."""
    graph = seed_1_lm(*bench)
    t_r = compile_biased('export = "a" [0-9]{2};', graph.charset, -1.0)[2]
    back = read_fst_text(write_fst_text(graph.root), graph.charset, graph.words)
    gc.collect()
    for name, m in (("root", graph.root), ("T_r", t_r), ("root read back", back)):
        tracked = sum(gc.is_tracked(arc) for s in m.states() for arc in m.arcs(s))
        assert m.num_arcs() > 0
        assert tracked == 0, f"{tracked} of the {name}'s {m.num_arcs()} arcs still tracked"


def collections_during(func, *args):
    """The generation of each collection that starts while func(*args) runs."""
    seen = []

    def record(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.callbacks.append(record)
    try:
        func(*args)
    finally:
        gc.callbacks.remove(record)
    return seen


def test_no_collection_inside_builders(bench, ab_table):
    graph = seed_1_lm(*bench)
    text = write_fst_text(graph.root)
    nfa = ladder_nfa(ab_table)
    assert gc.isenabled()
    assert collections_during(lm.build_root, graph.l_prime, graph.g_prime) == []
    assert collections_during(read_fst_text, text, graph.charset, graph.words) == []
    assert collections_during(ops.optim, nfa) == []
    assert gc.isenabled()


def nondeterministic(table):
    m = Wfst(table)
    m.add_states(3)
    m.set_start(0)
    m.add_arc(0, 1, 1, 0.0, 1)
    m.add_arc(0, 1, 1, 1.0, 2)
    m.set_final(1)
    m.set_final(2)
    return m


TYPED_ERRORS = {
    "ast_to_nfa": (SymbolError, lambda t: ast_to_nfa(
        gr.parse_grammar('export = "a" "c";').export_ast(), t)),
    "compile_biased": (GrammarError, lambda t: compile_biased('export = "a"?;', t, -1.0)),
    "determinize": (BudgetExceededError, lambda t: ops.determinize(ladder_nfa(t), 3)),
    "optim": (BudgetExceededError, lambda t: ops.optim(ladder_nfa(t), 3)),
    "minimize": (NondeterministicInputError, lambda t: ops.minimize(nondeterministic(t))),
    "compose": (SymbolTableMismatchError,
                lambda t: ops.compose(Wfst(t), Wfst(make_table(["a", "b"])))),
    "read_fst_text": (RegexBiasError, lambda t: read_fst_text("0\t1\t9\t9\n", t)),
    "count_ngrams": (RegexBiasError, lambda t: lm.count_ngrams(["a <s> b"])),
    "build_grammar": (RegexBiasError,
                      lambda t: lm.build_grammar(lm.NgramCounts(), lm.LmConfig(), t)),
    "build_lexicon": (RegexBiasError, lambda t: lm.build_lexicon(lm.Lexicon(), t, t)),
    "build_root": (SymbolTableMismatchError,
                   lambda t: lm.build_root(Wfst(t), Wfst(make_table(["a", "b"])))),
}


@pytest.mark.parametrize("builder", sorted(TYPED_ERRORS))
def test_collector_enabled_again_after_typed_error(builder, ab_table):
    error, call = TYPED_ERRORS[builder]
    with pytest.raises(error):
        call(ab_table)
    assert gc.isenabled()


def test_caller_disabled_collector_stays_disabled(bench, ab_table, monkeypatch):
    graph = seed_1_lm(*bench)
    inside = []
    optim = lm.optim

    def optim_then_look(a):
        out = optim(a)
        inside.append(gc.isenabled())
        return out

    monkeypatch.setattr(lm, "optim", optim_then_look)
    lm.build_root(graph.l_prime, graph.g_prime)
    assert inside == [False] and gc.isenabled()  # optim left the pause to build_root
    gc.disable()
    try:
        lm.build_root(graph.l_prime, graph.g_prime)
        read_fst_text(write_fst_text(graph.root), graph.charset, graph.words)
        with pytest.raises(BudgetExceededError):
            ops.optim(ladder_nfa(ab_table), 3)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_minimize_frees_determinized_machine_before_refining(monkeypatch, ab_table):
    """optim hands determinize's result to `_minimize` alone, which drops it
    before `_refine`, minimize's memory peak. A wrapper around `_minimize`,
    such as the collector pause, would keep it alive in its arguments."""
    made = []
    determinize, refine = ops.determinize, ops._refine

    def determinize_and_watch(a, state_budget):
        out = determinize(a, state_budget)
        made.append(weakref.ref(out))
        return out

    def refine_once_freed(finals, arcs):
        assert made[-1]() is None, "determinize's machine is still alive in _refine"
        return refine(finals, arcs)

    monkeypatch.setattr(ops, "determinize", determinize_and_watch)
    monkeypatch.setattr(ops, "_refine", refine_once_freed)
    m = nondeterministic(ab_table)
    assert not pair_deterministic(m)
    ops.optim(m)
    assert len(made) == 1
