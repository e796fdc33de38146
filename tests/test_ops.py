import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regexbias import ops
from regexbias.compiler import compile_biased
from regexbias.errors import (
    BudgetExceededError,
    NegativeCycleError,
    NondeterministicInputError,
    NoPathError,
    ReplaceRecursionError,
    SymbolError,
    SymbolTableMismatchError,
)
from regexbias.fst import EPSILON_ID, ZERO, Fst, SymbolTable, Wfst, linear_acceptor
from regexbias.ops import (
    ReplaceNoOpWarning,
    _minimize,
    _refine,
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
    _eps_closure,
    acceptor_weights,
    all_arcs,
    check_deterministic,
    connect,
    enumerate_paths,
    join_paths,
    make_table,
    moore_classes,
    pair_deterministic,
    partition,
    path_counts,
    paths_equal,
    random_machine,
    replace_eager,
)
from test_bench import bench  # noqa: F401  (the fixture that imports bench/)


def identity_scorer(table, weight):
    """One-state machine mapping every symbol to itself at a fixed cost."""
    m = Wfst(table, table)
    s = m.add_state()
    m.set_start(s)
    m.set_final(s, 0.0)
    for i in range(1, len(table)):
        m.add_arc(s, i, i, weight, s)
    return m


class TestEnumeratePaths:
    def test_empty_machine(self, ab_table):
        assert enumerate_paths(Wfst(ab_table), 4) == {}

    def test_single_path(self, ab_table):
        m = linear_acceptor("ab", ab_table, arc_weight=1.0)
        paths = enumerate_paths(m, 4)
        assert paths == {(("a", "b"), ("a", "b")): 2.0}

    def test_min_aggregation(self, ab_table):
        m = Wfst(ab_table)
        m.add_states(2)
        m.set_start(0)
        m.add_arc(0, 1, 1, 3.0, 1)
        m.add_arc(0, 1, 1, 1.0, 1)
        m.set_final(1)
        paths = enumerate_paths(m, 2)
        assert paths == {(("a",), ("a",)): 1.0}

    def test_agrees_with_shortest_path(self, rng, abcd_table):
        for _ in range(40):
            m = random_machine(rng, abcd_table, acyclic=True)
            paths = enumerate_paths(m, 8, max_out_len=8)
            try:
                ins, outs, w = shortest_path(m)
            except NoPathError:
                assert not paths
                continue
            assert min(paths.values()) == pytest.approx(w, abs=1e-9)
            assert paths[(ins, outs)] == pytest.approx(w, abs=1e-9)

    def test_budget(self, ab_table):
        m = Wfst(ab_table)
        s = m.add_state()
        m.set_start(s)
        m.set_final(s)
        m.add_arc(s, 1, 1, 0.0, s)
        m.add_arc(s, 2, 2, 0.0, s)
        with pytest.raises(BudgetExceededError) as err:
            enumerate_paths(m, 30, path_budget=100)
        assert (err.value.stage, err.value.limit, err.value.used) == ("enumerate_paths", 100, 101)


class TestAcceptorWeights:
    """The conftest walk that decides the root-equivalence test in test_lm,
    checked against enumerate_paths."""

    def test_matches_enumerate_paths_random(self, rng, abcd_table):
        symbols = [abcd_table.sym(i) for i in range(1, len(abcd_table))]
        sequences = [seq for n in range(6) for seq in itertools.product(symbols, repeat=n)]
        with_eps = accepted = 0
        for _ in range(60):
            m = random_machine(rng, abcd_table, acceptor=True)
            with_eps += any(i == EPSILON_ID for _, (i, _, _, _) in all_arcs(m))
            expected = {ins: w for (ins, _), w in enumerate_paths(m, 5).items()}
            got = acceptor_weights(m, sequences)
            for seq in sequences:
                assert got[seq] == pytest.approx(expected.get(seq, ZERO), abs=1e-9)
            accepted += len(expected)
        assert with_eps >= 30 and accepted >= 500


class TestShortestPath:
    def test_single_path_machine(self, ab_table):
        m = linear_acceptor("ab", ab_table, arc_weight=0.25, final_weight=0.5)
        assert shortest_path(m) == (("a", "b"), ("a", "b"), 1.0)

    def test_no_accepting_path(self, ab_table):
        m = Wfst(ab_table)
        m.add_state()
        m.set_start(0)
        with pytest.raises(NoPathError, match="no accepting path from the start state"):
            shortest_path(m)

    def test_empty_machine(self, ab_table):
        with pytest.raises(NoPathError, match="machine has no states"):
            shortest_path(Wfst(ab_table))

    def test_negative_cycle_identified(self, ab_table):
        m = Wfst(ab_table)
        m.add_states(2)
        m.set_start(0)
        m.add_arc(0, 1, 1, -1.0, 1)
        m.add_arc(1, 1, 1, -1.0, 0)
        m.set_final(1)
        with pytest.raises(NegativeCycleError) as err:
            shortest_path(m)
        assert set(err.value.states) <= {0, 1} and err.value.states

    def test_negative_arcs_without_cycle(self, ab_table):
        m = linear_acceptor("aab", ab_table, arc_weight=-2.0)
        assert shortest_path(m)[2] == pytest.approx(-6.0)

    def test_negative_cycle_named_not_the_queue(self, ab_table):
        # the one negative cycle is 1 -> 3 -> 1 at -1, and exactly its
        # states are named
        m = Wfst(ab_table)
        m.add_states(4)
        m.set_start(0)
        for src, w, dst in [(0, 3.0, 1), (1, -2.0, 0), (1, 0.0, 3), (3, -1.0, 1)]:
            m.add_arc(src, 1, 1, w, dst)
        m.set_final(3)
        with pytest.raises(NegativeCycleError) as err:
            shortest_path(m)
        assert sorted(err.value.states) == [1, 3]

    def test_negative_cycle_named_is_one_random(self, ab_table):
        # every error names states whose arcs among themselves close a
        # negative cycle, checked by Bellman-Ford on those arcs alone
        rng = random.Random(28)
        errors = 0
        for _ in range(300):
            n = rng.randint(3, 12)
            m = Wfst(ab_table)
            m.add_states(n)
            m.set_start(0)
            for _ in range(rng.randint(n, 3 * n)):
                m.add_arc(rng.randrange(n), 1, 1, rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0]),
                          rng.randrange(n))
            m.set_final(rng.randrange(n))
            try:
                shortest_path(m)
            except NegativeCycleError as err:
                errors += 1
                named = set(err.states)
                inner = [(s, w, t) for s, (_, _, w, t) in all_arcs(m) if s in named and t in named]
                assert named and has_negative_cycle(named, inner), (write_fst_text(m), named)
            except NoPathError:
                pass
        assert errors >= 150


def has_negative_cycle(states, arcs):
    """Bellman-Ford from a virtual source at 0 into every state: an arc that
    still improves after len(states) rounds lies on a negative cycle."""
    dist = dict.fromkeys(states, 0.0)
    for _ in range(len(states)):
        for s, w, t in arcs:
            dist[t] = min(dist[t], dist[s] + w)
    return any(dist[s] + w < dist[t] for s, w, t in arcs)


def dead_end_machine(table):
    """0 -a:a-> 1, final, and 0 -b:b-> 2, which reaches no final."""
    m = Wfst(table)
    m.add_states(3)
    m.set_start(0)
    m.add_arc(0, 1, 1, 1.0, 1)
    m.add_arc(0, 2, 2, 0.0, 2)
    m.set_final(1)
    return m


class TestCompose:
    def test_symbol_table_mismatch(self, ab_table, abcd_table):
        a = linear_acceptor("a", ab_table)
        b = linear_acceptor("a", abcd_table)
        with pytest.raises(SymbolTableMismatchError) as err:
            compose(a, b)
        assert "'ab' (3 symbols) vs 'abcd' (5 symbols)" in str(err.value)
        assert "first differing at id 3: None vs 'c'" in str(err.value)

    def test_equal_but_separate_tables(self, ab_table):
        # a table may grow after the compose, so equal today is not enough
        a = linear_acceptor("a", ab_table)
        b = linear_acceptor("a", make_table(["a", "b"], "ab"))
        with pytest.raises(SymbolTableMismatchError, match="equal but separate tables"):
            compose(a, b)

    def test_length_linear_scoring(self, ab_table):
        # acceptor of "ab" composed with per-arc cost 1 identity: total 2.0
        a = linear_acceptor("ab", ab_table)
        s = identity_scorer(ab_table, 1.0)
        c = compose(a, s)
        paths = enumerate_paths(c, 3)
        assert paths == {(("a", "b"), ("a", "b")): 2.0}

    def test_epsilon_filter_no_duplicates(self, ab_table):
        # both operands can move on eps; every (in, out) pair must keep one
        # min-weight entry, built once, and nothing may be dropped
        a = Wfst(ab_table)
        a.add_states(3)
        a.set_start(0)
        a.add_arc(0, 1, EPSILON_ID, 1.0, 1)   # a:eps
        a.add_arc(1, EPSILON_ID, 1, 0.5, 2)   # eps:a
        a.set_final(2)
        b = Wfst(ab_table)
        b.add_states(3)
        b.set_start(0)
        b.add_arc(0, EPSILON_ID, 2, 0.25, 1)  # eps:b
        b.add_arc(1, 1, 2, 0.0, 2)            # a:b
        b.set_final(2)
        c = compose(a, b)
        expected = join_paths(enumerate_paths(a, 6), enumerate_paths(b, 6))
        assert paths_equal(enumerate_paths(c, 6), expected)
        assert path_counts(c) == joined_counts(a, b) == {((1,), (2, 2)): 1}

    def test_epsilon_paths_built_once(self, abcd_table):
        # each pair of paths that meet on the middle string is one product
        # path, however a's output epsilons and b's input epsilons interleave
        rng = random.Random(7)
        both_eps = 0
        for _ in range(300):
            a = random_machine(rng, abcd_table, max_states=4, acyclic=True, eps_prob=0.4)
            b = random_machine(rng, abcd_table, max_states=4, acyclic=True, eps_prob=0.4)
            both_eps += (any(o == EPSILON_ID for _, (_, o, _, _) in all_arcs(a))
                         and any(i == EPSILON_ID for _, (i, _, _, _) in all_arcs(b)))
            assert path_counts(compose(a, b)) == joined_counts(a, b)
        assert both_eps >= 90

    def test_empty_operand_gives_empty_product(self, ab_table):
        out_table = make_table(["x"], "x")
        to_x = Wfst(ab_table, out_table)
        to_x.set_start(to_x.add_state())
        to_x.set_final(0)
        to_x.add_arc(0, 1, 1, 0.0, 0)
        empty_a, empty_b = Wfst(ab_table), Wfst(ab_table, out_table)
        for a, b in ((empty_a, to_x), (identity_scorer(ab_table, 0.0), empty_b)):
            c = compose(a, b)
            assert c.is_empty() and c.num_states() == 0
            assert c.isymbols is ab_table and c.osymbols is out_table

    def test_overflowing_sum_is_no_arc(self, ab_table):
        # 1.7e308 + 1.7e308 overflows to inf, which is no transition: the
        # product keeps no arc for it, and allocates no state for its target
        a = linear_acceptor("a", ab_table, arc_weight=1.7e308)
        c = compose(a, a)
        assert (c.num_states(), c.num_arcs()) == (1, 0)
        assert all(w != ZERO for w in c.finals.values())

    def test_keeps_states_off_accepting_paths(self, ab_table):
        # the product is returned as built: the state b:b leads to stays
        c = compose(dead_end_machine(ab_table), identity_scorer(ab_table, 0.0))
        assert c.num_states() == 3
        assert connect(c).num_states() == 2

    def test_join_oracle_random_acyclic(self, rng, abcd_table):
        checked = 0
        for _ in range(60):
            a = random_machine(rng, abcd_table, max_states=4, acyclic=True)
            b = random_machine(rng, abcd_table, max_states=4, acyclic=True)
            c = compose(a, b)
            expected = join_paths(
                enumerate_paths(a, 10, max_out_len=10),
                enumerate_paths(b, 10, max_out_len=10),
            )
            assert paths_equal(enumerate_paths(c, 10, max_out_len=10), expected)
            checked += 1
        assert checked == 60

    def test_join_oracle_skewed_fan_out(self, rng, abcd_table):
        # a wide start on one side and a narrow one on the other, so matching
        # scans b's arcs at the start pair when a is wide and a's when b is;
        # both starts have epsilon arcs on the matched side, so the start pair
        # moves a alone and b alone, into both filter states
        joined = 0
        for wide_a in (True, False) * 30:
            a = skewed_machine(rng, abcd_table, wide_a, "olabel")
            b = skewed_machine(rng, abcd_table, not wide_a, "ilabel")
            assert (len(a.arcs(a.start)) > len(b.arcs(b.start))) == wide_a
            assert any(o == EPSILON_ID for _, o, _, _ in a.arcs(a.start))
            assert any(i == EPSILON_ID for i, _, _, _ in b.arcs(b.start))
            c = compose(a, b)
            expected = join_paths(enumerate_paths(a, 10, max_out_len=10),
                                  enumerate_paths(b, 10, max_out_len=10))
            joined += bool(expected)
            assert paths_equal(enumerate_paths(c, 10, max_out_len=10), expected)
        assert joined >= 40

    def test_join_oracle_cyclic_acceptors(self, rng, abcd_table):
        for _ in range(30):
            a = random_machine(rng, abcd_table, max_states=4, acceptor=True)
            b = random_machine(rng, abcd_table, max_states=4, acceptor=True)
            c = compose(a, b)
            expected = join_paths(enumerate_paths(a, 6), enumerate_paths(b, 6))
            assert paths_equal(enumerate_paths(c, 6), expected)

    def test_reads_only_the_states_the_product_reaches(self, bench):
        # a sentence against the V~200 root: compose reads the arcs of the
        # root states that a prefix of the sentence leads to, not every state
        workloads, measure = bench
        lm = workloads.build_lm_root(
            workloads.inputs.lm_inputs(random.Random(1), 200).corpus, measure.NullTracer())
        text = " ".join(lm.vocab[:3])
        sentence = linear_acceptor(text, lm.charset)
        root = ArcReads(lm.root)
        assert write_fst_text(compose(sentence, root)) == \
               write_fst_text(compose(sentence, lm.root))
        labels = [lm.charset.id(ch) for ch in text]
        reached = {(0, lm.root.start)}  # (characters read, root state)
        stack = list(reached)
        while stack:
            k, q = stack.pop()
            for i, _, _, t in lm.root.arcs(q):
                if i == EPSILON_ID:
                    nxt = (k, t)
                elif k < len(labels) and i == labels[k]:
                    nxt = (k + 1, t)
                else:
                    continue
                if nxt not in reached:
                    reached.add(nxt)
                    stack.append(nxt)
        assert set(root.reads) == {q for _, q in reached}
        assert len(root.reads) < lm.root.num_states() // 10


class ArcReads(Fst):
    """A machine read through a thin wrapper that counts the reads of each
    state's arcs."""

    def __init__(self, m):
        self.m, self.reads = m, Counter()
        self.isymbols, self.osymbols = m.isymbols, m.osymbols
        self.start, self.finals = m.start, m.finals

    def arcs(self, state):
        self.reads[state] += 1
        return self.m.arcs(state)

    def num_states(self):
        return self.m.num_states()

    def num_arcs(self):
        return self.m.num_arcs()


def joined_counts(a, b):
    """path_counts of a composed with b by brute force: one product path
    per pair of paths that meet on the middle string."""
    out = Counter()
    for (x, y), n in path_counts(a).items():
        for (y2, z), m in path_counts(b).items():
            if y == y2:
                out[x, z] += n * m
    return out


def skewed_machine(rng, table, wide, side):
    """Acyclic transducer of 3-4 states whose start's fan-out is skewed.

    `side` names the label compose matches on ("olabel" for the left
    operand, "ilabel" for the right). A wide start has an arc on every
    label of that side, epsilon included, to each of two targets; a narrow
    one has an epsilon arc on that side and at most one other. The states
    between the start and the last have one or two arcs each."""
    n = rng.randint(3, 4)
    m = Wfst(table, table)
    m.add_states(n)
    m.set_start(0)
    labels = list(range(len(table)))

    def arc(src, label, dst):
        other = rng.choice(labels)
        i, o = (label, other) if side == "ilabel" else (other, label)
        m.add_arc(src, i, o, round(rng.uniform(-1.0, 3.0), 3), dst)

    if wide:
        for label in labels:
            for dst in rng.sample(range(1, n), 2):
                arc(0, label, dst)
    else:
        arc(0, EPSILON_ID, rng.randrange(1, n))
        if rng.random() < 0.5:
            arc(0, rng.choice(labels[1:]), rng.randrange(1, n))
    for s in range(1, n - 1):
        for _ in range(rng.randint(1, 2)):
            arc(s, rng.choice(labels), rng.randrange(s + 1, n))
    m.set_final(n - 1, round(rng.uniform(0.0, 2.0), 3))
    for s in rng.sample(range(n - 1), rng.randint(0, 1)):
        m.set_final(s, round(rng.uniform(0.0, 2.0), 3))
    return m


def eps_arcs_of(m):
    return lambda s: [arc for arc in m.arcs(s) if arc[0] == EPSILON_ID == arc[1]]


class TestShortestDistance:
    def test_eps_closures_match_walk_random(self, rng, abcd_table):
        # cyclic epsilon acceptors, from every state, against the conftest walk
        wider = 0
        for _ in range(40):
            m = random_machine(rng, abcd_table, acceptor=True, eps_prob=0.35)
            for s in m.states():
                dist, pred = _shortest_distance(m.num_states(), {s: 0.0}, eps_arcs_of(m))
                reached = {t: d for t, d in enumerate(dist) if d != ZERO}
                want = _eps_closure(m, {s: 0.0})
                assert reached == pytest.approx(want, abs=1e-12)
                for t, link in enumerate(pred):
                    if link is not None:
                        q, arc = link
                        assert arc in m.arcs(q) and arc[3] == t
                        assert dist[t] == pytest.approx(dist[q] + arc[2], abs=1e-12)
                wider += len(reached) > 1
        assert wider >= 40

    def test_negative_cycle_among_sources(self, ab_table):
        # every state is a source at 0.0, as in test_lm's root check, so a
        # cycle is found although no arc leads into it from outside
        m = Wfst(ab_table)
        m.add_states(3)
        m.set_start(0)
        m.add_arc(1, EPSILON_ID, EPSILON_ID, 0.5, 2)
        m.add_arc(2, EPSILON_ID, EPSILON_ID, -1.0, 1)
        with pytest.raises(NegativeCycleError) as err:
            _shortest_distance(3, dict.fromkeys(m.states(), 0.0), eps_arcs_of(m))
        assert set(err.value.states) <= {1, 2} and err.value.states

    def test_negative_cycle_found_from_pred_links(self, ab_table):
        # a long chain hangs off a two-state negative cycle: the pred check
        # stops the search within O(n) arc scans, not O(n * m), and names
        # the cycle rather than the chain
        n = 2002
        m = Wfst(ab_table)
        m.add_states(n)
        m.set_start(0)
        m.add_arc(0, 1, 1, -1.0, 1)
        m.add_arc(1, 1, 1, 0.0, 0)
        for s in range(1, n - 1):
            m.add_arc(s, 1, 1, 0.0, s + 1)
        calls = []

        def arcs_of(s):
            calls.append(s)
            return m.arcs(s)

        with pytest.raises(NegativeCycleError) as err:
            _shortest_distance(n, {0: 0.0}, arcs_of)
        assert set(err.value.states) == {0, 1}
        assert len(calls) < 5 * n


class TestConnect:
    """The conftest trimness oracle the trim-contract tests lean on."""

    def test_removes_dead_state(self, ab_table):
        m = Wfst(ab_table)
        m.add_states(3)
        m.set_start(0)
        m.add_arc(0, 1, 1, 0.0, 1)
        m.add_arc(0, 2, 2, 0.0, 2)  # state 2 cannot reach a final
        m.set_final(1)
        out = connect(m)
        assert out.num_states() == 2
        assert paths_equal(enumerate_paths(out, 4), enumerate_paths(m, 4))

    def test_empty_language(self, ab_table):
        m = Wfst(ab_table)
        m.add_states(2)
        m.set_start(0)
        m.add_arc(0, 1, 1, 0.0, 1)
        out = connect(m)
        assert out.is_empty()


class TestDeterminize:
    def test_empty_machine(self, ab_table):
        out_table = make_table(["x"], "x")
        out = determinize(Wfst(ab_table, out_table))
        assert out.is_empty() and out.num_states() == 0
        assert out.isymbols is ab_table and out.osymbols is out_table

    def test_eps_chain_keeps_its_weight(self, ab_table):
        # eps:eps is an ordinary label pair: the chain stays, at its weight
        m = Wfst(ab_table)
        m.add_states(3)
        m.set_start(0)
        m.add_arc(0, EPSILON_ID, EPSILON_ID, 1.0, 1)
        m.add_arc(1, EPSILON_ID, EPSILON_ID, 2.0, 2)
        m.set_final(2)
        out = determinize(m)
        assert pair_deterministic(out)
        assert enumerate_paths(out, 2) == {((), ()): 3.0}

    def test_negative_eps_cycle_raises(self, ab_table):
        # determinize keeps the negative eps:eps cycle as labels; the
        # shortest path through the result is the one that raises
        m = Wfst(ab_table)
        m.add_states(3)
        m.set_start(0)
        m.add_arc(0, 1, 1, 0.0, 1)
        m.add_arc(1, EPSILON_ID, EPSILON_ID, 0.5, 2)
        m.add_arc(2, EPSILON_ID, EPSILON_ID, -1.0, 1)
        m.set_final(2)
        out = determinize(m)
        assert write_fst_text(out) == write_fst_text(m)
        with pytest.raises(NegativeCycleError) as err:
            shortest_path(out)
        assert set(err.value.states) <= {1, 2} and err.value.states
        # a negative eps:eps cycle the start cannot reach is never expanded
        unreached = Wfst(ab_table)
        unreached.add_states(3)
        unreached.set_start(0)
        unreached.add_arc(0, 1, 1, 0.0, 0)
        unreached.set_final(0)
        unreached.add_arc(1, EPSILON_ID, EPSILON_ID, -1.0, 2)
        unreached.add_arc(2, EPSILON_ID, EPSILON_ID, -1.0, 1)
        assert enumerate_paths(determinize(unreached), 2) == enumerate_paths(unreached, 2)

    @pytest.mark.parametrize("text", [
        "0\t1\t1\t1\tinf\n0\t1\t2\t2\n1\t0\t0\t0\n1\n",
        "0\t1\t1\t1\tinf\n0\t1\t2\t2\n1\n",
    ], ids=["eps-return", "no-eps"])
    def test_inf_arcs_are_no_path(self, text, ab_table):
        # an arc of weight inf is no path: the reader drops it, so no
        # output of determinize or either of optim's routes has it
        m = read_fst_text(text, ab_table)
        want = enumerate_paths(m, 4)
        outs = [determinize(m), optim(m)]
        if pair_deterministic(m):
            outs += [minimize(m), minimize(determinize(m))]
            assert write_fst_text(optim(m)) == write_fst_text(minimize(determinize(m)))
        for out in outs:
            assert paths_equal(enumerate_paths(out, 4), want)
            assert all(w != ZERO for _, (_, _, w, _) in all_arcs(out))

    def test_overflowing_sums_are_no_path(self, ab_table):
        # every finite arc is stored, but the only path through 2 costs
        # 1.7e308 + 1.7e308, which overflows to inf: the subset holding 2
        # gets no b arc, and determinize raises nothing
        m = Wfst(ab_table)
        m.add_states(4)
        m.set_start(0)
        m.add_arc(0, 1, 1, 0.0, 1)
        m.add_arc(0, 1, 1, 1.7e308, 2)
        m.add_arc(2, 2, 2, 1.7e308, 3)
        m.set_final(1)
        m.set_final(3)
        want = enumerate_paths(m, 4)
        assert want == {(("a",), ("a",)): 0.0}
        for out in (determinize(m), optim(m)):
            assert enumerate_paths(out, 4) == want

    def test_overflowing_pushed_weight_is_no_path(self, ab_table):
        # deterministic, so optim minimizes it directly: b's pushed weight
        # 1.7e308 + 1.7e308 overflows to inf, so the arc is dropped and
        # state 2, which only it reached, is not rebuilt
        m = Wfst(ab_table)
        m.add_states(4)
        m.set_start(0)
        m.add_arc(0, 1, 1, 0.0, 1)
        m.add_arc(0, 2, 2, 1.7e308, 2)
        m.add_arc(2, 1, 1, 1.7e308, 3)
        m.set_final(1)
        m.set_final(3)
        want = enumerate_paths(m, 4)
        for out in (minimize(m), optim(m)):
            assert out.num_states() == 2
            assert connect(out).num_states() == out.num_states()
            assert enumerate_paths(out, 4) == want
            assert all(w != ZERO for _, (_, _, w, _) in all_arcs(out))

    def test_min_over_duplicate_strings(self, ab_table):
        m = Wfst(ab_table)
        m.add_states(3)
        m.set_start(0)
        m.add_arc(0, 1, 1, 3.0, 1)
        m.add_arc(0, 1, 1, 1.0, 2)
        m.set_final(1)
        m.set_final(2)
        out = determinize(m)
        assert check_deterministic(out)
        assert enumerate_paths(out, 2) == {(("a",), ("a",)): 1.0}

    def test_idempotent_on_deterministic_input(self, ab_table):
        m = linear_acceptor("ab", ab_table, arc_weight=1.0)
        out = determinize(m)
        assert paths_equal(enumerate_paths(out, 4), enumerate_paths(m, 4))

    def test_acceptor_output_is_pair_deterministic(self, rng, abcd_table):
        for _ in range(25):
            m = random_machine(rng, abcd_table, acyclic=True, acceptor=True)
            out = determinize(m)
            assert pair_deterministic(out)

    def test_language_preserved_random(self, rng, abcd_table):
        for _ in range(40):
            m = random_machine(rng, abcd_table, acyclic=True)
            out = determinize(m)
            assert pair_deterministic(out)
            assert paths_equal(enumerate_paths(out, 8, max_out_len=8),
                               enumerate_paths(m, 8, max_out_len=8))

    @pytest.mark.parametrize("loop", [1, EPSILON_ID], ids=["labelled", "eps"])
    def test_budget_error(self, loop, ab_table):
        # the classic non-determinizable weighted machine: two cycles over
        # the same label pair with different weights, eps:eps like any other
        m = Wfst(ab_table)
        m.add_states(3)
        m.set_start(0)
        m.add_arc(0, 1, 1, 0.0, 1)
        m.add_arc(0, 1, 1, 1.0, 2)
        m.add_arc(1, loop, loop, 1.0, 1)
        m.add_arc(2, loop, loop, 2.0, 2)
        m.set_final(1)
        m.set_final(2)
        with pytest.raises(BudgetExceededError) as err:
            determinize(m, state_budget=500)
        assert (err.value.stage, err.value.limit, err.value.used) == ("determinize", 500, 500)


class TestMinimize:
    def test_requires_deterministic(self, ab_table):
        m = Wfst(ab_table)
        m.add_states(2)
        m.set_start(0)
        m.add_arc(0, 1, 1, 0.0, 1)
        m.add_arc(0, 1, 1, 1.0, 1)
        m.set_final(1)
        with pytest.raises(NondeterministicInputError):
            minimize(m)

    @pytest.mark.parametrize("reached", [False, True], ids=["unreached", "reached"])
    def test_determinism_is_tested_on_reached_states(self, reached, ab_table, monkeypatch):
        # state 2 has two a:a arcs; only an arc from the start makes that a
        # repeat minimize must reject, since an unreached state is trimmed
        m = linear_acceptor("a", ab_table, arc_weight=1.0)
        m.add_state()
        m.add_arc(2, 1, 1, 0.5, 1)
        m.add_arc(2, 1, 1, 2.0, 1)
        if reached:
            m.add_arc(0, 2, 2, 0.0, 2)
        assert not pair_deterministic(m)
        want = write_fst_text(_minimize(determinize(m)))
        assert write_fst_text(optim(m)) == want
        if reached:
            with pytest.raises(NondeterministicInputError):
                minimize(m)
        else:
            assert write_fst_text(minimize(m)) == want
            assert want == write_fst_text(minimize(linear_acceptor("a", ab_table, arc_weight=1.0)))
            monkeypatch.setattr(ops, "determinize", None)
            assert write_fst_text(optim(m)) == want

    def test_equivalent_finals_merge(self, ab_table):
        # two distinct final states with identical suffix behavior
        m = Wfst(ab_table)
        m.add_states(3)
        m.set_start(0)
        m.add_arc(0, 1, 1, 0.0, 1)
        m.add_arc(0, 2, 2, 0.0, 2)
        m.set_final(1)
        m.set_final(2)
        out = minimize(m)
        assert out.num_states() <= m.num_states() - 1
        assert paths_equal(enumerate_paths(out, 3), enumerate_paths(m, 3))

    def test_idempotent_state_count(self, rng, abcd_table):
        for _ in range(30):
            m = determinize(random_machine(rng, abcd_table, acyclic=True))
            once = minimize(m)
            twice = minimize(once)
            assert twice.num_states() == once.num_states()

    def test_weight_pushing_enables_merge(self, ab_table):
        # same suffix language with the weight sitting later on one branch:
        # pushing makes the suffix states mergeable
        m = Wfst(ab_table)
        m.add_states(5)
        m.set_start(0)
        m.add_arc(0, 1, 1, 2.0, 1)
        m.add_arc(1, 1, 1, 0.0, 3)
        m.add_arc(0, 2, 2, 0.0, 2)
        m.add_arc(2, 1, 1, 2.0, 4)
        m.set_final(3)
        m.set_final(4)
        out = minimize(m)
        assert out.num_states() == 3
        assert paths_equal(enumerate_paths(out, 3), enumerate_paths(m, 3))

    def test_language_preserved_random(self, rng, abcd_table):
        for _ in range(40):
            m = determinize(random_machine(rng, abcd_table, acyclic=True))
            out = minimize(m)
            assert out.num_states() <= m.num_states()
            assert paths_equal(enumerate_paths(out, 8, max_out_len=8),
                               enumerate_paths(m, 8, max_out_len=8))

    def test_negative_cycle_falls_back(self, ab_table):
        # bias-weighted star: pushing is undefined, minimize must still work
        m = Wfst(ab_table)
        m.add_states(2)
        m.set_start(0)
        m.add_arc(0, 1, 1, -1.0, 1)
        m.add_arc(1, 2, 2, -1.0, 1)
        m.set_final(1)
        out = minimize(m)
        assert paths_equal(enumerate_paths(out, 5), enumerate_paths(m, 5))

    def test_refinement_matches_moore_on_dense_machines(self, rng):
        # nearly complete machines over two labels with one weight split in
        # long chains, where queueing the wrong half of a split class shows
        for _ in range(1000):
            n = rng.randint(1, 16)
            finals = [rng.choice([0.0, 0.5, ZERO]) for s in range(n)]
            arcs = [[(i, i, 0.0, rng.randrange(n)) for i in (1, 2) if rng.random() < 0.9]
                    for s in range(n)]
            assert partition(_refine(finals, arcs)) == partition(moore_classes(finals, arcs))

    def test_negative_cycle_fallback_trims(self, ab_table):
        # the same star plus a dead state the start reaches and a final
        # state nothing reaches: both go although nothing is pushed
        m = Wfst(ab_table)
        m.add_states(4)
        m.set_start(0)
        m.add_arc(0, 1, 1, -1.0, 1)
        m.add_arc(1, 2, 2, -1.0, 1)
        m.set_final(1)
        m.add_arc(0, 2, 2, 0.0, 2)
        m.add_arc(2, 1, 1, -1.0, 2)
        m.add_arc(3, 1, 1, 0.0, 1)
        m.set_final(3)
        out = minimize(m)
        assert (out.num_states(), out.num_arcs()) == (2, 2)
        assert paths_equal(enumerate_paths(out, 5), enumerate_paths(m, 5))

    def test_arc_order_moves_weights_within_tolerance(self, abcd_table):
        # two parallel arcs 2**-52 apart relax within _shortest_distance's
        # 1e-15 tolerance, so whichever comes first sets the potential: both
        # orders give the same states and labels, weights within 1e-15
        a, b, c, d = (abcd_table.id(x) for x in "abcd")
        built = []
        for order in ((b, c), (c, b)):
            m = Wfst(abcd_table)
            m.add_states(3)
            m.set_start(0)
            m.set_final(2, 0.0)
            m.add_arc(0, d, d, 0.0, 1)
            weight = {b: 1.0, c: 1.0 - 2 ** -52}
            for label in order + (a,):
                m.add_arc(1, label, label, weight.get(label, 1.0), 2)
            out = minimize(m)
            built.append(([(s, i, t) for s, (i, _, _, t) in all_arcs(out)],
                          [w for _, (_, _, w, _) in all_arcs(out)], out.finals))
        (shape, weights, finals), (other_shape, other_weights, other_finals) = built
        assert shape == other_shape and finals.keys() == other_finals.keys()
        assert weights != other_weights  # the orders do differ
        assert weights == pytest.approx(other_weights, rel=0, abs=1e-15)
        assert finals == pytest.approx(other_finals, rel=0, abs=1e-15)


class TestOptim:
    def test_empty_language(self, ab_table):
        m = Wfst(ab_table)
        m.add_state()
        m.set_start(0)
        out = optim(m)
        assert out.is_empty()

    def test_trims_compose_product(self, ab_table):
        product = compose(dead_end_machine(ab_table), identity_scorer(ab_table, 0.0))
        out = optim(product)
        assert write_fst_text(connect(out)) == write_fst_text(out)
        assert paths_equal(enumerate_paths(out, 4), enumerate_paths(product, 4))

    def test_language_preserved_random(self, rng, abcd_table):
        for _ in range(20):
            m = random_machine(rng, abcd_table, acyclic=True)
            out = optim(m)
            assert paths_equal(enumerate_paths(out, 8, max_out_len=8),
                               enumerate_paths(m, 8, max_out_len=8))

    def test_matches_minimize_of_determinize(self, rng, abcd_table):
        # optim minimizes directly when its walk finds no repeated label
        # pair on a reached state, and determinizes first otherwise; both
        # routes give what the subset construction would
        seen = Counter()
        for k in range(120):
            m = random_machine(rng, abcd_table, acyclic=True, arc_density=2.5)
            if k % 3 == 0:  # a repeated pair on a state the start cannot reach
                unreached = m.add_state()
                t = rng.randrange(unreached)
                m.add_arc(unreached, 1, 1, 0.5, t)
                m.add_arc(unreached, 1, 1, 1.5, t)
            reached, stack = {m.start}, [m.start]
            while stack:
                for _, _, _, t in m.arcs(stack.pop()):
                    if t not in reached:
                        reached.add(t)
                        stack.append(t)
            direct = all(len({(i, o) for i, o, _, _ in m.arcs(s)}) == len(m.arcs(s))
                         for s in reached)
            assert (_minimize(m) is not None) == direct
            seen[direct, pair_deterministic(m)] += 1
            assert write_fst_text(optim(m)) == write_fst_text(_minimize(determinize(m)))
        assert len(seen) == 3 and min(seen.values()) >= 10, seen

    def test_deterministic_input_skips_determinize(self, ab_table, monkeypatch):
        m = linear_acceptor("abba", ab_table, arc_weight=1.0)
        want = write_fst_text(optim(m))
        monkeypatch.setattr(ops, "determinize", None)
        assert write_fst_text(optim(m)) == want

    def test_budget_holds_on_deterministic_input(self, ab_table):
        # deterministic input skips the subset construction only when it
        # fits the budget, so the budget still counts its states
        m = linear_acceptor("ab" * 5, ab_table)
        assert optim(m, state_budget=11).num_states() == 11
        with pytest.raises(BudgetExceededError) as err:
            optim(m, state_budget=10)
        assert (err.value.stage, err.value.limit, err.value.used) == ("determinize", 10, 10)


LAW_TABLE = make_table(["a", "b"], "ab")


@st.composite
def acyclic_eps_machines(draw):
    """Acyclic transducers over {a, b} whose arcs may read or write epsilon,
    eps:eps arcs included; arcs only lead to higher state ids."""
    n = draw(st.integers(1, 5))
    m = Wfst(LAW_TABLE, LAW_TABLE)
    m.add_states(n)
    m.set_start(0)
    for _ in range(draw(st.integers(0, 10)) if n > 1 else 0):
        src = draw(st.integers(0, n - 2))
        m.add_arc(src, draw(st.integers(0, 2)), draw(st.integers(0, 2)),
                  draw(st.integers(-4, 12)) / 4, draw(st.integers(src + 1, n - 1)))
    for s in draw(st.sets(st.integers(0, n - 1), min_size=1)):
        m.set_final(s, draw(st.integers(0, 8)) / 4)
    return m


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(acyclic_eps_machines())
def test_determinize_and_optim_keep_paths(m):
    want = enumerate_paths(m, 5, max_out_len=5)
    assert paths_equal(enumerate_paths(determinize(m), 5, max_out_len=5), want)
    assert paths_equal(enumerate_paths(optim(m), 5, max_out_len=5), want)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(acyclic_eps_machines(), acyclic_eps_machines(), acyclic_eps_machines())
def test_compose_is_associative(a, b, c):
    left = enumerate_paths(compose(compose(a, b), c), 5, max_out_len=5)
    right = enumerate_paths(compose(a, compose(b, c)), 5, max_out_len=5)
    assert paths_equal(left, right)


PAIRS = [(i, o) for i in range(3) for o in range(3)]


@st.composite
def pair_deterministic_machines(draw):
    """Machines over {a, b}, deterministic per label pair with eps:eps one
    more pair, with cycles, negative weights and each state's arcs in drawn
    order. Weights are multiples of 1/2, so sums are exact; eps:eps arcs
    weigh at least 0, since a negative eps:eps cycle runs enumerate_paths
    into its budget. The start may be any state, and two states are always
    added: a dead one the start reaches on b:b and a final one no state
    reaches."""
    n = draw(st.integers(1, 6))
    m = Wfst(LAW_TABLE, LAW_TABLE)
    m.add_states(n + 2)
    dead, unreachable = n, n + 1
    m.set_start(draw(st.integers(0, n - 1)))
    arcs = [(m.start, 2, 2, 0.0, dead), (dead, 1, 1, -1.0, dead),
            (unreachable, 1, 1, 0.0, draw(st.integers(0, n - 1)))]
    for s in range(n):
        for i, o in draw(st.sets(st.sampled_from(PAIRS), max_size=3)):
            if (s, i, o) != (m.start, 2, 2):
                low = 0 if (i, o) == (EPSILON_ID, EPSILON_ID) else -2
                arcs.append((s, i, o, draw(st.integers(low, 4)) / 2, draw(st.integers(0, n - 1))))
    for s, i, o, w, t in draw(st.permutations(arcs)):
        m.add_arc(s, i, o, w, t)
    for s in draw(st.sets(st.integers(0, n - 1), max_size=n)) | {unreachable}:
        m.set_final(s, draw(st.integers(-1, 2)) / 2)
    return m


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pair_deterministic_machines())
def test_refinement_matches_moore(m):
    finals = [m.final(s) for s in m.states()]
    arcs = [sorted(m.arcs(s)) for s in m.states()]
    assert partition(_refine(finals, arcs)) == partition(moore_classes(finals, arcs))
    out = minimize(m)
    assert connect(out).num_states() == out.num_states()  # dead and unreachable gone
    assert paths_equal(enumerate_paths(out, 4, max_out_len=4),
                       enumerate_paths(m, 4, max_out_len=4))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pair_deterministic_machines(), st.randoms(use_true_random=False))
def test_minimize_is_canonical(m, rnd):
    # the same machine with its states renumbered and its arcs reordered
    order = list(m.states())
    rnd.shuffle(order)
    new_id = {s: k for k, s in enumerate(order)}
    moved = Wfst(m.isymbols, m.osymbols)
    moved.add_states(m.num_states())
    moved.set_start(new_id[m.start])
    for s in order:
        arcs = list(m.arcs(s))
        rnd.shuffle(arcs)
        for i, o, w, t in arcs:
            moved.add_arc(new_id[s], i, o, w, new_id[t])
    for s, w in m.finals.items():
        moved.set_final(new_id[s], w)
    assert write_fst_text(minimize(moved)) == write_fst_text(minimize(m))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pair_deterministic_machines())
def test_optim_skips_determinize_unchanged(m):
    assert write_fst_text(optim(m)) == write_fst_text(minimize(determinize(m)))


class TestReplace:
    def make_root(self, table, nt_id):
        m = Wfst(table, table)
        m.add_states(2)
        m.set_start(0)
        m.add_arc(0, nt_id, nt_id, 0.0, 1)
        m.set_final(1)
        return m

    def test_fig4_shape_star_weights(self):
        # root with a single nonterminal arc; sub accepts "ab*" at alpha per
        # symbol: the result costs alpha, 2*alpha, 3*alpha, ...
        alpha = -1.0
        table = make_table(["a", "b", "$REGEX"], "syms")
        nt = table.id("$REGEX")
        root = self.make_root(table, nt)
        sub = Wfst(table, table)
        sub.add_states(2)
        sub.set_start(0)
        sub.add_arc(0, table.id("a"), table.id("a"), alpha, 1)
        sub.add_arc(1, table.id("b"), table.id("b"), alpha, 1)
        sub.set_final(1)
        out = replace(root, nt, sub)
        for _, (i, o, _, _) in all_arcs(out):
            assert i != nt and o != nt
        paths = enumerate_paths(out, 4)
        strings = {"".join(k[0]): w for k, w in paths.items()}
        assert strings == pytest.approx({"a": -1.0, "ab": -2.0, "abb": -3.0, "abbb": -4.0})

    def test_single_symbol_sub_equals_relabel(self, rng):
        table = make_table(["x", "$REGEX"], "syms")
        nt = table.id("$REGEX")
        root = self.make_root(table, nt)
        sub = linear_acceptor("x", table)
        out = replace(root, nt, sub)
        relabeled = enumerate_paths(
            linear_acceptor("x", table), 3)
        assert paths_equal(enumerate_paths(out, 3), relabeled)

    def test_copies_isolated_per_return_target(self):
        # two nonterminal arcs with different targets may not cross paths
        table = make_table(["x", "y", "$REGEX"], "syms")
        nt = table.id("$REGEX")
        root = Wfst(table, table)
        root.add_states(3)
        root.set_start(0)
        root.add_arc(0, nt, nt, 0.0, 1)
        root.add_arc(0, nt, nt, 0.0, 2)
        root.add_arc(1, table.id("x"), table.id("x"), 0.0, 1)
        root.set_final(1)
        root.set_final(2, 5.0)
        sub = linear_acceptor("y", table)
        out = replace(root, nt, sub)
        paths = enumerate_paths(out, 3)
        strings = {"".join(k[0]): w for k, w in paths.items()}
        assert strings == pytest.approx({"y": 0.0, "yx": 0.0, "yxx": 0.0})

    def test_missing_nonterminal_warns(self):
        table = make_table(["x", "$REGEX"], "syms")
        nt = table.id("$REGEX")
        root = linear_acceptor("x", table)
        sub = linear_acceptor("x", table)
        with pytest.warns(ReplaceNoOpWarning):
            out = replace(root, nt, sub)
        assert paths_equal(enumerate_paths(out, 3), enumerate_paths(root, 3))

    @pytest.mark.parametrize("nt", [EPSILON_ID, 3, 99, -1])
    def test_nonterminal_must_be_a_label(self, nt):
        # epsilon would take every eps-output arc, backoffs included, for a
        # call site; an id outside the table names nothing. Neither is indexed
        table = make_table(["x", "$REGEX"], "syms")
        root = self.make_root(table, table.id("$REGEX"))
        root.add_arc(0, table.id("x"), EPSILON_ID, 0.0, 1)
        with pytest.raises(SymbolError, match=f"nonterminal {nt} is not a label of 'syms'"):
            replace(root, nt, linear_acceptor("x", table))
        assert root not in ops._CALL_INDEXES

    def test_empty_sub_drops_call_sites(self):
        # an empty sub accepts nothing: the result is the one a sub without
        # finals gives, the root without its nonterminal arcs, trimmed
        table = make_table(["x", "$REGEX"], "syms")
        nt = table.id("$REGEX")
        root = self.make_root(table, nt)
        root.add_arc(0, table.id("x"), table.id("x"), 1.5, 1)
        no_final = linear_acceptor("x", table)
        no_final.set_final(1, ZERO)
        out = replace(root, nt, Wfst(table, table))
        assert write_fst_text(out) == write_fst_text(replace(root, nt, no_final))
        assert enumerate_paths(out, 2) == {(("x",), ("x",)): 1.5}

    def test_startless_sub_with_finals_drops_call_sites(self):
        # a sub with no start state accepts nothing, whatever its finals say
        table = make_table(["x", "$REGEX"], "syms")
        nt = table.id("$REGEX")
        root = self.make_root(table, nt)
        sub = Wfst(table, table)
        sub.add_states(2)
        sub.add_arc(0, table.id("x"), table.id("x"), 0.0, 1)
        sub.set_final(1, 0.0)
        out = replace(root, nt, sub)
        assert write_fst_text(out) == write_fst_text(replace_eager(root, nt, sub))
        assert (out.num_states(), out.num_arcs()) == (2, 0)

    def test_trimmed_inputs_give_trimmed_result(self, rng):
        table = make_table(["a", "b", "$REGEX"], "syms")
        sub_table = make_table(["a", "b"], "sub")
        nt = table.id("$REGEX")
        checked = 0
        for _ in range(200):
            root = connect(random_machine(rng, table))
            sub = connect(random_machine(rng, sub_table, max_states=4))
            if sub.is_empty() or not any(o == nt for _, (_, o, _, _) in all_arcs(root)):
                continue
            out = replace(root, nt, sub)
            assert write_fst_text(connect(out)) == write_fst_text(out)
            checked += 1
        assert checked >= 50

    def test_recursion_rejected(self):
        table = make_table(["x", "$REGEX"], "syms")
        nt = table.id("$REGEX")
        root = self.make_root(table, nt)
        sub = self.make_root(table, nt)
        with pytest.raises(ReplaceRecursionError):
            replace(root, nt, sub)

    def test_recursion_checked_on_mapped_labels(self):
        # sub's table holds $REGEX under another id than root's: its arc still
        # carries the nonterminal once mapped
        table = make_table(["a", "$REGEX"], "syms")
        nt = table.id("$REGEX")
        sub_table = make_table(["$REGEX", "a"], "sub")
        sub = linear_acceptor(["$REGEX"], sub_table)
        assert sub_table.id("$REGEX") != nt
        with pytest.raises(ReplaceRecursionError):
            replace(self.make_root(table, nt), nt, sub)

    def test_sub_label_sharing_the_nonterminal_id_is_not_recursion(self):
        # "a" in sub's table has the id $REGEX has in root's
        table = make_table(["a", "$REGEX", "b"], "syms")
        nt = table.id("$REGEX")
        sub_table = make_table(["b", "a"], "sub")
        assert sub_table.id("a") == nt
        out = replace(self.make_root(table, nt), nt, linear_acceptor("a", sub_table))
        assert enumerate_paths(out, 2) == {(("a",), ("a",)): 0.0}

    def test_only_used_labels_mapped(self):
        # sub's table has " ", root's has not, and no arc of sub reads it
        table = make_table(["a", "$REGEX"], "syms")
        nt = table.id("$REGEX")
        sub_table = make_table(["a", " "], "sub")
        out = replace(self.make_root(table, nt), nt, linear_acceptor("a", sub_table))
        assert enumerate_paths(out, 2) == {(("a",), ("a",)): 0.0}
        with pytest.raises(SymbolError, match="' ' missing from table 'syms'"):
            replace(self.make_root(table, nt), nt, linear_acceptor(" ", sub_table))

    def test_view_equals_eager_splice(self, rng):
        # the view, materialised, is the eager splice byte for byte, and
        # counts its states and arcs before any of its arc lists is built
        table = make_table(["a", "b", "$REGEX"], "syms")
        sub_table = make_table(["b", "a"], "sub")  # ids differ from root's
        nt = table.id("$REGEX")
        seen = dict.fromkeys(("targets", "empty", "no finals", "dead", "deterministic"), 0)
        for i in range(200):
            root = random_machine(rng, table)
            for _ in range(rng.randint(1, 3)):
                root.add_arc(rng.randrange(root.num_states()), nt, nt,
                             round(rng.uniform(-1.0, 1.0), 3), rng.randrange(root.num_states()))
            sub = random_machine(rng, sub_table, max_states=4)
            if i % 4 == 1:
                sub = Wfst(sub_table, sub_table)
            elif i % 4 == 2:
                sub.finals.clear()
            elif i % 4 == 3:
                dead = sub.add_state()
                sub.add_arc(sub.start, 1, 2, 0.5, dead)
            out, oracle = replace(root, nt, sub), replace_eager(root, nt, sub)
            assert (out.num_states(), out.num_arcs()) == (oracle.num_states(), oracle.num_arcs())
            assert write_fst_text(out) == write_fst_text(oracle)
            assert sum(len(out.arcs(s)) for s in out.states()) == out.num_arcs()
            deterministic = pair_deterministic(out)
            assert deterministic == pair_deterministic(oracle)
            seen["deterministic"] += deterministic
            blocks = (oracle.num_states() - root.num_states()) // max(sub.num_states(), 1)
            seen["targets"] += blocks >= 2
            seen["empty"] += sub.is_empty()
            seen["no finals"] += not sub.is_empty() and not sub.finals
            seen["dead"] += i % 4 == 3 and oracle.num_states() > root.num_states()
        assert min(seen.values()) >= 20, seen

    def test_second_replace_reads_no_root_arc(self, monkeypatch):
        table = make_table(["a", "b", "$REGEX"], "syms")
        nt = table.id("$REGEX")
        root = self.make_root(table, nt)
        root.add_arc(1, nt, nt, 0.0, 0)
        replace(root, nt, linear_acceptor("a", table))
        reads = []

        class CountingList(list):
            def __getitem__(self, i):
                reads.append(i)
                return super().__getitem__(i)

            def __iter__(self):
                reads.append("iter")
                return super().__iter__()

        monkeypatch.setattr(root, "_arcs", CountingList(root._arcs))
        monkeypatch.setattr(root, "arcs", lambda s: reads.append(("arcs", s)))
        out = replace(root, nt, linear_acceptor("ab", table))
        assert (out.num_states(), out.num_arcs()) == (8, 8)
        assert repr(out) == "ReplaceView(8 states, 8 arcs, 1 finals)"
        assert reads == []

    def test_view_is_a_whole_machine(self):
        # every algorithm reads a view as it reads the eager splice
        chars = make_table(["a", "b"], "chars")
        table = make_table(["x", "y", "a", "b", "$REGEX"], "syms")
        nt = table.id("$REGEX")
        root = linear_acceptor(["x", "$REGEX", "y"], table)
        t_r = compile_biased('export = ("a" | "b")* "a" ("a" | "b");', chars, -1.0)[2]
        view, oracle = replace(root, nt, t_r), replace_eager(root, nt, t_r)
        assert pair_deterministic(view) is pair_deterministic(oracle) is True
        for op in (optim, minimize):
            assert write_fst_text(op(view)) == write_fst_text(op(oracle))
        assert repr(view) == (f"ReplaceView({oracle.num_states()} states, "
                              f"{oracle.num_arcs()} arcs, {len(oracle.finals)} finals)")
