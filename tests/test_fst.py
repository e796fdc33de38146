import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regexbias.errors import ConfigError, RegexBiasError, SymbolError
from regexbias.fst import EPSILON, EPSILON_ID, SymbolTable, Wfst, linear_acceptor
from regexbias.ops import compose, optim, replace, shortest_path
from regexbias.textio import read_fst_text, write_fst_text

from conftest import (
    all_arcs,
    arc_snapshot,
    check_acceptor,
    check_deterministic,
    check_eps_free,
    connect,
    make_table,
    random_machine,
)
from test_bench import bench  # noqa: F401  (the fixture that imports bench/)


class TestSymbolTable:
    def test_epsilon_is_id_zero(self):
        t = SymbolTable("x")
        assert t.sym(0) == EPSILON
        assert t.id(EPSILON) == 0

    def test_dense_unique_bijection(self):
        t = SymbolTable.from_symbols(["a", "b", "a"], "x")
        assert len(t) == 3  # eps, a, b
        assert t.id("a") == 1 and t.id("b") == 2
        assert t.sym(2) == "b"
        assert t.find("zz") is None
        with pytest.raises(SymbolError):
            t.id("zz")

    def test_rejects_tab(self):
        t = SymbolTable()
        with pytest.raises(SymbolError):
            t.add("a\tb")

    def test_negative_id_rejected(self, ab_table):
        with pytest.raises(SymbolError):
            ab_table.sym(-1)
        # an arc labelled -1 used to be reported as the last symbol, 'b'
        m = Wfst(ab_table)
        m.add_states(2)
        m.set_start(0)
        m.add_arc(0, -1, -1, 0.0, 1)
        m.set_final(1)
        with pytest.raises(SymbolError):
            shortest_path(m)


class TestWfst:
    def test_build_and_checks(self, ab_table):
        m = Wfst(ab_table)
        s0, s1 = m.add_state(), m.add_state()
        m.set_start(s0)
        m.add_arc(s0, 1, 1, 0.5, s1)
        m.set_final(s1)
        assert m.num_states() == 2 and m.num_arcs() == 1
        assert check_acceptor(m) and check_deterministic(m)
        m.add_arc(s0, 1, 2, 1.0, s1)
        assert not check_deterministic(m)
        assert not check_acceptor(m)

    def test_invalid_state_rejected(self, ab_table):
        m = Wfst(ab_table)
        m.add_state()
        with pytest.raises(IndexError):
            m.add_arc(0, 1, 1, 0.0, 5)

    @pytest.mark.parametrize("src, dst, bad", [(0, 5, 5), (-1, 0, -1), (3, 0, 3), (0, -2, -2)])
    def test_invalid_state_named(self, ab_table, src, dst, bad):
        m = Wfst(ab_table)
        m.add_states(2)
        with pytest.raises(IndexError, match=rf"^state {bad} out of range \(machine has 2 states\)$"):
            m.add_arc(src, 1, 1, 0.0, dst)
        assert m.num_arcs() == 0

    def test_copy_owns_its_arc_lists(self, ab_table):
        m = linear_acceptor("ab", ab_table, arc_weight=1.0)
        before = arc_snapshot(m)
        c = m.copy()
        c.add_arc(0, 2, 2, 0.5, 2)
        c.add_arc(c.add_state(), 1, 1, 0.0, 0)
        assert m.num_states() == 3 and m.num_arcs() == 2
        assert arc_snapshot(m) == before
        assert c.num_arcs() == 4

    def test_linear_acceptor(self, ab_table):
        m = linear_acceptor("ab", ab_table)
        assert m.num_states() == 3
        assert check_deterministic(m) and check_acceptor(m) and check_eps_free(m)

    def test_final_inf_clears(self, ab_table):
        m = Wfst(ab_table)
        s = m.add_state()
        m.set_final(s, 1.0)
        m.set_final(s, math.inf)
        assert not m.is_final(s)

    def test_inf_arc_is_not_stored(self, ab_table):
        # inf, the semiring's zero, is no transition; its states are still checked
        m = linear_acceptor("ab", ab_table, arc_weight=1.0)
        before = arc_snapshot(m)
        m.add_arc(0, 2, 2, math.inf, 2)
        m.add_arc(2, 0, 0, math.inf, 0)
        assert m.num_arcs() == 2 and arc_snapshot(m) == before
        assert [len(m.arcs(s)) for s in m.states()] == [1, 1, 0]
        with pytest.raises(IndexError):
            m.add_arc(0, 1, 1, math.inf, 5)

    @pytest.mark.parametrize("weight", [math.nan, -math.inf])
    def test_nan_and_minus_inf_rejected(self, ab_table, weight):
        # the reader rejects both, so a machine holding one would write text
        # it cannot read back
        m = linear_acceptor("ab", ab_table, arc_weight=1.0, final_weight=0.5)
        before = arc_snapshot(m)
        with pytest.raises(ConfigError, match="arc weight must be finite or inf"):
            m.add_arc(0, 1, 1, weight, 1)
        with pytest.raises(ConfigError, match="final weight must be finite or inf"):
            m.set_final(2, weight)
        assert arc_snapshot(m) == before and m.finals == {2: 0.5}

    def test_negative_zero_weights_read_as_zero(self, ab_table):
        def build(zero):
            m = Wfst(ab_table)
            m.add_states(4)
            m.set_start(0)
            m.add_arc(0, 1, 1, zero, 1)
            m.add_arc(0, 1, 1, 1.0, 2)  # not deterministic: optim determinizes
            m.add_arc(1, 2, 2, zero, 3)
            m.add_arc(2, 2, 2, zero, 3)
            m.add_arc(3, 0, 0, zero, 3)
            m.set_final(1, 0.5)
            m.set_final(3, zero)
            return m

        plus, minus = build(0.0), build(-0.0)
        assert write_fst_text(minus) == write_fst_text(plus)
        assert write_fst_text(optim(minus)) == write_fst_text(optim(plus))


class TestTextFormat:
    def test_roundtrip_bit_exact(self, ab_table):
        m = Wfst(ab_table)
        m.add_states(3)
        m.set_start(0)
        m.add_arc(0, 1, 2, 1.25, 1)
        m.add_arc(1, 2, 1, 0.0, 2)
        m.add_arc(1, 0, 0, -3.5, 0)
        m.set_final(2, 0.0)
        m.set_final(1, 6.907755279)
        text = write_fst_text(m)
        back = read_fst_text(text, ab_table)
        # the 9-significant-digit file text is the canonical form
        assert write_fst_text(back) == text
        assert back.start == 0
        assert set(back.finals) == set(m.finals)
        for s in m.finals:
            assert back.finals[s] == pytest.approx(m.finals[s], abs=1e-8)
        assert [(s, i, o, t) for s, (i, o, _, t) in all_arcs(back)] == \
               [(s, i, o, t) for s, (i, o, _, t) in all_arcs(m)]
        for (_, (_, _, got, _)), (_, (_, _, want, _)) in zip(all_arcs(back), all_arcs(m)):
            assert got == pytest.approx(want, abs=1e-8)

    def test_zero_weight_omitted(self, ab_table):
        m = Wfst(ab_table)
        m.add_states(2)
        m.set_start(0)
        m.add_arc(0, 1, 1, 0.0, 1)
        m.set_final(1, 0.0)
        text = write_fst_text(m)
        assert text.splitlines() == ["0\t1\t1\t1", "1"]

    def test_start_state_first(self, ab_table):
        # (start has arcs, start's final weight); an arcless start leads with
        # its final line, written `1\tinf` when the start is not final
        for start_arcs, start_final in [(True, math.inf), (False, 0.0), (False, math.inf)]:
            m = Wfst(ab_table)
            m.add_states(2)
            m.set_start(1)
            if start_arcs:
                m.add_arc(1, 1, 1, 0.0, 0)
            m.add_arc(0, 2, 2, 0.0, 1)
            m.set_final(0)
            m.set_final(1, start_final)
            text = write_fst_text(m)
            assert text.splitlines()[0].split("\t")[0] == "1"
            back = read_fst_text(text, ab_table)
            assert back.start == 1
            assert back.finals == m.finals
            assert write_fst_text(back) == text

    def test_inf_weight(self, ab_table):
        # an arcless start that is not final leads with `inf`, a final weight
        # prints with 9 significant digits, and `inf` on a final line is no final
        m = Wfst(ab_table)
        m.add_states(2)
        m.set_start(1)
        m.add_arc(0, 1, 1, 0.0, 1)
        m.set_final(0, 6.907755278982137)
        text = write_fst_text(m)
        assert text == "1\tinf\n0\t1\t1\t1\n0\t6.90775528\n"
        back = read_fst_text(text, ab_table)
        assert (back.start, back.num_states(), back.finals) == (1, 2, {0: 6.90775528})
        assert write_fst_text(back) == text
        assert read_fst_text(text + "0\tinf\n", ab_table).finals == {}

    def test_inf_arc_line_builds_no_arc(self, ab_table):
        # the line still names the start and grows the states
        back = read_fst_text("0\t3\t1\t1\tinf\n0\t1\t2\t2\n1\n", ab_table)
        assert (back.start, back.num_states(), back.finals) == (0, 4, {1: 0.0})
        assert back.num_arcs() == 1 and arc_snapshot(back) == [(0, 2, 2, 0.0, 1)]

    def test_empty_machine(self, ab_table):
        m = Wfst(ab_table)
        assert write_fst_text(m) == ""
        back = read_fst_text("", ab_table)
        assert back.is_empty()

    def test_blank_lines_skipped(self, ab_table):
        text = "0\t1\t1\t1\t0.5\n1\n"
        back = read_fst_text("\n  \n" + text.replace("\n", "\n\t\n", 1) + "\n", ab_table)
        assert write_fst_text(back) == text
        # a whitespace-only line is blank whatever its field count, an arc
        # line's 4 and 5 included, and does not count towards the state limit
        for blank in ("\t\t\t", "\t\t\t\t", "        ", " \t \t\t "):
            back = read_fst_text(f"{blank}\n" + text.replace("\n", f"\n{blank}\n", 1) + blank,
                                 ab_table)
            assert write_fst_text(back) == text
            with pytest.raises(RegexBiasError, match="line 2: state ids 0, 4 are outside 0..3"):
                read_fst_text(f"{blank}\n0\t4\t1\t1\n{blank}\n4\n", ab_table)

    def test_three_fields_rejected(self, ab_table):
        with pytest.raises(RegexBiasError, match=re.escape(
                "bad machine text at line 2: expected 1, 2, 4 or 5 tab-separated fields, got 3")):
            read_fst_text("0\t1\t1\t1\n1\t0\t1\n", ab_table)

    def test_bad_line_raises(self, ab_table):
        bad = [
            ("0\t1\tx\t1\n", 1),
            ("-1\t0\t1\t1\n", 1),             # negative state id
            ("0\t1\t1\t1\n-1\n", 2),
            ("0\t1\t3\t1\n", 1),              # labels outside the 3-symbol table
            ("0\t1\t1\t-1\n", 1),
            ("0\t1\t1\t1\tnan\n", 1),
            ("0\t1\t1\t1\t-inf\n", 1),
            ("0\t1\t1\t1\n1\tnan\n", 2),
            ("0\t1\t1\t1\n2000000\n", 2),    # would allocate 2M states
            ("0\t1\t1\t1\n1000000000\n", 2),
            ("0\t1000000000\t1\t1\n", 1),
        ]
        for text, lineno in bad:
            with pytest.raises(RegexBiasError, match=f"line {lineno}:"):
                read_fst_text(text, ab_table)


TEXT_TABLE = make_table(["a", "b"], "ab")
WEIGHTS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def trimmed_machines(draw):
    """Transducers over {a, b} trimmed by the connect oracle, with epsilon labels,
    negative and `inf` arc weights, any start state, arcless ones included."""
    n = draw(st.integers(1, 6))
    m = Wfst(TEXT_TABLE, TEXT_TABLE)
    m.add_states(n)
    m.set_start(draw(st.integers(0, n - 1)))
    for _ in range(draw(st.integers(0, 12))):
        m.add_arc(draw(st.integers(0, n - 1)), draw(st.integers(0, 2)), draw(st.integers(0, 2)),
                  draw(st.one_of(WEIGHTS, st.just(math.inf))), draw(st.integers(0, n - 1)))
    for s in draw(st.sets(st.integers(0, n - 1), min_size=1)):
        m.set_final(s, draw(WEIGHTS))
    return connect(m)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(trimmed_machines())
def test_text_roundtrip_keeps_text_start_and_counts(m):
    text = write_fst_text(m)
    back = read_fst_text(text, TEXT_TABLE)
    assert write_fst_text(back) == text
    assert back.start == m.start
    assert (back.num_states(), back.num_arcs(), back.finals.keys()) == \
           (m.num_states(), m.num_arcs(), m.finals.keys())


def assert_round_trips(m):
    """write -> read -> write gives the same text, and the read-back has m's
    start, states, arcs and finals, each weight rounded to 9 digits."""
    text = write_fst_text(m)
    back = read_fst_text(text, m.isymbols, m.osymbols)
    assert write_fst_text(back) == text
    assert (back.start, back.num_states()) == (m.start, m.num_states())
    assert arc_snapshot(back) == [(s, i, o, float("%.9g" % w), t)
                                  for s, i, o, w, t in arc_snapshot(m)]
    assert back.finals == {s: float("%.9g" % w) for s, w in m.finals.items()}


class TestUntrimmedRoundTrip:
    """Machines that `compose` and `replace` return are not trimmed: a state
    may have no arcs and no final weight, and still reads back."""

    SUB_TABLE = make_table(["a", "b"], "sub")
    ROOT_TABLE = make_table(["a", "b", "$REGEX"], "root")

    def untrimmed(self, kind, rng):
        if kind == "random_machine":
            return random_machine(rng, TEXT_TABLE)
        if kind == "compose":
            return compose(random_machine(rng, TEXT_TABLE), random_machine(rng, TEXT_TABLE))
        root = random_machine(rng, self.ROOT_TABLE)
        n, nt = root.num_states(), self.ROOT_TABLE.id("$REGEX")
        root.add_arc(rng.randrange(n), nt, nt, 0.5, rng.randrange(n))  # a call site
        return replace(root, nt, random_machine(rng, self.SUB_TABLE, max_states=4))

    @pytest.mark.parametrize("kind", ["random_machine", "compose", "replace"])
    def test_seeded_machines(self, kind):
        rng = random.Random(31)
        unnamed = 0  # machines with an arcless state that is not final
        for _ in range(400):
            m = self.untrimmed(kind, rng)
            assert_round_trips(m)
            unnamed += any(not m.arcs(s) and not m.is_final(s) for s in m.states())
        assert unnamed >= 20

    def test_isolated_states_after_the_last_arc(self, ab_table):
        m = Wfst(ab_table)
        m.add_states(5)
        m.set_start(0)
        m.add_arc(0, 1, 1, 0.0, 4)
        m.set_final(4)
        assert write_fst_text(m) == "0\t4\t1\t1\n1\tinf\n2\tinf\n3\tinf\n4\n"
        assert_round_trips(m)


class TestReadAsBuilt:
    """The reader builds the machine line by line, so a line may name a
    state that no earlier line has reached."""

    def test_final_line_before_any_arc_reaches_its_state(self, ab_table):
        back = read_fst_text("0\t1\t1\t1\n4\t0.5\n1\t4\t2\t2\n", ab_table)
        assert back.num_states() == 5 and back.finals == {4: 0.5}
        assert arc_snapshot(back) == [(0, 1, 1, 0.0, 1), (1, 2, 2, 0.0, 4)]

    def test_arcs_into_and_out_of_states_far_above_those_seen(self, ab_table):
        back = read_fst_text("0\t7\t1\t2\t0.25\n7\t1\t2\t1\n1\t0\t1\t1\n9\t3\t1\t1\n1\n",
                             ab_table)
        assert (back.start, back.num_states(), back.finals) == (0, 10, {1: 0.0})
        assert arc_snapshot(back) == [(0, 1, 2, 0.25, 7), (1, 1, 1, 0.0, 0),
                                      (7, 2, 1, 0.0, 1), (9, 1, 1, 0.0, 3)]

    @pytest.mark.parametrize("bad, reason", [
        ("3\t4\t1", "expected 1, 2, 4 or 5 tab-separated fields, got 3"),
        ("3\t4\t1\t3", "labels 1:3 are outside the symbol tables"),
        ("3\tnan", "weight must be finite or inf, got 'nan'"),
    ])
    def test_bad_line_after_many_good_ones_names_its_line(self, ab_table, bad, reason):
        lines = write_fst_text(linear_acceptor("ab" * 300, ab_table, arc_weight=0.5)).splitlines()
        lines[400:400] = ["", bad]  # the blank line counts too
        with pytest.raises(RegexBiasError, match=re.escape(f"bad machine text at line 402: {reason}")):
            read_fst_text("\n".join(lines), ab_table)

    @pytest.mark.parametrize("size", [200, 500])
    def test_seed_1_root_text_round_trips(self, bench, size):
        workloads, measure = bench
        lm = workloads.build_lm_root(
            workloads.inputs.lm_inputs(random.Random(1), size).corpus, measure.NullTracer())
        text = write_fst_text(lm.root)
        back = read_fst_text(text, lm.charset, lm.words)
        assert write_fst_text(back) == text
        assert (back.start, back.finals.keys()) == (lm.root.start, lm.root.finals.keys())
