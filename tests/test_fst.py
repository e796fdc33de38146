import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regexbias.errors import RegexBiasError, SymbolError
from regexbias.fst import EPSILON, EPSILON_ID, SymbolTable, Wfst, linear_acceptor
from regexbias.ops import shortest_path
from regexbias.textio import read_fst_text, write_fst_text

from conftest import (
    all_arcs,
    arc_snapshot,
    check_acceptor,
    check_deterministic,
    check_eps_free,
    connect,
    make_table,
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
        assert [(s, a.ilabel, a.olabel, a.nextstate) for s, a in all_arcs(back)] == \
               [(s, a.ilabel, a.olabel, a.nextstate) for s, a in all_arcs(m)]
        for (_, got), (_, want) in zip(all_arcs(back), all_arcs(m)):
            assert got.weight == pytest.approx(want.weight, abs=1e-8)

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
        from regexbias.textio import format_weight, parse_weight

        assert format_weight(math.inf) == "inf"
        assert parse_weight("inf") == math.inf
        assert format_weight(6.907755278982137) == "6.90775528"

    def test_empty_machine(self, ab_table):
        m = Wfst(ab_table)
        assert write_fst_text(m) == ""
        back = read_fst_text("", ab_table)
        assert back.is_empty()

    def test_blank_lines_skipped(self, ab_table):
        text = "0\t1\t1\t1\t0.5\n1\n"
        back = read_fst_text("\n  \n" + text.replace("\n", "\n\t\n", 1) + "\n", ab_table)
        assert write_fst_text(back) == text

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
