"""AT&T-style machine text, which every machine round-trips through.

Arc lines are `src<TAB>dst<TAB>ilabel<TAB>olabel<TAB>weight`, final lines
are `state<TAB>weight`; the weight field is omitted when it is 0. Labels
are integer ids into the symbol tables the reader is given (`<eps>` is
id 0); the tables themselves are not serialized. The first line's src is
the start state. Every state is named by a line: a state with no arcs gets
a final line, `state<TAB>inf` when it is not final, so a read-back has
exactly the writer's states. Every weight prints as `%.9g`, which writes
the zero element as `inf`.
"""

from .errors import RegexBiasError
from .fst import ZERO, Fst, SymbolTable, Wfst, nogc


def write_fst_text(m: Fst) -> str:
    if m.is_empty():
        return ""

    def final_line(s):
        w = m.final(s)
        return "%d\t%.9g" % (s, w) if w else str(s)

    # the first line names the start, so an arcless start leads with its final
    # line; each other final or arcless state gets one after the arcs, by id
    lead = [] if m.arcs(m.start) else [m.start]
    lines = [final_line(s) for s in lead]
    tail = set(m.finals)
    order = [m.start] + [s for s in m.states() if s != m.start]
    for s in order:
        arcs = m.arcs(s)
        if not arcs:
            tail.add(s)
        for i, o, w, t in arcs:
            lines.append("%d\t%d\t%d\t%d\t%.9g" % (s, t, i, o, w) if w else
                         "%d\t%d\t%d\t%d" % (s, t, i, o))
    lines.extend(final_line(s) for s in sorted(tail) if s not in lead)
    return "\n".join(lines) + "\n"


class _Ints(dict):
    """Decimal text -> int, converting each distinct text once."""

    def __missing__(self, text):
        value = self[text] = int(text)
        return value


@nogc
def read_fst_text(text: str, isymbols: SymbolTable, osymbols: SymbolTable | None = None) -> Wfst:
    """Parse machine text; malformed input raises RegexBiasError. State ids
    stay below twice the non-blank lines, as the writer names every state
    on a line. A line is tested for being blank only when it fails to parse,
    as every whitespace-only line does."""
    m = Wfst(isymbols, osymbols)
    lines = text.splitlines()
    state_limit = 2 * sum(map(bool, map(str.strip, lines)))
    ilimit, olimit = len(m.isymbols), len(m.osymbols)
    arcs = []  # state -> m's arc list for it
    finals = m.finals
    ints = _Ints()  # state ids and labels recur from line to line
    start = None
    for lineno, line in enumerate(lines, 1):
        fields = line.split("\t")
        n = len(fields)
        try:
            if n == 4 or n == 5:
                state, dst = ints[fields[0]], ints[fields[1]]
                ilabel, olabel = ints[fields[2]], ints[fields[3]]
                if not (0 <= state < state_limit and 0 <= dst < state_limit):
                    raise ValueError(f"state ids {state}, {dst} are outside 0..{state_limit - 1}")
                if not (0 <= ilabel < ilimit and 0 <= olabel < olimit):
                    raise ValueError(f"labels {ilabel}:{olabel} are outside the symbol tables")
                top = state if state > dst else dst
            elif n == 1 or n == 2:
                state = top = ints[fields[0]]
                if not 0 <= state < state_limit:
                    raise ValueError(f"state id {state} is outside 0..{state_limit - 1}")
                dst = None
            else:
                raise ValueError(f"expected 1, 2, 4 or 5 tab-separated fields, got {n}")
            weight = float(fields[-1]) if n == 2 or n == 5 else 0.0
            if not -ZERO < weight <= ZERO:  # NaN and -inf; inf is no arc or final
                raise ValueError(f"weight must be finite or inf, got {fields[-1]!r}")
        except ValueError as exc:
            if not line.strip():
                continue
            raise RegexBiasError(f"bad machine text at line {lineno}: {exc}") from None
        if top >= len(arcs):
            arcs.extend(map(m.arcs, range(m.add_states(top + 1 - len(arcs)), top + 1)))
        if dst is None:
            if weight != ZERO:
                finals[state] = weight
            else:
                finals.pop(state, None)
        elif weight != ZERO:
            arcs[state].append((ilabel, olabel, weight, dst))
        if start is None:
            start = state
    if start is not None:
        m.set_start(start)
    return m
