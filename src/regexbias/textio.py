"""AT&T-style machine text.

Arc lines are `src<TAB>dst<TAB>ilabel<TAB>olabel<TAB>weight`, final lines
are `state<TAB>weight`; the weight field is omitted when it is 0. Labels
are integer ids into the symbol tables the reader is given (`<eps>` is
id 0); the tables themselves are not serialized. The first line's src is
the start state. Weights print with up to 9 significant digits, `inf` for
the zero element.
"""

from .errors import RegexBiasError
from .fst import Fst, SymbolTable, Wfst
from .semiring import ZERO


def format_weight(w: float) -> str:
    if w == ZERO:
        return "inf"
    return f"{w:.9g}"


def parse_weight(text: str) -> float:
    """A finite weight or `inf`; NaN and -inf are rejected with ValueError."""
    w = float(text)
    if w != w or w == -ZERO:
        raise ValueError(f"weight must be finite or inf, got {text!r}")
    return w


def write_fst_text(m: Fst) -> str:
    if m.is_empty():
        return ""

    def final_line(s):
        w = m.final(s)
        return f"{s}\t{format_weight(w)}" if w != 0.0 else str(s)

    # the first line names the start state, so an arcless start leads with its
    # final line (`inf` when it is not final)
    lead = [] if m.arcs(m.start) else [m.start]
    lines = [final_line(s) for s in lead]
    order = [m.start] + [s for s in m.states() if s != m.start]
    for s in order:
        for arc in m.arcs(s):
            fields = [str(s), str(arc.nextstate), str(arc.ilabel), str(arc.olabel)]
            if arc.weight != 0.0:
                fields.append(format_weight(arc.weight))
            lines.append("\t".join(fields))
    lines.extend(final_line(s) for s in sorted(m.finals) if s not in lead)
    return "\n".join(lines) + "\n"


def read_fst_text(text: str, isymbols: SymbolTable, osymbols: SymbolTable | None = None) -> Wfst:
    """Parse machine text; malformed input raises RegexBiasError. State ids
    stay below twice the non-blank lines: a trimmed machine's states all appear."""
    m = Wfst(isymbols, osymbols)
    lines = text.splitlines()
    state_limit = 2 * sum(1 for line in lines if line.strip())
    ilimit, olimit = len(m.isymbols), len(m.osymbols)
    pending_arcs = []
    pending_finals = []
    start = None
    max_state = -1
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        try:
            if len(fields) in (4, 5):
                src, dst, ilabel, olabel = map(int, fields[:4])
                if not (0 <= src < state_limit and 0 <= dst < state_limit):
                    raise ValueError(f"state ids {src}, {dst} are outside 0..{state_limit - 1}")
                if not (0 <= ilabel < ilimit and 0 <= olabel < olimit):
                    raise ValueError(f"labels {ilabel}:{olabel} are outside the symbol tables")
                weight = parse_weight(fields[4]) if len(fields) == 5 else 0.0
                pending_arcs.append((src, dst, ilabel, olabel, weight))
                max_state = max(max_state, src, dst)
            elif len(fields) in (1, 2):
                state = int(fields[0])
                if not 0 <= state < state_limit:
                    raise ValueError(f"state id {state} is outside 0..{state_limit - 1}")
                weight = parse_weight(fields[1]) if len(fields) == 2 else 0.0
                pending_finals.append((state, weight))
                max_state = max(max_state, state)
            else:
                raise ValueError(f"expected 1, 2, 4 or 5 tab-separated fields, got {len(fields)}")
        except ValueError as exc:
            raise RegexBiasError(f"bad machine text at line {lineno}: {exc}") from None
        if start is None:
            start = int(fields[0])
    del lines  # free the split text before the machine is built
    if start is None:
        return m
    m.add_states(max_state + 1)
    m.set_start(start)
    for src, dst, ilabel, olabel, weight in pending_arcs:
        m.add_arc(src, ilabel, olabel, weight, dst)
    for state, weight in pending_finals:
        m.set_final(state, weight)
    return m
