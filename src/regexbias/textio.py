"""AT&T-style machine text.

Arc lines are `src<TAB>dst<TAB>ilabel<TAB>olabel<TAB>weight`, final lines
are `state<TAB>weight`; the weight field is omitted when it is 0. Labels
are integer ids into the symbol tables the reader is given (`<eps>` is
id 0); the tables themselves are not serialized. The first line's src is
the start state. Weights print with up to 9 significant digits, `inf` for
the zero element.
"""

from .errors import RegexBiasError
from .fst import ZERO, Fst, SymbolTable, Wfst, nogc


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
        for i, o, w, t in m.arcs(s):
            field = "" if w == 0.0 else f"\t{format_weight(w)}"
            lines.append(f"{s}\t{t}\t{i}\t{o}{field}")
    lines.extend(final_line(s) for s in sorted(m.finals) if s not in lead)
    return "\n".join(lines) + "\n"


@nogc
def read_fst_text(text: str, isymbols: SymbolTable, osymbols: SymbolTable | None = None) -> Wfst:
    """Parse machine text; malformed input raises RegexBiasError. State ids
    stay below twice the non-blank lines: a trimmed machine's states all appear."""
    m = Wfst(isymbols, osymbols)
    lines = text.splitlines()
    state_limit = 2 * sum(1 for line in lines if line.strip())
    ilimit, olimit = len(m.isymbols), len(m.osymbols)
    arcs = []  # state -> m's arc list for it
    start = None
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        try:
            if len(fields) in (4, 5):
                state, dst = int(fields[0]), int(fields[1])
                ilabel, olabel = int(fields[2]), int(fields[3])
                if not (0 <= state < state_limit and 0 <= dst < state_limit):
                    raise ValueError(f"state ids {state}, {dst} are outside 0..{state_limit - 1}")
                if not (0 <= ilabel < ilimit and 0 <= olabel < olimit):
                    raise ValueError(f"labels {ilabel}:{olabel} are outside the symbol tables")
                weight = parse_weight(fields[4]) if len(fields) == 5 else 0.0
                top = state if state > dst else dst
            elif len(fields) in (1, 2):
                state = top = int(fields[0])
                if not 0 <= state < state_limit:
                    raise ValueError(f"state id {state} is outside 0..{state_limit - 1}")
                weight = parse_weight(fields[1]) if len(fields) == 2 else 0.0
                dst = None
            else:
                raise ValueError(f"expected 1, 2, 4 or 5 tab-separated fields, got {len(fields)}")
        except ValueError as exc:
            raise RegexBiasError(f"bad machine text at line {lineno}: {exc}") from None
        if top >= len(arcs):
            arcs.extend(map(m.arcs, range(m.add_states(top + 1 - len(arcs)), top + 1)))
        if dst is None:
            m.set_final(state, weight)
        elif weight != ZERO:
            arcs[state].append((ilabel, olabel, weight, dst))
        if start is None:
            start = state
    if start is not None:
        m.set_start(start)
    return m
