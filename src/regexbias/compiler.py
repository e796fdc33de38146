"""Regex AST -> NFA -> minimal DFA, the unweighted acceptor R -> biased
machine T_r.

The NFA is Glushkov's position automaton: eps-free, one state per symbol
position plus the start. Most entity-style regexes give one that is already
deterministic per label pair, and `optim` then skips the subset
construction. Its start is final exactly when the regex accepts the empty
string, so such a regex is rejected before any DFA is built.

The NFA carries one arc per label class, as RE2's byte classes do for a
regex's alphabet: a class holds the labels that exactly the same positions
carry, so `[0-9] [A-Z0-9]` gives the classes {0-9} and {A-Z}. Members of a
class label the same arcs at weight 0 and are interchangeable on every
path. `optim` runs on one arc per class, labelled with the class's
smallest member, and each arc of its result expands back into one per
member: the DFA of the per-label automaton, arc for arc (see `nfa_to_dfa`).

The bias step adds alpha to every arc of R, so a matching string of length
n costs exactly n*alpha. That is R composed with the one-state scorer
S_alpha, whose self-loops cost alpha per symbol; the tests keep that
composition as the oracle.
"""

from dataclasses import dataclass

from . import grammar as gr
from .errors import BudgetExceededError, ConfigError, GrammarError, SymbolError
from .fst import EPSILON_ID, RESERVED, SymbolTable, Wfst, character_symbols
from .ops import DETERMINIZE_STATE_BUDGET, optim


@dataclass(frozen=True)
class BiasSpec:
    """Per-matched-symbol cost alpha; a lower alpha biases more strongly
    (see `compile_biased` for the neutral point)."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha == self.alpha and abs(self.alpha) != float("inf")):
            raise ConfigError(f"alpha must be a finite real, got {self.alpha}")


def _copies(node):
    """Child copies ast_to_nfa chains for a Repeat node."""
    return max(node.min, 1) if node.max is None else node.max


def _positions(node, memo):
    """Symbol positions ast_to_nfa builds for `node`, memoised in `memo` by
    node identity, since references share subtrees."""
    key = id(node)
    if key not in memo:
        if isinstance(node, (gr.Concat, gr.Union)):
            memo[key] = sum(_positions(c, memo) for c in node.children)
        elif isinstance(node, gr.Repeat):
            memo[key] = _copies(node) * _positions(node.child, memo)
        else:
            memo[key] = 1
    return memo[key]


def _link(follow, lasts, firsts):
    for p in lasts:
        follow[p].update(dict.fromkeys(firsts))


def _then(follow, left, right):
    """(first, last, nullable) of `left` followed by `right`."""
    f1, l1, n1 = left
    f2, l2, n2 = right
    _link(follow, l1, f2)
    return f1 + f2 if n1 else f1, l1 + l2 if n2 else l2, n1 and n2


def _character(alphabet, symbol):
    """`symbol`'s label when `character_symbols(alphabet)` lists it: never
    `<eps>` or a reserved symbol, CTC's `<blank>` among them."""
    label = alphabet.find(symbol)
    return None if label == EPSILON_ID or symbol in RESERVED else label


def _build(node, walk):
    """Positions for `node`, recorded in `walk`, ast_to_nfa's (alphabet,
    carried, follow, narrowed); returns the node's (first, last, nullable)."""
    alphabet, carried, follow, narrowed = walk
    if isinstance(node, gr.Literal):
        label = _character(alphabet, node.symbol)
        if label is None:
            raise SymbolError(f"regex symbol {node.symbol!r} is not a character of "
                              f"the decoder alphabet {alphabet.name!r}")
        labels = [label]
    elif isinstance(node, gr.Class):
        labels = narrowed.get(id(node))
        if labels is None:
            labels = narrowed[id(node)] = {label for c in node.symbols if
                                           (label := _character(alphabet, c)) is not None}
        if not labels:
            raise SymbolError(
                f"character class {node.symbols!r} has no symbols in the "
                f"decoder alphabet {alphabet.name!r}"
            )
    elif isinstance(node, gr.Concat):
        run = [], [], True
        for child in node.children:
            run = _then(follow, run, _build(child, walk))
        return run
    elif isinstance(node, gr.Union):
        parts = [_build(child, walk) for child in node.children]
        return ([q for f, _, _ in parts for q in f], [q for _, l, _ in parts for q in l],
                any(n for _, _, n in parts))
    elif isinstance(node, gr.Repeat):
        # a chain of copies; a match may end after any copy from the
        # min-th on, and the last loops back to itself when unbounded
        run, lasts = ([], [], True), {}
        for done in range(1, _copies(node) + 1):
            copy = _build(node.child, walk)
            run = _then(follow, run, copy)
            if done >= node.min:
                lasts.update(dict.fromkeys(run[1]))
        if node.max is None:
            _link(follow, run[1], copy[0])
        return run[0], list(lasts), node.min == 0 or run[2]
    else:
        raise TypeError(f"not a regex AST node: {node!r}")
    q = len(carried)  # a Literal or Class: one new position
    carried.append(labels)
    follow.append({})
    return [q], [q], False


class PositionAutomaton(Wfst):
    """The position automaton over label classes, as `ast_to_nfa` builds
    it. Each arc is labelled with the smallest label of its class, and
    `members` maps that label to the class's labels, ascending."""

    members: dict


def ast_to_nfa(ast, alphabet: SymbolTable) -> PositionAutomaton:
    """Glushkov construction (Berry & Sethi 1986): the position automaton,
    an eps-free NFA acceptor with the regex's language, one arc per label
    class.

    State 0 is the start. Every other state is one symbol position, an
    occurrence of a Literal or Class once repeats are expanded, and the
    arcs into a position carry that position's labels, so no arc enters
    the start. The finals are the positions that can end a match, plus the
    start exactly when the regex accepts the empty string. A bounded repeat
    x{m,M} expands as x^m (x (x ...)?)?: each optional copy follows only the
    copy before it.

    A label class holds the labels that exactly the same positions carry:
    `[0-9] [A-Z0-9]` gives {0-9} and {A-Z}. Each link into a position gets
    one arc per class among the position's labels, labelled with the
    class's smallest; the arcs into a position are shared tuples.
    `members` maps that label to the whole class, so expanding each arc
    into one per member gives the per-label position automaton.

    A regex symbol is a character exactly when `character_symbols` lists
    it, which `<eps>` and the reserved symbols are not. Literals must be
    characters; character classes narrow to their distinct characters,
    once per Class node however often it repeats, and must stay
    non-empty. More than DETERMINIZE_STATE_BUDGET states raise before any
    is built.
    """
    size = _positions(ast, {}) + 1  # the symbol positions plus the start
    if size > DETERMINIZE_STATE_BUDGET:
        raise BudgetExceededError(
            "ast_to_nfa", DETERMINIZE_STATE_BUDGET, size,
            f"ast_to_nfa would build {size} states, over the "
            f"{DETERMINIZE_STATE_BUDGET} state budget"
        )
    carried = [()]  # state -> the labels on the arcs into it
    follow = [{}]  # state -> the positions it links to, in link order
    narrowed = {}  # id of a Class node -> its labels in the alphabet
    firsts, lasts, nullable = _build(ast, (alphabet, carried, follow, narrowed))
    m = PositionAutomaton(alphabet)
    m.set_start(m.add_states(len(carried)))
    _link(follow, [0], firsts)
    for q in lasts + [0] * nullable:
        m.set_final(q, 0.0)
    carriers = {}  # label -> the positions that carry it
    for q, labels in enumerate(carried):
        for label in labels:
            carriers.setdefault(label, []).append(q)
    classes = {}  # positions -> the labels they carry, ascending
    for label in sorted(carriers):
        classes.setdefault(tuple(carriers[label]), []).append(label)
    into = [[] for _ in carried]  # position -> the arcs that enter it
    for positions, labels in classes.items():
        for q in positions:
            into[q].append((labels[0], labels[0], 0.0, q))
    for p, positions in enumerate(follow):
        m.arcs(p).extend(arc for q in positions for arc in into[q])
    m.members = {labels[0]: labels for labels in classes.values()}
    return m


def nfa_to_dfa(nfa: PositionAutomaton, state_budget: int = DETERMINIZE_STATE_BUDGET) -> Wfst:
    """The minimal DFA of the per-label position automaton: optim(nfa),
    each arc then expanded into one arc per member of its label's class,
    each state's arcs sorted by label.

    The expansion is exact. In the per-label automaton the arcs into a
    position carry all of its labels at weight 0, so the members of a
    class, which the same positions carry, make the same moves from every
    set of states: determinize builds the same subsets, `_refine`
    finds the same partition, and a budget raises at the same point with
    the same count. With every weight 0, arc order cannot move a pushed
    weight. determinize and minimize number new states in order of label,
    and a class's smallest label stands for it, so no member would have
    reached a state first.
    """
    dfa = optim(nfa, state_budget)
    members = nfa.members
    for s in dfa.states():
        arcs = dfa.arcs(s)
        arcs[:] = sorted((label, label, w, t) for i, _, w, t in arcs for label in members[i])
    return dfa


def dfa_to_acceptor(dfa: Wfst) -> Wfst:
    """The unweighted acceptor R: identical in/out labels, every weight 0."""
    out = Wfst(dfa.isymbols, dfa.osymbols)
    out.add_states(dfa.num_states())
    if dfa.is_empty():
        return out
    out.set_start(dfa.start)
    for s in dfa.states():
        for i, _, _, t in dfa.arcs(s):
            out.add_arc(s, i, i, 0.0, t)
    for s in dfa.finals:
        out.set_final(s, 0.0)
    return out


def scorer(alphabet: SymbolTable, alpha: float) -> Wfst:
    """S_alpha: one state, start and final, a self-loop per character at alpha."""
    m = Wfst(alphabet, alphabet)
    s = m.add_state()
    m.set_start(s)
    m.set_final(s, 0.0)
    for symbol in character_symbols(alphabet):
        label = alphabet.id(symbol)
        m.add_arc(s, label, label, alpha, s)
    return m


def apply_bias(r: Wfst, bias: BiasSpec) -> Wfst:
    """T_r: R with alpha added to every arc, so each matched symbol costs alpha.

    For an epsilon-free, trimmed R over character symbols, as
    compile_grammar builds it, this is S_alpha o R (see `scorer`), state
    for state and arc for arc. R is left unchanged: T_r is a copy of it
    whose arc lists hold new arcs.
    """
    t_r, alpha = r.copy(), bias.alpha
    for s in t_r.states():
        arcs = t_r.arcs(s)
        arcs[:] = [(i, o, w + alpha, t) for i, o, w, t in arcs]
    return t_r


def compile_grammar(text: str, alphabet: SymbolTable):
    """Grammar text -> (GrammarSource, unweighted acceptor R).

    A regex that accepts the empty string is rejected: its `$REGEX` span could
    read nothing, a free epsilon loop.
    """
    source = gr.parse_grammar(text)
    nfa = ast_to_nfa(source.export_ast(), alphabet)
    # the position automaton's start is final exactly when the regex is
    # nullable, so this runs before the subset construction
    if nfa.is_final(nfa.start):
        raise GrammarError("the export must not accept the empty string")
    # the minimal DFA of a zero-weight acceptor is already R
    return source, nfa_to_dfa(nfa)


def compile_biased(text: str, alphabet: SymbolTable, alpha: float):
    """Grammar text -> (GrammarSource, R, T_r at the given alpha). A bad
    alpha is rejected before the grammar is compiled. alpha is an absolute
    cost per character: in a root (see `lm.LmConfig`), a matching span of
    any length goes through `$REGEX` exactly when alpha <
    char_fallback_penalty, so at the defaults the neutral alpha is 8.0,
    not 0."""
    bias = BiasSpec(alpha)
    source, r = compile_grammar(text, alphabet)
    return source, r, apply_bias(r, bias)
