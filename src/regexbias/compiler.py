"""Regex AST -> NFA -> minimal DFA, the unweighted acceptor R -> biased
machine T_r.

The NFA is Glushkov's position automaton: eps-free, one state per symbol
position plus the start. Most entity-style regexes give one that is already
deterministic per label pair, and `optim` then skips the subset
construction. Its start is final exactly when the regex accepts the empty
string, so such a regex is rejected before any DFA is built.

The DFA is built over label classes, as RE2's byte classes and flex's
equivalence classes do for a regex's alphabet: the label pairs whose arcs
go to the same targets at the same weights from every state form one class.
`[0-9] [A-Z0-9]` gives the classes {0-9} and {A-Z}. `optim` sees one arc
per class, and each of its arcs expands back into one per member. Members
are interchangeable on every path, and a class's first pair stands for it,
so the expansion is `optim`'s own result arc for arc (see `nfa_to_dfa`).

The bias step adds alpha to every arc of R, so a matching string of length
n costs exactly n*alpha. That is R composed with the one-state scorer
S_alpha, whose self-loops cost alpha per symbol; the tests keep that
composition as the oracle.
"""

from dataclasses import dataclass

from . import grammar as gr
from .errors import BudgetExceededError, ConfigError, GrammarError, SymbolError
from .fst import RESERVED, Arc, SymbolTable, Wfst, character_symbols
from .ops import DETERMINIZE_STATE_BUDGET, optim


@dataclass(frozen=True)
class BiasSpec:
    """Per-matched-symbol cost alpha; negative values strengthen the bias."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha == self.alpha and abs(self.alpha) != float("inf")):
            raise ConfigError(f"alpha must be a finite real, got {self.alpha}")


def _copies(node):
    """Child copies ast_to_nfa chains for a Repeat node."""
    return max(node.min, 1) if node.max is None else node.max


def _nfa_states(ast):
    """States ast_to_nfa builds for `ast`: its symbol positions plus the
    start. Memoised by node identity, since references share subtrees."""
    memo = {}

    def positions(node):
        key = id(node)
        if key not in memo:
            if isinstance(node, (gr.Concat, gr.Union)):
                memo[key] = sum(positions(c) for c in node.children)
            elif isinstance(node, gr.Repeat):
                memo[key] = _copies(node) * positions(node.child)
            else:
                memo[key] = 1
        return memo[key]

    return positions(ast) + 1


def ast_to_nfa(ast, alphabet: SymbolTable) -> Wfst:
    """Glushkov construction (Berry & Sethi 1986): the position automaton,
    an eps-free NFA acceptor with the regex's language.

    State 0 is the start. Every other state is one symbol position, an
    occurrence of a Literal or Class once repeats are expanded, and every
    arc into a position carries that position's labels, so no arc enters
    the start. The finals are the positions that can end a match, plus the
    start exactly when the regex accepts the empty string. A bounded repeat
    x{m,M} expands as x^m (x (x ...)?)?: each optional copy follows only the
    copy before it. The arcs into a position are shared Arc objects.

    Literals must exist in the alphabet; character classes narrow to the
    alphabet's subset of their range, once per Class node however often it
    repeats, and must stay non-empty. More than DETERMINIZE_STATE_BUDGET
    states raise before any is built.
    """
    size = _nfa_states(ast)
    if size > DETERMINIZE_STATE_BUDGET:
        raise BudgetExceededError(
            "ast_to_nfa", DETERMINIZE_STATE_BUDGET, size,
            f"ast_to_nfa would build {size} states, over the "
            f"{DETERMINIZE_STATE_BUDGET} state budget"
        )
    m = Wfst(alphabet)
    m.set_start(m.add_state())
    into = [None]  # position -> the arcs that enter it
    linked = set()  # (p, q) pairs whose arcs are in
    narrowed = {}  # id of a Class node -> its labels in the alphabet

    def position(labels):
        q = m.add_state()
        into.append([Arc(label, label, 0.0, q) for label in labels])
        return [q], [q], False

    def link(lasts, firsts):
        for p in lasts:
            arcs = m.arcs(p)
            for q in firsts:
                if (p, q) not in linked:
                    linked.add((p, q))
                    arcs.extend(into[q])

    def then(left, right):
        """(first, last, nullable) of `left` followed by `right`."""
        f1, l1, n1 = left
        f2, l2, n2 = right
        link(l1, f2)
        return f1 + f2 if n1 else f1, l1 + l2 if n2 else l2, n1 and n2

    def build(node):
        """Positions for `node`; returns its (first, last, nullable)."""
        if isinstance(node, gr.Literal):
            label = alphabet.find(node.symbol)
            if label is None:
                raise SymbolError(f"regex symbol {node.symbol!r} is not in the "
                                  f"decoder alphabet {alphabet.name!r}")
            return position([label])
        if isinstance(node, gr.Class):
            labels = narrowed.get(id(node))
            if labels is None:
                labels = narrowed[id(node)] = [alphabet.id(c) for c in node.symbols
                                               if alphabet.find(c) is not None
                                               and c not in RESERVED]
            if not labels:
                raise SymbolError(
                    f"character class {node.symbols!r} has no symbols in the "
                    f"decoder alphabet {alphabet.name!r}"
                )
            return position(labels)
        if isinstance(node, gr.Concat):
            run = [], [], True
            for child in node.children:
                run = then(run, build(child))
            return run
        if isinstance(node, gr.Union):
            parts = [build(child) for child in node.children]
            return ([q for f, _, _ in parts for q in f], [q for _, l, _ in parts for q in l],
                    any(n for _, _, n in parts))
        if isinstance(node, gr.Repeat):
            # a chain of copies; a match may end after any copy from the
            # min-th on, and the last loops back to itself when unbounded
            run, lasts = ([], [], True), {}
            for done in range(1, _copies(node) + 1):
                copy = build(node.child)
                run = then(run, copy)
                if done >= node.min:
                    lasts.update(dict.fromkeys(run[1]))
            if node.max is None:
                link(run[1], copy[0])
            return run[0], list(lasts), node.min == 0 or run[2]
        raise TypeError(f"not a regex AST node: {node!r}")

    firsts, lasts, nullable = build(ast)
    link([0], firsts)
    for q in lasts + [0] * nullable:
        m.set_final(q, 0.0)
    return m


def nfa_to_dfa(nfa: Wfst, state_budget: int = DETERMINIZE_STATE_BUDGET) -> Wfst:
    """optim(nfa), the canonical DFA, computed over label classes.

    A label class holds the (ilabel, olabel) pairs whose arcs, listed state
    by state in arc order, go to the same targets at the same weights; its
    smallest pair is its representative. optim runs on the machine that
    keeps only the representatives' arcs, and each arc of its result then
    expands into one arc per member, each state's arcs sorted by label pair.

    The result is optim(nfa) arc for arc, and a budget raises at the same
    point with the same count. Members make the same moves from every
    subset, so determinize builds the same subsets, pushing gives the same
    weights and `_refine` finds the same partition. determinize and
    minimize number new states in order of label pair, and a class's
    representative comes first, so no member reaches a state first. Pairs
    whose arcs at a nondeterministic state come in different orders fall
    into different classes, which only misses a merge.
    """
    moves = {}  # label pair -> flat [state, target, weight, ...] of its arcs
    for s in nfa.states():
        for arc in nfa.arcs(s):
            moves.setdefault((arc.ilabel, arc.olabel), []).extend(
                (s, arc.nextstate, arc.weight))
    classes = {}  # flat moves -> their label pairs, ascending
    for pair in sorted(moves):
        classes.setdefault(tuple(moves.pop(pair)), []).append(pair)
    members = {pairs[0]: pairs for pairs in classes.values()}
    rep = {pair: pairs[0] for pairs in members.values() for pair in pairs}
    del classes  # its keys hold every arc; freed before optim runs
    reduced = Wfst(nfa.isymbols, nfa.osymbols)
    reduced.add_states(nfa.num_states())
    reduced.start, reduced.finals = nfa.start, dict(nfa.finals)
    for s in nfa.states():
        # a class keeps the arcs of its member met first at s, in their
        # places, so minimize's pushing relaxes them as it would in nfa
        standing = {}
        arcs = reduced.arcs(s)
        for arc in nfa.arcs(s):
            pair = arc.ilabel, arc.olabel
            r = rep[pair]
            if standing.setdefault(r, pair) == pair:
                arcs.append(arc if r == pair else Arc(*r, arc.weight, arc.nextstate))
    dfa = optim(reduced, state_budget)
    if len(members) < len(rep):  # some class has more than one member
        for s in dfa.states():
            arcs = dfa.arcs(s)
            arcs[:] = [Arc(i, o, w, t) for i, o, w, t in sorted(
                (i, o, arc.weight, arc.nextstate)
                for arc in arcs for i, o in members[arc.ilabel, arc.olabel])]
    return dfa


def dfa_to_acceptor(dfa: Wfst) -> Wfst:
    """The unweighted acceptor R: identical in/out labels, every weight 0."""
    out = Wfst(dfa.isymbols, dfa.osymbols)
    out.add_states(dfa.num_states())
    if dfa.is_empty():
        return out
    out.set_start(dfa.start)
    for s in dfa.states():
        for arc in dfa.arcs(s):
            out.add_arc(s, arc.ilabel, arc.ilabel, 0.0, arc.nextstate)
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
    t_r = r.copy()
    for s in t_r.states():
        arcs = t_r.arcs(s)
        arcs[:] = [Arc(arc.ilabel, arc.olabel, arc.weight + bias.alpha, arc.nextstate)
                   for arc in arcs]
    return t_r


def compile_grammar(text: str, alphabet: SymbolTable):
    """Grammar text -> (GrammarSource, unweighted acceptor R).

    A regex that accepts the empty string is rejected: its `$REGEX` span could
    read nothing, a free or negative epsilon loop when nonterminal_weight <= 0.
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
    """Grammar text -> (GrammarSource, R, T_r at the given alpha)."""
    source, r = compile_grammar(text, alphabet)
    return source, r, apply_bias(r, BiasSpec(alpha))
