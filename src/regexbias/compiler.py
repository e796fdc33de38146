"""Regex AST -> NFA -> minimal DFA, the unweighted acceptor R -> biased
machine T_r.

The bias step adds alpha to every arc of R, so a matching string of length
n costs exactly n*alpha. That is R composed with the one-state scorer
S_alpha, whose self-loops cost alpha per symbol; the tests keep that
composition as the oracle.
"""

from dataclasses import dataclass

from . import grammar as gr
from .errors import BudgetExceededError, ConfigError, GrammarError, SymbolError
from .fst import EPSILON_ID, RESERVED, Arc, SymbolTable, Wfst, character_symbols
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
    """States ast_to_nfa builds for `ast`, memoised by node identity:
    hashing a frozen node would walk its shared subtrees again."""
    memo = {}

    def count(node):
        key = id(node)
        if key not in memo:
            if isinstance(node, gr.Concat) and node.children:
                memo[key] = sum(count(c) for c in node.children)
            elif isinstance(node, gr.Union):
                memo[key] = 2 + sum(count(c) for c in node.children)
            elif isinstance(node, gr.Repeat):
                memo[key] = 2 + _copies(node) * count(node.child)
            else:
                memo[key] = 2
        return memo[key]

    return count(ast)


def ast_to_nfa(ast, alphabet: SymbolTable) -> Wfst:
    """Thompson construction: an eps-NFA acceptor with the regex's language.

    Literals must exist in the alphabet; character classes narrow to the
    alphabet's subset of their range and must stay non-empty. More than
    DETERMINIZE_STATE_BUDGET states raise before any is built.
    """
    size = _nfa_states(ast)
    if size > DETERMINIZE_STATE_BUDGET:
        raise BudgetExceededError(
            "ast_to_nfa", DETERMINIZE_STATE_BUDGET, size,
            f"ast_to_nfa would build {size} states, over the "
            f"{DETERMINIZE_STATE_BUDGET} state budget"
        )
    m = Wfst(alphabet)

    def lookup(symbol):
        label = alphabet.find(symbol)
        if label is None:
            raise SymbolError(
                f"regex symbol {symbol!r} is not in the decoder alphabet {alphabet.name!r}"
            )
        return label

    def eps(src, dst):
        m.add_arc(src, EPSILON_ID, EPSILON_ID, 0.0, dst)

    def build(node):
        if isinstance(node, gr.Literal):
            s, f = m.add_state(), m.add_state()
            label = lookup(node.symbol)
            m.add_arc(s, label, label, 0.0, f)
            return s, f
        if isinstance(node, gr.Class):
            members = [c for c in node.symbols if alphabet.find(c) is not None
                       and c not in RESERVED]
            if not members:
                raise SymbolError(
                    f"character class {node.symbols!r} has no symbols in the "
                    f"decoder alphabet {alphabet.name!r}"
                )
            s, f = m.add_state(), m.add_state()
            for c in members:
                label = alphabet.id(c)
                m.add_arc(s, label, label, 0.0, f)
            return s, f
        if isinstance(node, gr.Concat):
            if not node.children:
                s, f = m.add_state(), m.add_state()
                eps(s, f)
                return s, f
            s, cur = build(node.children[0])
            for child in node.children[1:]:
                ns, nf = build(child)
                eps(cur, ns)
                cur = nf
            return s, cur
        if isinstance(node, gr.Union):
            s, f = m.add_state(), m.add_state()
            for child in node.children:
                cs, cf = build(child)
                eps(s, cs)
                eps(cf, f)
            return s, f
        if isinstance(node, gr.Repeat):
            # a chain of copies; the last loops back to itself when unbounded
            s, f = m.add_state(), m.add_state()
            if node.min == 0:
                eps(s, f)
            cur = s
            for done in range(1, _copies(node) + 1):
                cs, cf = build(node.child)
                eps(cur, cs)
                if done >= node.min:
                    eps(cf, f)
                cur = cf
            if node.max is None:
                eps(cur, cs)
            return s, f
        raise TypeError(f"not a regex AST node: {node!r}")

    start, final = build(ast)
    m.set_start(start)
    m.set_final(final, 0.0)
    return m


def nfa_to_dfa(nfa: Wfst, state_budget: int = DETERMINIZE_STATE_BUDGET) -> Wfst:
    """Subset construction plus minimization: the canonical eps-free DFA."""
    return optim(nfa, state_budget)


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
    # the minimal DFA of a zero-weight acceptor is already R
    r = nfa_to_dfa(ast_to_nfa(source.export_ast(), alphabet))
    if r.is_final(r.start):
        raise GrammarError("the export must not accept the empty string")
    return source, r


def compile_biased(text: str, alphabet: SymbolTable, alpha: float):
    """Grammar text -> (GrammarSource, R, T_r at the given alpha)."""
    source, r = compile_grammar(text, alphabet)
    return source, r, apply_bias(r, BiasSpec(alpha))
