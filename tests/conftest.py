"""Shared fixtures and the brute-force machinery the equivalence tests use:
path enumeration, property predicates, grammar ASTs rendered as Python `re`
patterns, a hand-set grammar and the stochasticity check, kept here as
oracles because only the tests read them."""

import gc
import math
import random
import re
from collections import Counter, deque

import pytest

from regexbias import grammar as gr
from regexbias.errors import (
    BudgetExceededError,
    GrammarError,
    RegexBiasError,
    ReplaceRecursionError,
    SymbolError,
)
from regexbias.fst import EPSILON_ID, ZERO, SymbolTable, Wfst
from regexbias.lm import (
    SENTENCE_END,
    SENTENCE_START,
    UNIGRAM_STATE,
    NgramCounts,
    _unigram_layout,
)

ENUMERATE_PATH_BUDGET = 1_000_000


def make_table(symbols, name="t"):
    return SymbolTable.from_symbols(symbols, name)


def random_machine(rng: random.Random, table: SymbolTable, max_states=6,
                   acyclic=False, acceptor=False, eps_prob=0.2,
                   arc_density=1.8, weight_range=(0.0, 4.0)):
    """Small random transducer over `table` (same table on both sides)."""
    n = rng.randint(1, max_states)
    m = Wfst(table, table)
    m.add_states(n)
    m.set_start(0)
    n_arcs = max(1, int(arc_density * n))
    labels = list(range(1, len(table)))
    for _ in range(n_arcs):
        src = rng.randrange(n)
        if acyclic:
            if src == n - 1:
                continue
            dst = rng.randrange(src + 1, n)
        else:
            dst = rng.randrange(n)
        if rng.random() < eps_prob:
            ilabel = EPSILON_ID
        else:
            ilabel = rng.choice(labels)
        if acceptor:
            olabel = ilabel
        elif rng.random() < eps_prob:
            olabel = EPSILON_ID
        else:
            olabel = rng.choice(labels)
        w = round(rng.uniform(*weight_range), 3)
        m.add_arc(src, ilabel, olabel, w, dst)
    n_finals = rng.randint(1, n)
    for s in rng.sample(range(n), n_finals):
        m.set_final(s, round(rng.uniform(0.0, 2.0), 3))
    return m


def all_arcs(m):
    """Iterate (src, arc) over every transition of m."""
    for s in m.states():
        for arc in m.arcs(s):
            yield s, arc


def check_acceptor(m: Wfst) -> bool:
    return all(i == o for _, (i, o, _, _) in all_arcs(m))


def check_deterministic(m: Wfst) -> bool:
    """No input-epsilon arcs and at most one arc per (state, ilabel)."""
    for s in m.states():
        seen = set()
        for i, _, _, _ in m.arcs(s):
            if i == EPSILON_ID or i in seen:
                return False
            seen.add(i)
    return True


def pair_deterministic(m) -> bool:
    """At most one arc per (state, ilabel, olabel), on every state, reached
    or not; eps:eps is one more label pair, as it is to `ops.determinize`."""
    return all(len(arcs) < 2 or len({(i, o) for i, o, _, _ in arcs}) == len(arcs)
               for arcs in map(m.arcs, m.states()))


def check_eps_free(m: Wfst) -> bool:
    return not any(
        i == EPSILON_ID and o == EPSILON_ID for _, (i, o, _, _) in all_arcs(m)
    )


def enumerate_paths(a: Wfst, max_len: int, max_out_len: int | None = None,
                    path_budget: int = ENUMERATE_PATH_BUDGET) -> dict:
    """All accepting paths with input length <= max_len, as a dict
    {(input symbols, output symbols): weight} min-aggregated per pair.

    Output length is bounded too (default: same as max_len) so machines
    that emit on epsilon input stay enumerable. The brute-force oracle the
    equivalence tests lean on.

    `path_budget` bounds the number of times a (state, input, output) key
    is reached or improved, not the number of paths: a machine with fewer
    paths than the budget can still exceed it.
    """
    if max_out_len is None:
        max_out_len = max_len
    accepted: dict[tuple, float] = {}
    if a.is_empty():
        return accepted
    best = {(a.start, (), ()): 0.0}
    queue = deque([(a.start, (), ())])
    expansions = 0
    while queue:
        state, ins, outs = key = queue.popleft()
        w = best[key]
        fw = a.final(state)
        if fw != ZERO:
            pair = (ins, outs)
            total = w + fw
            if total < accepted.get(pair, ZERO):
                accepted[pair] = total
        for i, o, aw, t in a.arcs(state):
            nins = ins if i == EPSILON_ID else ins + (i,)
            nouts = outs if o == EPSILON_ID else outs + (o,)
            if len(nins) > max_len or len(nouts) > max_out_len:
                continue
            nkey = (t, nins, nouts)
            nw = w + aw
            if nw < best.get(nkey, ZERO) - 1e-15:
                best[nkey] = nw
                queue.append(nkey)
                expansions += 1
                if expansions > path_budget:
                    raise BudgetExceededError(
                        "enumerate_paths", path_budget, expansions,
                        f"enumerate_paths exceeded its budget of {path_budget} "
                        f"(state, input, output) key improvements after "
                        f"{len(best)} keys and {len(accepted)} accepted pairs, "
                        f"expanding inputs of length {len(ins)} of {max_len}"
                    )
    isym = a.isymbols.sym
    osym = a.osymbols.sym
    return {
        (tuple(isym(i) for i in ins), tuple(osym(o) for o in outs)): w
        for (ins, outs), w in accepted.items()
    }


def ast_shape(node):
    """A grammar AST as nested (node type, fields...) tuples, to compare two
    trees by value: the nodes themselves compare by identity."""
    if isinstance(node, (gr.Concat, gr.Union)):
        return type(node).__name__, tuple(ast_shape(c) for c in node.children)
    if isinstance(node, gr.Repeat):
        return "Repeat", ast_shape(node.child), node.min, node.max
    if isinstance(node, gr.Literal):
        return "Literal", node.symbol
    if isinstance(node, gr.Class):
        return "Class", node.symbols
    raise TypeError(f"not a regex AST node: {node!r}")


def ast_fullmatch(ast, s: str) -> bool:
    """Whether the regex AST matches all of `s`: the reference engine for
    the compiled machines. Python `re` backtracks exponentially on nested
    nullable repeats; this cannot. ends(node, i), the positions j at which
    node can finish matching s from i, is memoised per (node, i), so the
    cost is polynomial in len(s), the AST's size and its repeat bounds."""
    memo = {}

    def step(node, starts):
        return set().union(*(ends(node, i) for i in starts))

    def ends(node, i):
        key = (node, i)  # nodes hash by identity
        if key in memo:
            return memo[key]
        if isinstance(node, gr.Literal):
            got = {i + len(node.symbol)} if s.startswith(node.symbol, i) else set()
        elif isinstance(node, gr.Class):
            got = {i + 1} if i < len(s) and s[i] in node.symbols else set()
        elif isinstance(node, gr.Concat):
            got = {i}
            for child in node.children:
                got = step(child, got)
        elif isinstance(node, gr.Union):
            got = set().union(*(ends(child, i) for child in node.children))
        elif isinstance(node, gr.Repeat):
            reached = {i}
            for _ in range(node.min):
                reached = step(node.child, reached)
            # a position reached again adds nothing: its successors are in
            got, frontier, extra = set(reached), reached, 0
            while frontier and (node.max is None or extra < node.max - node.min):
                frontier = step(node.child, frontier) - got
                got |= frontier
                extra += 1
        else:
            raise TypeError(f"not a regex AST node: {node!r}")
        memo[key] = frozenset(got)
        return memo[key]

    return len(s) in ends(ast, 0)


def per_label_nfa(nfa) -> Wfst:
    """The per-label position automaton: `ast_to_nfa`'s result with each
    arc expanded into one arc per member of its label's class."""
    out = Wfst(nfa.isymbols, nfa.osymbols)
    out.add_states(nfa.num_states())
    out.set_start(nfa.start)
    for s, w in nfa.finals.items():
        out.set_final(s, w)
    for s, (i, _, w, t) in all_arcs(nfa):
        for label in nfa.members[i]:
            out.add_arc(s, label, label, w, t)
    return out


def ast_to_pattern(node, alphabet=None) -> str:
    """Render a grammar AST as an equivalent Python `re` pattern, the
    reference engine the hand-written patterns are checked against.

    When `alphabet` (an iterable of symbols) is given, character classes
    are narrowed to it, mirroring how compilation expands classes against
    the decoder's symbol table.
    """
    allowed = set(alphabet) if alphabet is not None else None

    def render(n):
        if isinstance(n, gr.Literal):
            return re.escape(n.symbol)
        if isinstance(n, gr.Class):
            members = [c for c in n.symbols if allowed is None or c in allowed]
            if not members:
                raise GrammarError("character class is empty after alphabet narrowing")
            return "(?:" + "|".join(re.escape(c) for c in members) + ")"
        if isinstance(n, gr.Concat):
            return "".join(render(c) for c in n.children)
        if isinstance(n, gr.Union):
            return "(?:" + "|".join(render(c) for c in n.children) + ")"
        if isinstance(n, gr.Repeat):
            top = "" if n.max is None else n.max
            return "(?:" + render(n.child) + ")" + f"{{{n.min},{top}}}"
        raise TypeError(f"not a regex AST node: {n!r}")

    return render(node)


def arc_snapshot(m: Wfst) -> list:
    """Every arc of m as a (src, ilabel, olabel, weight, nextstate) tuple."""
    return [(s, *arc) for s, arc in all_arcs(m)]


def paths_equal(lhs: dict, rhs: dict, tol=1e-9):
    """Compare two enumerate_paths results with a weight tolerance."""
    if set(lhs) != set(rhs):
        return False
    return all(abs(lhs[k] - rhs[k]) <= tol for k in lhs)


def join_paths(pa: dict, pb: dict):
    """Relational join of two path sets: the brute-force compose oracle."""
    out = {}
    for (x, y), w1 in pa.items():
        for (y2, z), w2 in pb.items():
            if y != y2:
                continue
            key = (x, z)
            w = w1 + w2
            if w < out.get(key, ZERO):
                out[key] = w
    return out


def path_counts(a: Wfst) -> Counter:
    """Number of accepting paths per (input symbols, output symbols) pair
    of an acyclic machine. Unlike enumerate_paths, which keeps one weight
    per pair, it sees a path that is built twice."""
    counts = Counter()
    stack = [] if a.is_empty() else [(a.start, (), ())]
    while stack:
        state, ins, outs = stack.pop()
        if a.is_final(state):
            counts[ins, outs] += 1
        for i, o, _, t in a.arcs(state):
            stack.append((t,
                          ins if i == EPSILON_ID else ins + (i,),
                          outs if o == EPSILON_ID else outs + (o,)))
    return counts


def _eps_closure(a: Wfst, dist: dict) -> dict:
    """Relax `a`'s epsilon arcs out of {state: cost} until no cost drops."""
    stack = list(dist)
    while stack:
        s = stack.pop()
        for i, _, w, t in a.arcs(s):
            if i == EPSILON_ID and dist[s] + w < dist.get(t, ZERO):
                dist[t] = dist[s] + w
                stack.append(t)
    return dist


def acceptor_weights(a: Wfst, sequences) -> dict:
    """{sequence: best weight of an accepting path of acceptor `a` that reads
    it, ZERO if none does} for sequences of symbols.

    Brute force from the arcs alone: epsilon closure from the start, then
    one step per label followed by its closure. Prefixes shared between
    sequences are walked once. `a` may have no negative epsilon cycle.
    """
    assert all(i == o for _, (i, o, _, _) in all_arcs(a)), "not an acceptor"
    reach = {(): _eps_closure(a, {a.start: 0.0}) if not a.is_empty() else {}}

    def reached(seq):
        if seq not in reach:
            label = a.isymbols.find(seq[-1])
            step = {}
            for s, w in reached(seq[:-1]).items():
                for i, _, aw, t in a.arcs(s):
                    if i == label and w + aw < step.get(t, ZERO):
                        step[t] = w + aw
            reach[seq] = _eps_closure(a, step)
        return reach[seq]

    return {seq: min((w + a.final(s) for s, w in reached(seq).items()), default=ZERO)
            for seq in sequences}


def join_with_acceptor(pa: dict, b: Wfst) -> dict:
    """join_paths(pa, enumerate_paths(b, ...)) for an acceptor `b`, without
    enumerating `b`: each output sequence of `pa` is looked up in `b`."""
    weight = acceptor_weights(b, {y for _, y in pa})
    return {(x, y): w + weight[y] for (x, y), w in pa.items() if weight[y] < ZERO}


def moore_classes(finals, arcs):
    """Moore refinement, the oracle for `ops._refine`: classes start from the
    final weights and are refined on the signature (class, sorted (ilabel,
    olabel, weight, successor class)) in full rounds until no class splits.
    Takes and returns what `_refine` does: lists indexed by state, None
    for a state outside the machine refined."""
    states = [s for s, fw in enumerate(finals) if fw is not None]
    ids = {}
    classes = [None] * len(finals)
    for s in states:
        classes[s] = ids.setdefault(finals[s], len(ids))
    count = len(ids)
    while True:
        ids = {}
        refined = [None] * len(finals)
        for s in states:
            refined[s] = ids.setdefault((classes[s], tuple(sorted(
                (i, o, w, classes[t]) for i, o, w, t in arcs[s]))), len(ids))
        if len(ids) == count:
            break
        classes, count = refined, len(ids)
    return classes


def connect(a: Wfst) -> Wfst:
    """The trimness oracle: `a` without the states that are not on some
    start-to-final path, numbered in state order. A machine is trimmed when
    this keeps all of its states. Arcs count whatever their weight."""
    if a.is_empty():
        return Wfst(a.isymbols, a.osymbols)
    forward = set()
    queue = deque([a.start])
    while queue:
        s = queue.popleft()
        if s in forward:
            continue
        forward.add(s)
        for _, _, _, t in a.arcs(s):
            if t not in forward:
                queue.append(t)
    rev = [[] for _ in a.states()]
    for s, (_, _, _, t) in all_arcs(a):
        rev[t].append(s)
    backward = set()
    queue = deque(s for s in a.finals if s in forward)
    while queue:
        s = queue.popleft()
        if s in backward:
            continue
        backward.add(s)
        for p in rev[s]:
            if p not in backward and p in forward:
                queue.append(p)
    keep = forward & backward
    if a.start not in keep:
        return Wfst(a.isymbols, a.osymbols)
    remap = {}
    out = Wfst(a.isymbols, a.osymbols)
    for s in sorted(keep):
        remap[s] = out.add_state()
    out.set_start(remap[a.start])
    for s in sorted(keep):
        for i, o, w, t in a.arcs(s):
            if t in keep:
                out.add_arc(remap[s], i, o, w, remap[t])
    for s, w in a.finals.items():
        if s in keep:
            out.set_final(remap[s], w)
    return out


def replace_eager(root: Wfst, nonterminal: int, sub: Wfst) -> Wfst:
    """The splice oracle for `ops.replace`: a fresh machine holding a copy
    of root with one copy of sub per distinct return target, numbered and
    ordered as `replace` documents. Call sites are the arcs whose output
    label is the nonterminal, an id of root's output table. Only the labels
    sub's arcs use are mapped into root's tables, by symbol."""
    def mapped(label, sub_table, root_table):
        if label == EPSILON_ID:
            return EPSILON_ID
        symbol = sub_table.sym(label)
        target = root_table.find(symbol)
        if target is None:
            raise SymbolError(f"replacement symbol {symbol!r} missing from table "
                              f"{root_table.name!r}")
        return target

    sub_arcs = [(q, mapped(i, sub.isymbols, root.isymbols),
                 mapped(o, sub.osymbols, root.osymbols), w, t)
                for q, (i, o, w, t) in all_arcs(sub)]
    if any(o == nonterminal for _, _, o, _, _ in sub_arcs):
        raise ReplaceRecursionError("replacement sub-machine writes the nonterminal")
    out = Wfst(root.isymbols, root.osymbols)
    out.add_states(root.num_states())
    if not root.is_empty():
        out.set_start(root.start)
    for s, w in root.finals.items():
        out.set_final(s, w)
    calls = []
    for s, (i, o, w, t) in all_arcs(root):
        if o == nonterminal:
            calls.append((s, w, t))
        else:
            out.add_arc(s, i, o, w, t)
    if sub.is_empty() or not sub.finals:
        return out  # sub accepts nothing, so no call site leads anywhere
    copies = {}  # return target -> sub copy offset
    for s, weight, target in calls:
        offset = copies.get(target)
        if offset is None:
            offset = copies[target] = out.add_states(sub.num_states())
            for q, i, o, w, t in sub_arcs:
                out.add_arc(offset + q, i, o, w, offset + t)
            for q, fw in sub.finals.items():
                out.add_arc(offset + q, EPSILON_ID, EPSILON_ID, fw, target)
        out.add_arc(s, EPSILON_ID, EPSILON_ID, weight, offset + sub.start)
    return out


def partition(classes: list):
    """A class id per state, None outside, as a set of frozensets of
    states, class ids forgotten."""
    blocks = {}
    for s, c in enumerate(classes):
        if c is not None:
            blocks.setdefault(c, set()).add(s)
    return {frozenset(b) for b in blocks.values()}


def grammar_from_probs(uni_probs: dict, bi_probs: dict | None,
                       word_table: SymbolTable) -> Wfst:
    """G from hand-set probabilities, shaped like the two-word figure model:
    unigram arcs from the start at -log p(w), bigram arcs between word
    states at -log p(w2|w1), every word state final with weight 0. The start
    state is the unigram state."""
    g, target = _unigram_layout(uni_probs, word_table)
    g.set_start(UNIGRAM_STATE)
    for _, s in target.values():
        g.set_final(s, 0.0)
    for (w1, w2), p in sorted((bi_probs or {}).items()):
        tok, t = target[w2]
        g.add_arc(target[w1][1], tok, tok, -math.log(p), t)
    return g


def check_stochastic(g: Wfst, counts: NgramCounts, tol: float = 1e-6) -> float:
    """Max deviation of per-state outgoing word mass + backoff mass from 1.

    Char-fallback and nonterminal arcs are biasing machinery outside the
    probability budget and are excluded: they are the non-epsilon arcs into
    the unigram state, since word arcs always lead to word states. A backoff
    state's unseen mass is the vocabulary's mass minus its seen words' mass.
    """
    vocab = set(counts.vocabulary())
    total = sum(c for w, c in counts.unigram.items() if w != SENTENCE_START)
    p_uni = {w: counts.unigram[w] / total
             for w in counts.unigram if w != SENTENCE_START}
    vocab_mass = math.fsum(p_uni[w] for w in vocab)
    worst = 0.0
    for s in g.states():
        word_arcs = []
        backoff_weight = None
        for i, _, w, t in g.arcs(s):
            if i == EPSILON_ID:
                if t == UNIGRAM_STATE:
                    backoff_weight = w
                continue
            if t == UNIGRAM_STATE:
                continue  # char-fallback or `$REGEX` arc, outside the budget
            symbol = g.isymbols.sym(i)
            if symbol in vocab:
                word_arcs.append((symbol, w))
        if not word_arcs and backoff_weight is None and not g.is_final(s):
            continue
        mass = sum(math.exp(-w) for _, w in word_arcs)
        if g.is_final(s):
            mass += math.exp(-g.final(s))
        if backoff_weight is not None:
            seen = {symbol for symbol, _ in word_arcs}
            unseen = vocab_mass - math.fsum(p_uni[w] for w in seen)
            if not g.is_final(s):
                unseen += p_uni.get(SENTENCE_END, 0.0)
            mass += math.exp(-backoff_weight) * unseen
        worst = max(worst, abs(mass - 1.0))
    if worst > tol:
        raise RegexBiasError(f"grammar mass deviates from 1 by {worst}")
    return worst


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail any test after which the cyclic garbage collector is off: a
    builder that pauses it must enable it again on every exit."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the cyclic garbage collector was left disabled")


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture
def ab_table():
    return make_table(["a", "b"], "ab")


@pytest.fixture
def abcd_table():
    return make_table(["a", "b", "c", "d"], "abcd")
