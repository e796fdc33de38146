"""Algorithm suite over tropical-semiring machines.

Every function leaves its inputs untouched and reads them through the
`Fst` interface. All but `replace` return a fresh machine; replace returns
a read-only view, a `ReplaceView`, that shares the root's arc lists and
builds the spliced states' lists on use.
Composition needs one table object between its operands, pairs epsilons
through the two-state sequence filter so each epsilon path is built once,
and at each product state scans the side with fewer arcs, taking that
side's epsilon moves from the same scan, and indexes only the other side.
Determinization is a weighted subset construction
carrying residual weights whose label is each arc's (ilabel, olabel)
pair, eps:eps included: it removes no epsilons, as OpenFst's does not,
and so handles transducers and acceptors alike. Minimization
trims, pushes weights and merges states by Hopcroft partition refinement
on (ilabel, olabel, pushed weight) labels; its walk from the start
tests determinism per label pair, and optim runs the subset construction
only when that test fails.

Minimization is the one step that trims. compose and replace return the
machine as built, which may hold states off every accepting path;
minimize drops those. compose, determinize and minimize number their
output breadth first, walking a list of states that grows as they reach
new ones.

The potentials minimization pushes weights with and shortest paths are
both single-source shortest distances (Mohri 2002), and one routine,
`_shortest_distance`, computes them.
"""

import warnings
import weakref
from collections import deque
from operator import itemgetter

from .errors import (
    BudgetExceededError,
    NegativeCycleError,
    NondeterministicInputError,
    NoPathError,
    ReplaceRecursionError,
    SymbolError,
    SymbolTableMismatchError,
)
from .fst import EPSILON_ID, ZERO, Fst, Wfst, nogc

DETERMINIZE_STATE_BUDGET = 1_000_000


class ReplaceNoOpWarning(UserWarning):
    """replace() found no arcs carrying the nonterminal."""


# ---------------------------------------------------------------------------
# shortest distance
# ---------------------------------------------------------------------------

def _shortest_distance(n: int, sources, arcs_of):
    """Shortest distances from `sources` ({state: initial distance}) over
    the arcs `arcs_of(state)` returns, in a machine of n states.

    Returns (dist, pred), lists indexed by state: dist[s] is s's distance,
    ZERO where s is not reached; pred[s] is (the state, the arc) whose
    relaxation set it, None for a source or an unreached state. FIFO
    Bellman-Ford: a distance changes only when it drops by more than 1e-15.

    A negative cycle raises NegativeCycleError, from one check: every n
    relaxations the pred links are searched for a cycle in O(n), the
    amortized parent-graph search of Cherkassky & Goldberg (1999). A cycle
    of pred links is always negative, since each link was set by a strict
    improvement, and its states are the ones named. A reachable negative
    cycle always makes one: a distance that falls below every simple path's
    cost has pred links that lead round a cycle. This stops a search that
    hangs a long tail off a negative cycle after O(n) relaxations, not
    O(n*m).
    """
    dist = [ZERO] * n
    pred = [None] * n
    queued = [False] * n
    queue = deque(sources)
    for s, d in sources.items():
        dist[s] = d
        queued[s] = True
    relaxed = 0
    while queue:
        s = queue.popleft()
        queued[s] = False
        base = dist[s]
        for arc in arcs_of(s):
            _, _, w, t = arc
            nd = base + w
            if nd < dist[t] - 1e-15:
                dist[t] = nd
                pred[t] = (s, arc)
                relaxed += 1
                if relaxed % n == 0:
                    cycle = _pred_cycle(pred)
                    if cycle:
                        raise NegativeCycleError(cycle)
                if not queued[t]:
                    queued[t] = True
                    queue.append(t)
    return dist, pred


def _pred_cycle(pred):
    """The states of a cycle of pred links, or None; O(len(pred))."""
    done = [False] * len(pred)
    for s in range(len(pred)):
        walk = {}  # state -> position on this walk
        while pred[s] is not None and not done[s] and s not in walk:
            walk[s] = len(walk)
            s = pred[s][0]
        if s in walk:
            return list(walk)[walk[s]:]
        for q in walk:
            done[q] = True
    return None


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

@nogc
def compose(a: Fst, b: Fst) -> Wfst:
    """Compose two machines; a.osymbols must be b.isymbols, one table
    object, since tables grow and two equal ones need not stay equal.

    Epsilons pair through OpenFst's sequence filter (Allauzen, Riley &
    Schalkwyk 2009): in filter state 0, a may move alone on an output
    epsilon and stays in 0; b may move alone on an input epsilon and goes
    to 1, where only b's epsilons move. A label match returns to 0, so
    each pairing of epsilons is built once, a's moves before b's.

    Matching scans the side with fewer arcs at each product state and
    looks the other side up in its per-state label index: a's arcs by
    olabel, b's by ilabel (Allauzen et al. 2007). Only the looked-up side
    is indexed: the scanned side's epsilon moves come from the same scan,
    the other side's from its index. An operand state's index is built
    when the product first looks it up, so a small product with a large
    machine reads only the large machine's states it reaches. A product
    state's arcs are its label matches, then a's epsilon moves, then b's;
    its numbering and arc order follow the choice of side, and `optim`'s
    output depends on neither.

    Every product state is reached from the start by construction, but
    some may reach no final: the product is not trimmed, and may have
    states but no accepting path, on which `shortest_path` raises
    NoPathError. optim trims it.
    """
    if a.osymbols is not b.isymbols:
        raise SymbolTableMismatchError(a.osymbols, b.isymbols,
                                       "compose needs a.osymbols is b.isymbols")
    out = Wfst(a.isymbols, b.osymbols)
    if a.is_empty() or b.is_empty():
        return out

    a_arcs_of, b_arcs_of = a.arcs, b.arcs
    a_finals, b_finals = a.finals, b.finals
    # per operand state, its label index, built when the product first reaches it
    a_by_olabel = [None] * a.num_states()
    b_by_ilabel = [None] * b.num_states()
    finals = out.finals
    triples = [(a.start, b.start, 0)]  # product state -> its (a state, b state, filter state)
    state_ids = {triples[0]: 0}
    arcs = []  # product state -> its arc list in out
    # ids follow first reach, given inline where an arc first reaches a
    # triple, so walking them in order is breadth first; a w1 + w2 that
    # overflows to inf is no transition and gets no target
    for src, (s1, s2, filt) in enumerate(triples):  # the list grows as it is walked
        if src == len(arcs):  # add the states reached since the last batch
            arcs.extend(map(out.arcs, range(out.add_states(len(triples) - src), len(triples))))
        fw = a_finals.get(s1, ZERO) + b_finals.get(s2, ZERO)
        if fw != ZERO:
            finals[src] = fw
        append = arcs[src].append
        a_arcs, b_arcs = a_arcs_of(s1), b_arcs_of(s2)
        if len(a_arcs) <= len(b_arcs):  # scan a, look b up; a's epsilons come from the scan
            b_index = b_by_ilabel[s2]
            if b_index is None:
                b_index = b_by_ilabel[s2] = _label_index(b_arcs, 0)
            a_eps = []
            for i1, o1, w1, t1 in a_arcs:
                if o1 != EPSILON_ID:
                    for _, o2, w2, t2 in b_index.get(o1, ()):
                        w = w1 + w2
                        if w != ZERO:
                            key = (t1, t2, 0)
                            dst = state_ids.get(key)
                            if dst is None:
                                dst = state_ids[key] = len(triples)
                                triples.append(key)
                            append((i1, o2, w, dst))
                elif filt == 0:
                    a_eps.append((i1, o1, w1, t1))
            b_eps = b_index.get(EPSILON_ID, ())
        else:  # scan b, look a up; b's epsilons come from the scan
            a_index = a_by_olabel[s1]
            if a_index is None:
                a_index = a_by_olabel[s1] = _label_index(a_arcs, 1)
            b_eps = []
            for i2, o2, w2, t2 in b_arcs:
                if i2 != EPSILON_ID:
                    for i1, _, w1, t1 in a_index.get(i2, ()):
                        w = w1 + w2
                        if w != ZERO:
                            key = (t1, t2, 0)
                            dst = state_ids.get(key)
                            if dst is None:
                                dst = state_ids[key] = len(triples)
                                triples.append(key)
                            append((i1, o2, w, dst))
                else:
                    b_eps.append((i2, o2, w2, t2))
            a_eps = a_index.get(EPSILON_ID, ()) if filt == 0 else ()
        for i1, _, w1, t1 in a_eps:  # a moves alone on its output epsilon
            key = (t1, s2, 0)
            dst = state_ids.get(key)
            if dst is None:
                dst = state_ids[key] = len(triples)
                triples.append(key)
            append((i1, EPSILON_ID, w1, dst))
        for _, o2, w2, t2 in b_eps:  # b moves alone on its input epsilon
            key = (s1, t2, 1)
            dst = state_ids.get(key)
            if dst is None:
                dst = state_ids[key] = len(triples)
                triples.append(key)
            append((EPSILON_ID, o2, w2, dst))
    out.set_start(0)
    return out


def _label_index(arcs, side: int) -> dict[int, list[tuple]]:
    """{label: arcs} keyed on each arc's label at index `side`: 0 for
    ilabel, 1 for olabel."""
    by_label: dict[int, list[tuple]] = {}
    for arc in arcs:
        by_label.setdefault(arc[side], []).append(arc)
    return by_label


# ---------------------------------------------------------------------------
# determinization
# ---------------------------------------------------------------------------

@nogc
def determinize(a: Fst, state_budget: int = DETERMINIZE_STATE_BUDGET) -> Wfst:
    """Weighted subset construction with residual weights pushed to the start.

    Subset elements are (state, residual) pairs ordered by ascending state
    id. Every arc takes part with its (ilabel, olabel) pair as the label,
    eps:eps included: as in OpenFst's Determinize, epsilons are ordinary
    symbols and nothing is removed. The minimum over each label's targets
    is extracted onto the new arc, so the result is deterministic per
    label pair, and deterministic per ilabel whenever the input is an
    eps-free acceptor. States that cannot reach a final are kept; minimize
    trims them.

    Like any label, eps:eps needs the twins property (Mohri 1997): where
    cycles on the same label pairs but of different weight meet in one
    subset, residuals grow without end until `state_budget` raises
    BudgetExceededError. At the default budget that takes seconds and
    hundreds of MB even for a 3-state machine with two eps:eps loops. No
    machine built in this package has such eps:eps cycles.
    """
    out = Wfst(a.isymbols, a.osymbols)
    if a.is_empty():
        return out
    keys = [((a.start, 0.0),)]  # output state -> its subset
    state_ids = {keys[0]: out.add_state()}
    out.set_start(0)
    for src, key in enumerate(keys):  # the list grows as it is walked: breadth first
        fw = ZERO
        moves: dict[tuple[int, int], dict[int, float]] = {}
        for s, residual in key:
            sf = a.final(s)
            if sf != ZERO:
                fw = min(fw, residual + sf)
            for i, o, w, t in a.arcs(s):
                targets = moves.setdefault((i, o), {})
                w += residual
                if w < targets.get(t, ZERO):
                    targets[t] = w
        if fw != ZERO:
            out.set_final(src, fw)
        for label in sorted(moves):
            targets = moves[label]
            if not targets:  # each sum on this label overflowed to inf
                continue
            w_min = min(targets.values())
            new_key = tuple(sorted((t, w - w_min) for t, w in targets.items()))
            dst = state_ids.get(new_key)
            if dst is None:
                if len(state_ids) >= state_budget:
                    raise BudgetExceededError(
                        "determinize", state_budget, len(state_ids),
                        f"determinize exceeded the {state_budget} subset-state budget",
                    )
                dst = state_ids[new_key] = out.add_state()
                keys.append(new_key)
            out.add_arc(src, label[0], label[1], w_min, dst)
    return out


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

@nogc
def minimize(a: Fst) -> Wfst:
    """Merge indistinguishable states of a deterministic machine.

    Requires input that is deterministic per label pair on every state the
    start reaches: `_minimize`'s walk tests this, and a repeated pair there
    raises NondeterministicInputError. A repeat on an unreached state is
    trimmed with it. States off every start-to-final path are dropped, the
    only trimming in this module. Weights are pushed toward the start, then
    `_refine` merges the states that agree on pushed final weights and
    out-arcs. Pushing is skipped when a negative cycle makes shortest
    suffix costs undefined; exactly-equal suffixes still merge then. The
    result is numbered breadth first with each state's arcs sorted by
    (ilabel, olabel), so it does not depend on the input's state numbering.
    Its weights depend on the input's arc order only within
    `_shortest_distance`'s 1e-15 tolerance: of two paths whose costs differ
    by less, the first relaxed sets the potential that pushing uses.
    """
    out = _minimize(a)
    if out is None:
        raise NondeterministicInputError(
            "minimize requires a deterministic machine (per (ilabel, olabel) pair)"
        )
    return out


def _minimize(a: Fst) -> Wfst | None:
    """minimize() of `a`, or None when a state the start reaches has two
    arcs on one (ilabel, olabel) pair.

    Every per-state map is a list indexed by state id. One depth-first walk
    from the start marks the reached states and reverses their arcs, so a
    negative cycle the start cannot reach does not stop the pushing. The
    walk also tests each reached state with two or more arcs for a repeated
    label pair, and returns None at the first, before any potential is
    computed. The potentials, shortest distances to a final over the
    reversed arcs (0 under a negative cycle), mark the co-accessible
    states. The push pass builds their pushed final weights and sorted
    pushed arcs, and drops an arc whose pushed weight overflows to inf, so
    what only it reached is not rebuilt. Then `a` and every bound method of
    it go before `_refine`, the memory peak, and the rebuild appends into
    the output breadth first. Nothing may wrap this function, `nogc`
    included: a wrapper's argument tuple would keep `a` alive, and optim
    holds no other reference to a machine that determinize built.
    """
    if a.is_empty():
        return Wfst(a.isymbols, a.osymbols)
    isymbols, osymbols, start, a_finals = a.isymbols, a.osymbols, a.start, a.finals
    arcs_of = a.arcs
    n = a.num_states()
    reached = [False] * n
    reached[start] = True
    rev = [[] for _ in range(n)]
    stack = [start]
    olabel = itemgetter(1)
    while stack:
        s = stack.pop()
        leaving = arcs_of(s)
        n_out = len(leaving)  # distinct olabels settle most states without building pairs
        if (n_out > 1 and len(set(map(olabel, leaving))) < n_out
                and len({(i, o) for i, o, _, _ in leaving}) < n_out):
            return None  # two arcs on one label pair
        for i, o, w, t in leaving:
            rev[t].append((i, o, w, s))
            if not reached[t]:
                reached[t] = True
                stack.append(t)
    sources = {s: w for s, w in a_finals.items() if reached[s]}
    try:
        pot = _shortest_distance(n, sources, rev.__getitem__)[0]
    except NegativeCycleError:
        pot = [ZERO] * n
        queue = list(sources)
        for s in queue:
            pot[s] = 0.0
        for s in queue:
            for _, _, _, t in rev[s]:
                if pot[t] == ZERO:
                    pot[t] = 0.0
                    queue.append(t)
    del rev, reached, sources  # freed before the pushed arc lists are built
    if pot[start] == ZERO:
        return Wfst(isymbols, osymbols)
    pot[start] = 0.0  # keep total path weights unchanged
    finals = [None] * n  # None off the co-accessible states
    arcs = [None] * n
    for s, p in enumerate(pot):
        if p != ZERO:
            pushed = []
            for i, o, w, t in arcs_of(s):
                q = pot[t]
                if q != ZERO:
                    w = w + q - p
                    if w != ZERO:
                        pushed.append((i, o, w, t))
            pushed.sort()
            arcs[s] = pushed
            finals[s] = a_finals.get(s, ZERO) - p
    del pot, a, arcs_of, a_finals
    classes = _refine(finals, arcs)

    out = Wfst(isymbols, osymbols)
    out_finals = out.finals
    class_state = [None] * n
    class_state[classes[start]] = out.add_state()
    out.set_start(0)
    queue = [start]
    for s in queue:  # the list grows as it is walked: breadth first
        src = class_state[classes[s]]
        fw = finals[s]
        if fw != ZERO:
            out_finals[src] = fw
        append = out.arcs(src).append
        for i, o, w, t in arcs[s]:
            c = classes[t]
            dst = class_state[c]
            if dst is None:
                dst = class_state[c] = out.add_state()
                queue.append(t)
            append((i, o, w, dst))
    return out


def _refine(finals, arcs):
    """Hopcroft (1971) refinement: the coarsest partition of the states
    whose final weight `finals[s]` is not None, such that a class's states
    agree on final weights and, per out-label (ilabel, olabel, weight), on
    the successor's class. `arcs[s]` holds state s's (ilabel, olabel,
    weight, successor) arcs, sorted by label pair, one per pair, all into
    states being refined. Returns classes, a list that gives each such
    state its class id and every other state None.

    A class splits the others for every label at once. Initial classes key
    on the final weight and the out-labels, so a class's states have arcs
    on the same labels: the partition is stable with respect to all
    states, which lets partial machines queue every class but the largest,
    and after a split of an unqueued class only the smaller half. Weights
    are keyed as floats: -0.0 == 0.0, and none is NaN.
    """
    n = len(finals)
    labels = {}  # (ilabel, olabel, weight) -> label id
    first = {}  # (final weight, out-label ids) -> the states of an initial class
    preds = [[] for _ in range(n)]  # state -> [(label id, source)]
    for s, fw in enumerate(finals):
        if fw is not None:
            out = []
            for i, o, w, t in arcs[s]:
                label = labels.setdefault((i, o, w), len(labels))
                out.append(label)
                preds[t].append((label, s))
            first.setdefault((fw, tuple(out)), []).append(s)
    members = [set(states) for states in first.values()]
    del labels, first
    classes = [None] * n
    for c, states in enumerate(members):
        for s in states:
            classes[s] = c
    size = [len(states) for states in members]
    largest = max(range(len(members)), key=size.__getitem__)
    queue = [c for c in range(len(members)) if c != largest]
    queued = [True] * len(members)
    queued[largest] = False
    while queue:
        splitter = queue.pop()
        queued[splitter] = False
        sources = {}  # label id -> the states whose arc on it enters the splitter
        for t in members[splitter]:
            for label, s in preds[t]:
                if size[classes[s]] > 1:  # a class of one cannot split
                    sources.setdefault(label, []).append(s)
        for hit in sources.values():
            parts = {}
            for s in hit:
                parts.setdefault(classes[s], []).append(s)
            for c, part in parts.items():
                if len(part) == size[c]:
                    continue
                members[c].difference_update(part)
                size[c] -= len(part)
                new = len(members)
                members.append(set(part))
                size.append(len(part))
                for s in part:
                    classes[s] = new
                half = new if queued[c] or len(part) <= size[c] else c
                queued.append(False)
                queue.append(half)
                queued[half] = True
    return classes


@nogc
def optim(a: Fst, state_budget: int = DETERMINIZE_STATE_BUDGET) -> Wfst:
    """minimize(determinize(a)); the usual decode-graph optimization step.

    Input of at most `state_budget` states goes to `_minimize` first. When
    its walk finds every state the start reaches deterministic per label
    pair, with eps:eps counted as one more pair, that is the result: every
    subset would be one state with residual 0, so determinize would only
    renumber the accessible part, and minimize's result does not depend on
    the numbering. Otherwise, and for larger input, the result is
    `_minimize(determinize(a))`, under determinize's budget.
    """
    if a.num_states() <= state_budget:
        out = _minimize(a)
        if out is not None:
            return out
    return _minimize(determinize(a, state_budget))


# ---------------------------------------------------------------------------
# replacement
# ---------------------------------------------------------------------------

# root -> {nonterminal: its call index}; valid because a machine handed to
# ops is never changed afterwards
_CALL_INDEXES = weakref.WeakKeyDictionary()


def replace(root: Fst, nonterminal: int, sub: Fst) -> "ReplaceView":
    """Splice `sub` in place of every root arc whose output label is the
    nonterminal, an id of `root.osymbols`; input labels are not read. An id
    that is epsilon or names no symbol there raises SymbolError.

    Each such arc s->t becomes an epsilon entry (carrying the arc
    weight) into a copy of sub's start, with epsilon returns from sub's
    finals to t carrying the final weights. Copies are shared per return
    target so paths cannot leak between different call sites. One level
    only: sub itself must not write the nonterminal. An empty sub, like one
    without finals, just drops the nonterminal arcs. sub's labels are mapped
    into root's tables by symbol, only those its arcs use; a missing one
    raises SymbolError, an output label that maps to the nonterminal
    ReplaceRecursionError.

    The result is a read-only `ReplaceView`, built lazily. Its states are
    numbered as a copy would be: root's states first, then one block of
    sub.num_states() states per distinct return target, in the order the
    root's arcs first reach them. A state's arcs are root's own, then its
    entries in root's arc order; a copy's are sub's, then its return.

    Where root calls the nonterminal is indexed once per (root,
    nonterminal) and kept while root lives, so a request costs O(|sub|):
    root must not change after its first replace, as nothing handed to
    `ops` may. The result is returned as built, not trimmed: a sub state
    that reaches no final stays in every copy, and a root state whose
    accepting paths all ran through dropped call sites stays too. A trimmed
    root and a trimmed sub give a trimmed result.
    """
    if not 0 < nonterminal < len(root.osymbols):
        raise SymbolError(f"nonterminal {nonterminal} is not a label of {root.osymbols.name!r}")
    by_nonterminal = _CALL_INDEXES.get(root)
    if by_nonterminal is None:
        by_nonterminal = _CALL_INDEXES[root] = {}
    index = by_nonterminal.get(nonterminal)
    if index is None:
        index = by_nonterminal[nonterminal] = _index_calls(root, nonterminal)
    view = ReplaceView(root, index, sub, _label_maps(sub, root, nonterminal))
    if not index[0]:
        warnings.warn("nonterminal label absent from root; replace is a no-op",
                      ReplaceNoOpWarning, stacklevel=2)
    return view


def _index_calls(root: Fst, nonterminal: int):
    """(calls, targets, number of calls, number of root arcs). calls maps
    each state with a call site to (its other arcs, its [(weight, return
    target)]); targets maps each return target to its block, in first-seen
    order."""
    calls, targets, n_calls, n_arcs = {}, {}, 0, 0
    for s in root.states():
        arcs = root.arcs(s)
        n_arcs += len(arcs)
        sites = [(w, t) for _, o, w, t in arcs if o == nonterminal]
        if sites:
            calls[s] = ([arc for arc in arcs if arc[1] != nonterminal], sites)
            n_calls += len(sites)
            for _, t in sites:
                targets.setdefault(t, len(targets))
    return calls, targets, n_calls, n_arcs


def _label_maps(sub: Fst, root: Fst, nonterminal: int):
    """({sub ilabel: root ilabel}, {sub olabel: root olabel}) over the
    labels sub's arcs use, each mapped by symbol into root's table on its
    side, in state and arc order so the first bad label raises."""
    imap, omap = {EPSILON_ID: EPSILON_ID}, {EPSILON_ID: EPSILON_ID}
    for q in sub.states():
        for i, o, _, _ in sub.arcs(q):
            if i not in imap:
                imap[i] = _map_label(i, sub.isymbols, root.isymbols)
            if o not in omap:
                omap[o] = _map_label(o, sub.osymbols, root.osymbols)
                if omap[o] == nonterminal:
                    raise ReplaceRecursionError(
                        "replacement sub-machine writes the nonterminal label itself")
    return imap, omap


def _map_label(label, sub_table, root_table):
    symbol = sub_table.sym(label)
    mapped = root_table.find(symbol)
    if mapped is None:
        raise SymbolError(f"replacement symbol {symbol!r} missing from table {root_table.name!r}")
    return mapped


class ReplaceView(Fst):
    """The machine `replace` returns: root with sub spliced in, read-only.

    A state without call sites returns root's own arc list; any other
    state's list is built on first use and kept. The lists are shared:
    never change one.
    """

    def __init__(self, root: Fst, index, sub: Fst, label_maps):
        calls, targets, n_calls, n_arcs = index
        self.isymbols, self.osymbols = root.isymbols, root.osymbols
        self.start, self.finals = root.start, root.finals
        self._root_arcs = root.arcs
        self._calls = calls
        self._n = root.num_states()
        self._sub_arcs, self._sub_finals = sub.arcs, sub.finals
        self._imap, self._omap = label_maps
        self._block = sub.num_states()
        live = not sub.is_empty() and bool(sub.finals)   # else every call site is dropped
        self._returns = list(targets) if live else []    # each block's return target
        self._entries = {t: self._n + k * self._block + sub.start
                         for k, t in enumerate(self._returns)}
        self._num_states = self._n + len(self._returns) * self._block
        self._num_arcs = n_arcs - n_calls
        if live:
            block_arcs = sub.num_arcs() + len(sub.finals)
            self._num_arcs += n_calls + len(self._returns) * block_arcs
        self._built = {}

    def arcs(self, state: int) -> list[tuple]:
        arcs = self._built.get(state)
        if arcs is not None:
            return arcs
        self._check_state(state)
        if state < self._n:
            call = self._calls.get(state)
            if call is None:
                return self._root_arcs(state)
            kept, sites = call
            arcs = kept
            if self._returns:
                arcs = kept + [(EPSILON_ID, EPSILON_ID, w, self._entries[t])
                               for w, t in sites]
        else:
            k, q = divmod(state - self._n, self._block)
            offset = state - q
            imap, omap = self._imap, self._omap
            arcs = [(imap[i], omap[o], w, offset + t) for i, o, w, t in self._sub_arcs(q)]
            fw = self._sub_finals.get(q)
            if fw is not None:
                arcs.append((EPSILON_ID, EPSILON_ID, fw, self._returns[k]))
        self._built[state] = arcs
        return arcs

    def num_states(self) -> int:
        return self._num_states

    def num_arcs(self) -> int:
        return self._num_arcs


# ---------------------------------------------------------------------------
# shortest path
# ---------------------------------------------------------------------------

def shortest_path(a: Fst):
    """Min-cost accepting path as (input symbols, output symbols, weight).

    Bias-weighted machines with negative arcs are fine as long as no
    negative cycle is reachable from the start; such a cycle raises
    NegativeCycleError (see `_shortest_distance`).
    """
    if a.is_empty():
        raise NoPathError("machine has no states")
    dist, pred = _shortest_distance(a.num_states(), {a.start: 0.0}, a.arcs)

    best_cost, best_state = min(((dist[s] + fw, s) for s, fw in a.finals.items()
                                 if dist[s] != ZERO), default=(ZERO, None))
    if best_state is None:
        raise NoPathError("no accepting path from the start state")

    arcs_rev = []
    s = best_state
    while pred[s] is not None:
        s, arc = pred[s]
        arcs_rev.append(arc)
    ins, outs = [], []
    for i, o, _, _ in reversed(arcs_rev):
        if i != EPSILON_ID:
            ins.append(a.isymbols.sym(i))
        if o != EPSILON_ID:
            outs.append(a.osymbols.sym(o))
    return tuple(ins), tuple(outs), best_cost
