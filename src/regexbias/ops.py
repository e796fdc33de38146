"""Algorithm suite over tropical-semiring machines.

Every function leaves its inputs untouched and reads them through the
`Fst` interface. All but `replace` return a fresh machine; replace returns
a read-only view, a `ReplaceView`, that shares the root's arc lists and
builds the spliced states' lists on use.
Composition uses the 3-state epsilon filter so epsilon paths are neither
duplicated nor dropped, and matches labels from the side with fewer arcs
at each product state. Determinization is a weighted subset construction
carrying residual weights whose label is each arc's (ilabel, olabel)
pair, eps:eps included: it removes no epsilons, as OpenFst's does not,
and so handles transducers and acceptors alike. Minimization
trims, pushes weights and merges states by Hopcroft partition refinement
on (ilabel, olabel, pushed weight) labels; optim skips the subset
construction when its input is already deterministic per label pair.

Minimization is the one step that trims. compose and replace return the
machine as built, which may hold states off every accepting path;
minimize drops those. An arc of weight `inf` is no path: determinize and
minimize drop it, the other operations keep it.

The potentials minimization pushes weights with and shortest paths are
both single-source shortest distances (Mohri 2002), and one routine,
`_shortest_distance`, computes them.
"""

import warnings
import weakref
from collections import deque

from .errors import (
    BudgetExceededError,
    NegativeCycleError,
    NondeterministicInputError,
    NoPathError,
    ReplaceRecursionError,
    SymbolError,
    SymbolTableMismatchError,
)
from .fst import EPSILON_ID, Arc, Fst, Wfst
from .semiring import ZERO

DETERMINIZE_STATE_BUDGET = 1_000_000


class ReplaceNoOpWarning(UserWarning):
    """replace() found no arcs carrying the nonterminal."""


def _empty_like(a: Fst) -> Wfst:
    return Wfst(a.isymbols, a.osymbols)


# ---------------------------------------------------------------------------
# shortest distance
# ---------------------------------------------------------------------------

def _shortest_distance(n: int, sources, arcs_of):
    """Shortest distances from `sources` ({state: initial distance}) over
    the arcs `arcs_of(state)` returns, in a machine of n states.

    Returns (dist, pred): dist maps every reached state to its distance,
    pred maps every state reached from another to (that state, the arc).
    Arcs only need `weight` and `nextstate`. FIFO Bellman-Ford: a distance
    changes only when it drops by more than 1e-15.

    A negative cycle raises NegativeCycleError. Every n relaxations the
    pred links are searched for a cycle in O(n), the amortized parent-graph
    check of Cherkassky & Goldberg (1999). A cycle of pred links is always
    negative, since each link was set by a strict improvement, and its
    states are the ones named; this stops a search that hangs a long tail
    off a negative cycle after O(n) relaxations, not O(n*m). As a backstop,
    an improving walk of n arcs repeats a state, so only a negative cycle
    makes one; that raises naming the states still improving.
    """
    dist = dict(sources)
    pred = {}
    steps = dict.fromkeys(dist, 0)
    queue = deque(dist)
    queued = set(dist)
    relaxed = 0
    while queue:
        s = queue.popleft()
        queued.discard(s)
        base, walk = dist[s], steps[s] + 1
        for arc in arcs_of(s):
            t = arc.nextstate
            nd = base + arc.weight
            if nd < dist.get(t, ZERO) - 1e-15:
                if walk >= n:
                    raise NegativeCycleError(queued | {t})
                dist[t] = nd
                steps[t] = walk
                pred[t] = (s, arc)
                relaxed += 1
                if relaxed % n == 0:
                    cycle = _pred_cycle(pred)
                    if cycle:
                        raise NegativeCycleError(cycle)
                if t not in queued:
                    queued.add(t)
                    queue.append(t)
    return dist, pred


def _pred_cycle(pred):
    """The states of a cycle of pred links, or None; O(len(pred))."""
    done = set()
    for s in pred:
        walk = {}  # state -> position on this walk
        while s in pred and s not in done and s not in walk:
            walk[s] = len(walk)
            s = pred[s][0]
        if s in walk:
            return list(walk)[walk[s]:]
        done.update(walk)
    return None


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def compose(a: Fst, b: Fst) -> Wfst:
    """Compose two machines; a's output space must be b's input space.

    The pairing runs through the standard 3-state epsilon filter: state 0
    allows any move, state 1 commits to advancing only b on its input
    epsilons, state 2 commits to advancing only a on its output epsilons.

    Matching scans the side with fewer arcs at each product state and
    looks the other side up in its per-state label index: a's arcs by
    olabel, b's by ilabel (Allauzen et al. 2007). The product's state
    numbering and arc order follow that choice; `optim`'s output does not
    depend on either.

    Every product state is reached from the start by construction, but
    some may reach no final: the product is not trimmed, and may have
    states but no accepting path, on which `shortest_path` raises
    NoPathError. optim trims it.
    """
    if a.osymbols != b.isymbols:
        raise SymbolTableMismatchError(
            a.osymbols, b.isymbols,
            "compose needs a.osymbols == b.isymbols",
        )
    out = Wfst(a.isymbols, b.osymbols)
    if a.is_empty() or b.is_empty():
        return out

    a_by_olabel = _label_index(a, "olabel")
    b_by_ilabel = _label_index(b, "ilabel")
    state_ids = {}
    queue = deque()

    def state_of(triple):
        sid = state_ids.get(triple)
        if sid is None:
            sid = out.add_state()
            state_ids[triple] = sid
            queue.append(triple)
        return sid

    out.set_start(state_of((a.start, b.start, 0)))
    while queue:
        triple = queue.popleft()
        s1, s2, filt = triple
        src = state_ids[triple]
        fw = a.final(s1) + b.final(s2)
        if fw != ZERO:
            out.set_final(src, fw)
        a_index, b_index = a_by_olabel[s1], b_by_ilabel[s2]
        a_arcs, b_arcs = a.arcs(s1), b.arcs(s2)
        if len(a_arcs) <= len(b_arcs):
            for arc1 in a_arcs:
                if arc1.olabel != EPSILON_ID:
                    for arc2 in b_index.get(arc1.olabel, ()):
                        dst = state_of((arc1.nextstate, arc2.nextstate, 0))
                        out.add_arc(src, arc1.ilabel, arc2.olabel,
                                    arc1.weight + arc2.weight, dst)
        else:
            for arc2 in b_arcs:
                if arc2.ilabel != EPSILON_ID:
                    for arc1 in a_index.get(arc2.ilabel, ()):
                        dst = state_of((arc1.nextstate, arc2.nextstate, 0))
                        out.add_arc(src, arc1.ilabel, arc2.olabel,
                                    arc1.weight + arc2.weight, dst)
        b_eps = b_index.get(EPSILON_ID, ())
        for arc1 in a_index.get(EPSILON_ID, ()):
            # a moves alone on its output epsilon
            if filt in (0, 2):
                dst = state_of((arc1.nextstate, s2, 2))
                out.add_arc(src, arc1.ilabel, EPSILON_ID, arc1.weight, dst)
            # both sides take their epsilon arcs together
            if filt == 0:
                for arc2 in b_eps:
                    dst = state_of((arc1.nextstate, arc2.nextstate, 0))
                    out.add_arc(src, arc1.ilabel, arc2.olabel,
                                arc1.weight + arc2.weight, dst)
        # b moves alone on its input epsilon
        if filt in (0, 1):
            for arc2 in b_eps:
                dst = state_of((s1, arc2.nextstate, 1))
                out.add_arc(src, EPSILON_ID, arc2.olabel, arc2.weight, dst)
    return out


def _label_index(m: Fst, side: str) -> list[dict[int, list[Arc]]]:
    """Per state of m, {label: arcs} keyed on each arc's `side` label."""
    index = []
    for s in m.states():
        by_label: dict[int, list[Arc]] = {}
        for arc in m.arcs(s):
            by_label.setdefault(getattr(arc, side), []).append(arc)
        index.append(by_label)
    return index


# ---------------------------------------------------------------------------
# determinization
# ---------------------------------------------------------------------------

def determinize(a: Fst, state_budget: int = DETERMINIZE_STATE_BUDGET) -> Wfst:
    """Weighted subset construction with residual weights pushed to the start.

    Subset elements are (state, residual) pairs ordered by ascending state
    id. Every arc takes part with its (ilabel, olabel) pair as the label,
    eps:eps included: as in OpenFst's Determinize, epsilons are ordinary
    symbols and nothing is removed. The minimum over each label's targets
    is extracted onto the new arc, so the result is deterministic per
    label pair, and deterministic per ilabel whenever the input is an
    eps-free acceptor. States that cannot reach a final are kept; minimize
    trims them. Arcs of weight `inf` are dropped.

    Like any label, eps:eps needs the twins property (Mohri 1997): where
    cycles on the same label pairs but of different weight meet in one
    subset, residuals grow without end until `state_budget` raises
    BudgetExceededError. At the default budget that takes seconds and
    hundreds of MB even for a 3-state machine with two eps:eps loops. No
    machine built in this package has such eps:eps cycles.
    """
    if a.is_empty():
        return _empty_like(a)
    out = Wfst(a.isymbols, a.osymbols)
    start_key = ((a.start, 0.0),)
    state_ids = {start_key: out.add_state()}
    out.set_start(0)
    queue = deque([start_key])
    while queue:
        key = queue.popleft()
        src = state_ids[key]
        fw = ZERO
        moves: dict[tuple[int, int], dict[int, float]] = {}
        for s, residual in key:
            sf = a.final(s)
            if sf != ZERO:
                fw = min(fw, residual + sf)
            for arc in a.arcs(s):
                targets = moves.setdefault((arc.ilabel, arc.olabel), {})
                w = residual + arc.weight
                if w < targets.get(arc.nextstate, ZERO):
                    targets[arc.nextstate] = w
        if fw != ZERO:
            out.set_final(src, fw)
        for label in sorted(moves):
            targets = moves[label]
            if not targets:  # every arc on the label weighs inf
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
                dst = out.add_state()
                state_ids[new_key] = dst
                queue.append(new_key)
            out.add_arc(src, label[0], label[1], w_min, dst)
    return out


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

def minimize(a: Fst) -> Wfst:
    """Merge indistinguishable states of a deterministic machine.

    Requires input that is deterministic at least per label pair. States
    off every start-to-final path are dropped, the only trimming in this
    module, and so are arcs of weight `inf`. Weights are pushed toward
    the start, then `_refine` merges the states that agree on pushed final
    weights and out-arcs. Pushing is skipped when a negative cycle makes
    shortest suffix costs undefined; exactly-equal suffixes still merge
    then. The result is numbered breadth first with each state's arcs
    sorted by (ilabel, olabel), so it does not depend on the input's state
    numbering or arc order.
    """
    if not a.is_empty() and not a.check_pair_deterministic():
        raise NondeterministicInputError(
            "minimize requires a deterministic machine (per (ilabel, olabel) pair)"
        )
    return _minimize(a)


def _minimize(a: Fst) -> Wfst:
    """minimize() of a machine known to be deterministic per label pair."""
    if a.is_empty():
        return _empty_like(a)
    # only the arcs of states the start reaches are reversed, so a negative
    # cycle it cannot reach does not stop the pushing
    n = a.num_states()
    reached = [False] * n
    reached[a.start] = True
    stack = [a.start]
    while stack:
        for arc in a.arcs(stack.pop()):
            if not reached[arc.nextstate] and arc.weight != ZERO:
                reached[arc.nextstate] = True
                stack.append(arc.nextstate)
    # potentials are the shortest distances to a final over reversed arcs, so
    # the states they reach are exactly the co-accessible ones
    rev = [[] for _ in range(n)]
    for s in range(n):
        if reached[s]:
            for arc in a.arcs(s):
                if arc.weight != ZERO:
                    rev[arc.nextstate].append(Arc(arc.ilabel, arc.olabel, arc.weight, s))
    finals = {s: w for s, w in a.finals.items() if reached[s]}
    try:
        pot = _shortest_distance(n, finals, rev.__getitem__)[0]
    except NegativeCycleError:
        pot = dict.fromkeys(finals, 0.0)
        queue = deque(pot)
        while queue:
            for arc in rev[queue.popleft()]:
                if arc.nextstate not in pot:
                    pot[arc.nextstate] = 0.0
                    queue.append(arc.nextstate)
    del rev, reached  # freed before the pushed arc lists are built
    if a.start not in pot:
        return _empty_like(a)
    pot[a.start] = 0.0  # keep total path weights unchanged
    arcs = {s: sorted((arc.ilabel, arc.olabel, arc.weight + pot[arc.nextstate] - p,
                       arc.nextstate) for arc in a.arcs(s)
                      if arc.nextstate in pot and arc.weight != ZERO)
            for s, p in pot.items()}
    finals = {s: a.final(s) - p for s, p in pot.items()}
    start, out = a.start, Wfst(a.isymbols, a.osymbols)
    # freed before the refinement below, minimize's memory peak; optim holds
    # no other reference to a machine that determinize built
    del pot, a
    classes = _refine(finals, arcs)

    # rebuild from the first state reached in each class, numbered breadth first
    class_state = {classes[start]: out.add_state()}
    out.set_start(0)
    queue = deque([start])
    while queue:
        s = queue.popleft()
        src = class_state[classes[s]]
        out.set_final(src, finals[s])
        for i, o, w, t in arcs[s]:
            dst = class_state.get(classes[t])
            if dst is None:
                dst = class_state[classes[t]] = out.add_state()
                queue.append(t)
            out.add_arc(src, i, o, w, dst)
    return out


def _refine(finals, arcs):
    """Hopcroft (1971) refinement: the coarsest partition of the states in
    `finals` ({state: final weight}) whose classes agree on final weights
    and, per out-label (ilabel, olabel, weight), on the successor's class.
    `arcs` maps each state to its (ilabel, olabel, weight, successor) arcs,
    sorted by label pair, one per pair, all into states of `finals`.
    Returns {state: class}.

    A class splits the others for every label at once. Initial classes key
    on the final weight and the out-labels, so a class's states have arcs
    on the same labels: the partition is stable with respect to all
    states, which lets partial machines queue every class but the largest,
    and after a split of an unqueued class only the smaller half. Weights
    are keyed as floats: -0.0 == 0.0, and none is NaN.
    """
    labels = {}  # (ilabel, olabel, weight) -> label id
    first = {}  # (final weight, out-label ids) -> the states of an initial class
    preds = {s: [] for s in finals}  # state -> [(label id, source)]
    for s, fw in finals.items():
        out = []
        for i, o, w, t in arcs[s]:
            label = labels.setdefault((i, o, w), len(labels))
            out.append(label)
            preds[t].append((label, s))
        first.setdefault((fw, tuple(out)), set()).add(s)
    members = list(first.values())
    del labels, first
    classes = {s: c for c, states in enumerate(members) for s in states}
    largest = max(range(len(members)), key=lambda c: len(members[c]))
    queue = [c for c in range(len(members)) if c != largest]
    queued = set(queue)
    while queue:
        splitter = queue.pop()
        queued.discard(splitter)
        sources = {}  # label id -> the states whose arc on it enters the splitter
        for t in members[splitter]:
            for label, s in preds[t]:
                if len(members[classes[s]]) > 1:  # a class of one cannot split
                    sources.setdefault(label, []).append(s)
        for hit in sources.values():
            parts = {}
            for s in hit:
                parts.setdefault(classes[s], []).append(s)
            for c, part in parts.items():
                rest = members[c]
                if len(part) == len(rest):
                    continue
                rest.difference_update(part)
                new = len(members)
                members.append(set(part))
                for s in part:
                    classes[s] = new
                half = new if c in queued or len(part) <= len(rest) else c
                queue.append(half)
                queued.add(half)
    return classes


def optim(a: Fst, state_budget: int = DETERMINIZE_STATE_BUDGET) -> Wfst:
    """minimize(determinize(a)); the usual decode-graph optimization step.

    Input that is deterministic per label pair, with eps:eps counted as
    one more pair, and has at most `state_budget` states skips the subset
    construction: every subset would be one state with residual 0, so
    determinize would only renumber the accessible part, and minimize's
    result does not depend on the numbering. Larger input still goes
    through determinize and its budget.
    """
    if a.num_states() > state_budget or not a.check_pair_deterministic():
        return _minimize(determinize(a, state_budget))
    return _minimize(a)


# ---------------------------------------------------------------------------
# replacement
# ---------------------------------------------------------------------------

# root -> {nonterminal: its call index}; valid because a machine handed to
# ops is never changed afterwards
_CALL_INDEXES = weakref.WeakKeyDictionary()


def replace(root: Fst, nonterminal: int, sub: Fst) -> "ReplaceView":
    """Splice `sub` in place of every root arc whose output label is the
    nonterminal, an id of `root.osymbols`; input labels are not read.

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
        sites = [(arc.weight, arc.nextstate) for arc in arcs if arc.olabel == nonterminal]
        if sites:
            calls[s] = ([arc for arc in arcs if arc.olabel != nonterminal], sites)
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
        for arc in sub.arcs(q):
            if arc.ilabel not in imap:
                imap[arc.ilabel] = _map_label(arc.ilabel, sub.isymbols, root.isymbols)
            if arc.olabel not in omap:
                omap[arc.olabel] = _map_label(arc.olabel, sub.osymbols, root.osymbols)
                if omap[arc.olabel] == nonterminal:
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
        live = bool(sub.finals)   # else every call site is dropped
        self._returns = list(targets) if live else []    # each block's return target
        self._entries = {t: self._n + k * self._block + sub.start
                         for k, t in enumerate(self._returns)}
        self._num_states = self._n + len(self._returns) * self._block
        self._num_arcs = n_arcs - n_calls
        if live:
            block_arcs = sub.num_arcs() + len(sub.finals)
            self._num_arcs += n_calls + len(self._returns) * block_arcs
        self._built = {}

    def arcs(self, state: int) -> list[Arc]:
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
                arcs = kept + [Arc(EPSILON_ID, EPSILON_ID, w, self._entries[t])
                               for w, t in sites]
        else:
            k, q = divmod(state - self._n, self._block)
            offset = state - q
            imap, omap = self._imap, self._omap
            arcs = [Arc(imap[a.ilabel], omap[a.olabel], a.weight, offset + a.nextstate)
                    for a in self._sub_arcs(q)]
            fw = self._sub_finals.get(q)
            if fw is not None:
                arcs.append(Arc(EPSILON_ID, EPSILON_ID, fw, self._returns[k]))
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

    best_state, best_cost = None, ZERO
    for s, fw in a.finals.items():
        if s not in dist:
            continue
        total = dist[s] + fw
        if total < best_cost or (total == best_cost and (best_state is None or s < best_state)):
            best_state, best_cost = s, total
    if best_state is None:
        raise NoPathError("no accepting path from the start state")

    arcs_rev = []
    s = best_state
    while s in pred:
        s, arc = pred[s]
        arcs_rev.append(arc)
    ins, outs = [], []
    for arc in reversed(arcs_rev):
        if arc.ilabel != EPSILON_ID:
            ins.append(a.isymbols.sym(arc.ilabel))
        if arc.olabel != EPSILON_ID:
            outs.append(a.osymbols.sym(arc.olabel))
    return tuple(ins), tuple(outs), best_cost
