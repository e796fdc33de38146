"""Algorithm suite over tropical-semiring machines.

Every function returns a fresh machine and leaves its inputs untouched.
Composition uses the 3-state epsilon filter so epsilon paths are neither
duplicated nor dropped. Determinization is a weighted subset construction
carrying residual weights; transducers are handled by treating the
(ilabel, olabel) pair as the subset-construction label, which is also the
signature minimization refines on.
"""

import warnings
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
from .fst import EPSILON_ID, Arc, Wfst
from .semiring import ZERO

DETERMINIZE_STATE_BUDGET = 1_000_000
ENUMERATE_PATH_BUDGET = 1_000_000


class ReplaceNoOpWarning(UserWarning):
    """replace() found no arcs carrying the nonterminal."""


def _empty_like(a: Wfst) -> Wfst:
    return Wfst(a.isymbols, a.osymbols)


# ---------------------------------------------------------------------------
# connect / relabel
# ---------------------------------------------------------------------------

def connect(a: Wfst) -> Wfst:
    """Drop states that are not on some start-to-final path."""
    if a.is_empty():
        return _empty_like(a)
    forward = set()
    queue = deque([a.start])
    while queue:
        s = queue.popleft()
        if s in forward:
            continue
        forward.add(s)
        for arc in a.arcs(s):
            if arc.nextstate not in forward:
                queue.append(arc.nextstate)
    rev = [[] for _ in a.states()]
    for s, arc in a.all_arcs():
        rev[arc.nextstate].append(s)
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
        return _empty_like(a)
    remap = {}
    out = Wfst(a.isymbols, a.osymbols)
    for s in sorted(keep):
        remap[s] = out.add_state()
    out.set_start(remap[a.start])
    for s in sorted(keep):
        for arc in a.arcs(s):
            if arc.nextstate in keep:
                out.add_arc(remap[s], arc.ilabel, arc.olabel, arc.weight,
                            remap[arc.nextstate])
    for s, w in a.finals.items():
        if s in keep:
            out.set_final(remap[s], w)
    return out


def relabel(a: Wfst, imap: dict[int, int] | None = None,
            omap: dict[int, int] | None = None) -> Wfst:
    """Rewrite arc labels through the given id maps (missing ids pass through)."""
    out = a.copy()
    imap = imap or {}
    omap = omap or {}
    for s in out.states():
        for arc in out.arcs(s):
            arc.ilabel = imap.get(arc.ilabel, arc.ilabel)
            arc.olabel = omap.get(arc.olabel, arc.olabel)
    return out


# ---------------------------------------------------------------------------
# epsilon removal
# ---------------------------------------------------------------------------

def _eps_closures(a: Wfst):
    """Min-cost eps:eps closure from every state; error on negative cycles."""
    eps_arcs = [[] for _ in a.states()]
    has_eps = False
    for s, arc in a.all_arcs():
        if arc.ilabel == EPSILON_ID and arc.olabel == EPSILON_ID:
            eps_arcs[s].append(arc)
            has_eps = True
    if not has_eps:
        return None
    n = a.num_states()
    closures = []
    for s in a.states():
        dist = {s: 0.0}
        for round_no in range(n + 1):
            changed = False
            for q, d in list(dist.items()):
                for arc in eps_arcs[q]:
                    nd = d + arc.weight
                    if nd < dist.get(arc.nextstate, ZERO) - 1e-12:
                        dist[arc.nextstate] = nd
                        changed = True
            if not changed:
                break
            if round_no == n:
                raise NegativeCycleError(dist.keys(), "negative eps:eps cycle")
        del dist[s]
        closures.append(dist)
    return closures


def rm_epsilon(a: Wfst) -> Wfst:
    """Remove eps:eps arcs by weighted closure; the weighted language is kept."""
    if a.is_empty():
        return _empty_like(a)
    closures = _eps_closures(a)
    if closures is None:
        return connect(a)
    out = Wfst(a.isymbols, a.osymbols)
    out.add_states(a.num_states())
    out.set_start(a.start)
    for s in a.states():
        fw = a.final(s)
        seen = set()
        for arc in a.arcs(s):
            if arc.ilabel == EPSILON_ID and arc.olabel == EPSILON_ID:
                continue
            out.add_arc(s, arc.ilabel, arc.olabel, arc.weight, arc.nextstate)
            seen.add((arc.ilabel, arc.olabel, arc.weight, arc.nextstate))
        for t, wc in sorted(closures[s].items()):
            fw = min(fw, wc + a.final(t))
            for arc in a.arcs(t):
                if arc.ilabel == EPSILON_ID and arc.olabel == EPSILON_ID:
                    continue
                key = (arc.ilabel, arc.olabel, wc + arc.weight, arc.nextstate)
                if key not in seen:
                    seen.add(key)
                    out.add_arc(s, arc.ilabel, arc.olabel, wc + arc.weight, arc.nextstate)
        if fw != ZERO:
            out.set_final(s, fw)
    return connect(out)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def compose(a: Wfst, b: Wfst) -> Wfst:
    """Compose two machines; a's output space must be b's input space.

    The pairing runs through the standard 3-state epsilon filter: state 0
    allows any move, state 1 commits to advancing only b on its input
    epsilons, state 2 commits to advancing only a on its output epsilons.
    """
    if a.osymbols != b.isymbols:
        raise SymbolTableMismatchError(
            a.osymbols.name, b.isymbols.name,
            "compose needs a.osymbols == b.isymbols",
        )
    out = Wfst(a.isymbols, b.osymbols)
    if a.is_empty() or b.is_empty():
        return out

    b_by_ilabel: list[dict[int, list[Arc]]] = []
    for s in b.states():
        index: dict[int, list[Arc]] = {}
        for arc in b.arcs(s):
            index.setdefault(arc.ilabel, []).append(arc)
        b_by_ilabel.append(index)

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
        b_index = b_by_ilabel[s2]
        for arc1 in a.arcs(s1):
            if arc1.olabel != EPSILON_ID:
                for arc2 in b_index.get(arc1.olabel, ()):
                    dst = state_of((arc1.nextstate, arc2.nextstate, 0))
                    out.add_arc(src, arc1.ilabel, arc2.olabel,
                                arc1.weight + arc2.weight, dst)
            else:
                # a moves alone on its output epsilon
                if filt in (0, 2):
                    dst = state_of((arc1.nextstate, s2, 2))
                    out.add_arc(src, arc1.ilabel, EPSILON_ID, arc1.weight, dst)
                # both sides take their epsilon arcs together
                if filt == 0:
                    for arc2 in b_index.get(EPSILON_ID, ()):
                        dst = state_of((arc1.nextstate, arc2.nextstate, 0))
                        out.add_arc(src, arc1.ilabel, arc2.olabel,
                                    arc1.weight + arc2.weight, dst)
        if filt in (0, 1):
            for arc2 in b_index.get(EPSILON_ID, ()):
                dst = state_of((s1, arc2.nextstate, 1))
                out.add_arc(src, EPSILON_ID, arc2.olabel, arc2.weight, dst)
    return connect(out)


# ---------------------------------------------------------------------------
# determinization
# ---------------------------------------------------------------------------

def determinize(a: Wfst, state_budget: int = DETERMINIZE_STATE_BUDGET) -> Wfst:
    """Weighted subset construction with residual weights pushed to the start.

    eps:eps arcs are removed first. Subset elements are (state, residual)
    pairs ordered by ascending state id; the minimum over each expansion
    step is extracted onto the new arc. Transducer arcs take part as
    (ilabel, olabel) pairs, so the result is deterministic per label pair,
    and deterministic per ilabel whenever the input is an acceptor.
    """
    a = rm_epsilon(a)
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
                label = (arc.ilabel, arc.olabel)
                targets = moves.setdefault(label, {})
                w = residual + arc.weight
                if w < targets.get(arc.nextstate, ZERO):
                    targets[arc.nextstate] = w
        if fw != ZERO:
            out.set_final(src, fw)
        for label in sorted(moves):
            targets = moves[label]
            w_min = min(targets.values())
            new_key = tuple(sorted((t, w - w_min) for t, w in targets.items()))
            dst = state_ids.get(new_key)
            if dst is None:
                if len(state_ids) >= state_budget:
                    raise BudgetExceededError(
                        f"determinize exceeded the {state_budget} subset-state budget"
                    )
                dst = out.add_state()
                state_ids[new_key] = dst
                queue.append(new_key)
            out.add_arc(src, label[0], label[1], w_min, dst)
    return out


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

def _dist_to_final(a: Wfst):
    """Per-state min cost of reaching (and paying) a final. None on negative cycles."""
    n = a.num_states()
    dist = [a.final(s) for s in a.states()]
    for round_no in range(n):
        changed = False
        for s, arc in a.all_arcs():
            if dist[arc.nextstate] == ZERO:
                continue
            nd = arc.weight + dist[arc.nextstate]
            if nd < dist[s] - 1e-15:
                dist[s] = nd
                changed = True
        if not changed:
            return dist
    # one settled pass ran out: a further improvement means a negative cycle
    for s, arc in a.all_arcs():
        if dist[arc.nextstate] != ZERO and arc.weight + dist[arc.nextstate] < dist[s] - 1e-15:
            return None
    return dist


def minimize(a: Wfst) -> Wfst:
    """Merge indistinguishable states of a deterministic machine.

    Weights are pushed toward the start, then classes are refined on the
    exact signature (ilabel, olabel, weight, successor class) until
    stable. Requires input that is deterministic at least per label pair.
    Pushing is skipped when a negative cycle makes shortest suffix costs
    undefined; exactly-equal suffixes still merge then.
    """
    if a.is_empty():
        return _empty_like(a)
    if not a.check_pair_deterministic():
        raise NondeterministicInputError(
            "minimize requires a deterministic machine (per (ilabel, olabel) pair)"
        )
    a = connect(a)
    if a.is_empty():
        return a
    # after connect every state reaches a final, so each potential is finite
    pot = _dist_to_final(a) or [0.0] * a.num_states()
    pot[a.start] = 0.0  # keep total path weights unchanged
    arcs = [[(arc.ilabel, arc.olabel, arc.weight + pot[arc.nextstate] - pot[s],
              arc.nextstate) for arc in a.arcs(s)] for s in a.states()]
    finals = [a.final(s) - pot[s] for s in a.states()]

    # weights are keyed as floats: -0.0 == 0.0, and no weight is NaN
    ids = {}
    classes = [ids.setdefault(w, len(ids)) for w in finals]
    count = len(ids)
    while True:
        ids = {}
        refined = [ids.setdefault((classes[s], tuple(sorted(
            (i, o, w, classes[t]) for i, o, w, t in arcs[s]))), len(ids))
            for s in a.states()]
        if len(ids) == count:
            break
        classes, count = refined, len(ids)

    # rebuild from the first state reached in each class, numbered breadth first
    out = Wfst(a.isymbols, a.osymbols)
    class_state = {classes[a.start]: out.add_state()}
    out.set_start(0)
    queue = deque([a.start])
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


def optim(a: Wfst, state_budget: int = DETERMINIZE_STATE_BUDGET) -> Wfst:
    """minimize(determinize(a)); the usual decode-graph optimization step."""
    return minimize(determinize(a, state_budget))


# ---------------------------------------------------------------------------
# replacement
# ---------------------------------------------------------------------------

def replace(root: Wfst, nonterminal: int, sub: Wfst) -> Wfst:
    """Splice `sub` in place of every root arc labeled with the nonterminal.

    Each labeled arc s->t becomes an epsilon entry (carrying the arc
    weight) into a copy of sub's start, with epsilon returns from sub's
    finals to t carrying the final weights. Copies are shared per return
    target so paths cannot leak between different call sites. One level
    only: sub itself must not carry the nonterminal.
    """
    for _, arc in sub.all_arcs():
        if arc.ilabel == nonterminal or arc.olabel == nonterminal:
            raise ReplaceRecursionError(
                "replacement sub-machine carries the nonterminal label itself"
            )
    nt_arcs = [(s, arc) for s, arc in root.all_arcs()
               if arc.ilabel == nonterminal or arc.olabel == nonterminal]
    if not nt_arcs:
        warnings.warn("nonterminal label absent from root; replace is a no-op",
                      ReplaceNoOpWarning, stacklevel=2)
        return root.copy()

    # remap sub labels into root's tables by symbol string
    def label_map(sub_table, root_table):
        mapping = {EPSILON_ID: EPSILON_ID}
        for i, symbol in enumerate(sub_table):
            if i == EPSILON_ID:
                continue
            target = root_table.find(symbol)
            if target is None:
                raise SymbolError(
                    f"replacement symbol {symbol!r} missing from table {root_table.name!r}"
                )
            mapping[i] = target
        return mapping

    isym_map = label_map(sub.isymbols, root.isymbols)
    osym_map = label_map(sub.osymbols, root.osymbols)

    out = Wfst(root.isymbols, root.osymbols)
    out.add_states(root.num_states())
    out.set_start(root.start)
    for s, w in root.finals.items():
        out.set_final(s, w)
    for s in root.states():
        for arc in root.arcs(s):
            if arc.ilabel == nonterminal or arc.olabel == nonterminal:
                continue
            out.add_arc(s, arc.ilabel, arc.olabel, arc.weight, arc.nextstate)

    copies: dict[int, int] = {}  # return target -> sub copy offset
    for s, arc in nt_arcs:
        target = arc.nextstate
        offset = copies.get(target)
        if offset is None:
            offset = out.add_states(sub.num_states())
            copies[target] = offset
            for q in sub.states():
                for sarc in sub.arcs(q):
                    out.add_arc(offset + q, isym_map[sarc.ilabel], osym_map[sarc.olabel],
                                sarc.weight, offset + sarc.nextstate)
            for q, fw in sub.finals.items():
                out.add_arc(offset + q, EPSILON_ID, EPSILON_ID, fw, target)
        out.add_arc(s, EPSILON_ID, EPSILON_ID, arc.weight, offset + sub.start)
    return connect(out)


# ---------------------------------------------------------------------------
# path enumeration and shortest path
# ---------------------------------------------------------------------------

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
        for arc in a.arcs(state):
            nins = ins if arc.ilabel == EPSILON_ID else ins + (arc.ilabel,)
            nouts = outs if arc.olabel == EPSILON_ID else outs + (arc.olabel,)
            if len(nins) > max_len or len(nouts) > max_out_len:
                continue
            nkey = (arc.nextstate, nins, nouts)
            nw = w + arc.weight
            if nw < best.get(nkey, ZERO) - 1e-15:
                best[nkey] = nw
                queue.append(nkey)
                expansions += 1
                if expansions > path_budget:
                    raise BudgetExceededError(
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


def shortest_path(a: Wfst):
    """Min-cost accepting path as (input symbols, output symbols, weight).

    Bellman-Ford, so bias-weighted machines with negative arcs are fine as
    long as no negative cycle is reachable; such a cycle raises an error
    naming the states still improving after convergence should have
    happened.
    """
    if a.is_empty():
        raise NoPathError("machine has no states")
    n = a.num_states()
    dist = [ZERO] * n
    pred: list[tuple[int, Arc] | None] = [None] * n
    dist[a.start] = 0.0
    for _ in range(n - 1):
        changed = False
        for s in range(n):
            if dist[s] == ZERO:
                continue
            base = dist[s]
            for arc in a.arcs(s):
                nd = base + arc.weight
                if nd < dist[arc.nextstate] - 1e-15:
                    dist[arc.nextstate] = nd
                    pred[arc.nextstate] = (s, arc)
                    changed = True
        if not changed:
            break
    else:
        improving = set()
        for s in range(n):
            if dist[s] == ZERO:
                continue
            for arc in a.arcs(s):
                if dist[s] + arc.weight < dist[arc.nextstate] - 1e-15:
                    improving.add(arc.nextstate)
        if improving:
            raise NegativeCycleError(improving)

    best_state, best_cost = None, ZERO
    for s, fw in a.finals.items():
        if dist[s] == ZERO:
            continue
        total = dist[s] + fw
        if total < best_cost or (total == best_cost and (best_state is None or s < best_state)):
            best_state, best_cost = s, total
    if best_state is None:
        raise NoPathError("no accepting path from the start state")

    arcs_rev = []
    s = best_state
    while pred[s] is not None:
        prev, arc = pred[s]
        arcs_rev.append(arc)
        s = prev
    ins, outs = [], []
    for arc in reversed(arcs_rev):
        if arc.ilabel != EPSILON_ID:
            ins.append(a.isymbols.sym(arc.ilabel))
        if arc.olabel != EPSILON_ID:
            outs.append(a.osymbols.sym(arc.olabel))
    return tuple(ins), tuple(outs), best_cost
