"""Shared fixtures and the brute-force machinery the equivalence tests use."""

import random
from collections import deque

import pytest

from regexbias.fst import EPSILON_ID, SymbolTable, Wfst
from regexbias.semiring import ZERO


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


def _eps_closure(a: Wfst, dist: dict) -> dict:
    """Relax `a`'s epsilon arcs out of {state: cost} until no cost drops."""
    stack = list(dist)
    while stack:
        s = stack.pop()
        for arc in a.arcs(s):
            if arc.ilabel == EPSILON_ID and dist[s] + arc.weight < dist.get(arc.nextstate, ZERO):
                dist[arc.nextstate] = dist[s] + arc.weight
                stack.append(arc.nextstate)
    return dist


def acceptor_weights(a: Wfst, sequences) -> dict:
    """{sequence: best weight of an accepting path of acceptor `a` that reads
    it, ZERO if none does} for sequences of symbols.

    Brute force from the arcs alone: epsilon closure from the start, then
    one step per label followed by its closure. Prefixes shared between
    sequences are walked once. `a` may have no negative epsilon cycle.
    """
    assert all(arc.ilabel == arc.olabel for _, arc in a.all_arcs()), "not an acceptor"
    reach = {(): _eps_closure(a, {a.start: 0.0}) if not a.is_empty() else {}}

    def reached(seq):
        if seq not in reach:
            label = a.isymbols.find(seq[-1])
            step = {}
            for s, w in reached(seq[:-1]).items():
                for arc in a.arcs(s):
                    if arc.ilabel == label and w + arc.weight < step.get(arc.nextstate, ZERO):
                        step[arc.nextstate] = w + arc.weight
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
    Takes and returns what `_refine` does."""
    states = list(finals)
    ids = {}
    classes = {s: ids.setdefault(finals[s], len(ids)) for s in states}
    count = len(ids)
    while True:
        ids = {}
        refined = {s: ids.setdefault((classes[s], tuple(sorted(
            (i, o, w, classes[t]) for i, o, w, t in arcs[s]))), len(ids))
            for s in states}
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
        return Wfst(a.isymbols, a.osymbols)
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


def partition(classes: dict):
    """{state: class} as a set of frozensets of states, class ids forgotten."""
    blocks = {}
    for s, c in classes.items():
        blocks.setdefault(c, set()).add(s)
    return {frozenset(b) for b in blocks.values()}


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture
def ab_table():
    return make_table(["a", "b"], "ab")


@pytest.fixture
def abcd_table():
    return make_table(["a", "b", "c", "d"], "abcd")
