"""Weighted finite-state transducers over the tropical semiring.

Every machine is read through one interface, `Fst`: a subclass supplies
the storage and `Fst` derives the rest, so an algorithm reads each kind of
machine the same way. A `Wfst` stores its arcs in lists and is mutable
while it is being built (add_state / add_arc / set_final); a view such as
`ops.ReplaceView` is read-only. A Wfst is treated as immutable once handed
to any algorithm in ops.py: no operation mutates its inputs, and each
returns a fresh machine or, for `ops.replace`, a view over its inputs, so
finished machines are safe to share across threads. `ops.replace` relies
on this: it indexes a root's call sites once and reuses the index for as
long as the root lives.

An arc is the plain tuple `(ilabel, olabel, weight, nextstate)`: consume
ilabel, emit olabel, add weight, move to nextstate. Arcs are immutable, so
copies of a machine share them; each copy owns its arc lists, and code
that needs different arcs puts new tuples in its own machine's lists.

Weights are costs: min chooses between paths and + concatenates them. A
weight of `inf`, the semiring's zero `ZERO`, is no transition:
`Wfst.add_arc` stores no such arc and `set_final` no such final, so no
algorithm checks for one; both raise ConfigError on NaN and `-inf`. Code
that fills arc lists and finals itself keeps the same rule, in one of two
ways:

* Finite weights only. `compiler.ast_to_nfa` and `lm.build_lexicon`
  write 0; `lm.build_root` writes 0 on its `#0` loops and copies G's
  weights; `lm.add_char_fallback` writes the `LmConfig`'s penalty, which
  the config has checked finite, and `insert_nonterminal` writes 0;
  `compiler.nfa_to_dfa` and `ops.ReplaceView` copy weights out of
  machines.
* It drops an `inf` itself. `ops.compose` drops a sum w1 + w2 that
  overflows, `ops.minimize` a pushed weight that overflows, and `textio`'s
  reader an `inf` arc or final weight, after one check rejects NaN and
  `-inf` as `add_arc` would. `lm.build_grammar` and its unigram layout
  drop the -log of a probability that is 0.

A combinator that pairs two machines' labels, such as `ops.compose`,
needs one table object on the shared side: tables grow, so two equal ones
need not stay equal. `ops.replace` alone maps labels by symbol.

The bulk builders run with CPython's cyclic garbage collector paused,
through `nogc`: `ops.compose`, `determinize`, `minimize` and `optim`,
`textio`'s reader, and each `lm` step from n-gram counts to the root.
They allocate arcs, lists and dicts by the hundred thousand, and each
collection would rescan every live one. An arc holds only numbers, so the
first collection after its build stops tracking it. Nothing in this
package builds a reference cycle, so refcounting alone frees what they
drop, and the pause leaves nothing for a later collection. The pause is
process-wide: another thread's cyclic garbage waits until the build
returns. A caller that disabled the collector finds it still disabled.
"""

import functools
import gc
import math

from .errors import ConfigError, SymbolError

EPSILON = "<eps>"
BLANK = "<blank>"
DISAMBIG = "#0"
REGEX_NT = "$REGEX"
RESERVED = {BLANK, DISAMBIG, REGEX_NT}

EPSILON_ID = 0
ZERO = math.inf


def nogc(func):
    """Run `func` with the cyclic garbage collector disabled, then enabled
    again, unless the caller had already disabled it (so nested calls
    leave it to the outermost); as Mercurial's `util.nogc`."""
    @functools.wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()
    return paused


class SymbolTable:
    """Dense bijection between label strings and integer ids; id 0 is <eps>."""

    def __init__(self, name="symbols"):
        self.name = name
        self._syms = [EPSILON]
        self._ids = {EPSILON: 0}

    @classmethod
    def from_symbols(cls, symbols, name="symbols"):
        table = cls(name)
        for s in symbols:
            table.add(s)
        return table

    def add(self, symbol: str) -> int:
        """Register a symbol, returning its id (existing symbols keep theirs)."""
        if "\t" in symbol or "\n" in symbol:
            raise SymbolError(f"symbol may not contain tab or newline: {symbol!r}")
        existing = self._ids.get(symbol)
        if existing is not None:
            return existing
        new_id = len(self._syms)
        self._syms.append(symbol)
        self._ids[symbol] = new_id
        return new_id

    def id(self, symbol: str) -> int:
        try:
            return self._ids[symbol]
        except KeyError:
            raise SymbolError(f"unknown symbol {symbol!r} in table {self.name!r}") from None

    def sym(self, label_id: int) -> str:
        if 0 <= label_id < len(self._syms):
            return self._syms[label_id]
        raise SymbolError(f"no symbol with id {label_id} in table {self.name!r}")

    def find(self, symbol: str):
        """Id for symbol, or None when absent."""
        return self._ids.get(symbol)

    def __len__(self):
        return len(self._syms)

    def __iter__(self):
        return iter(self._syms)

    def __repr__(self):
        return f"SymbolTable({self.name!r}, {len(self)} symbols)"


class Fst:
    """Read interface of a machine. A subclass supplies the storage: the
    attributes isymbols, osymbols, start (None when the machine is empty)
    and finals ({state: weight}), and the methods arcs(state), a list of
    (ilabel, olabel, weight, nextstate) tuples, num_states() and
    num_arcs(). No arc or final weight is `inf`.
    Everything else is derived here."""

    def states(self):
        return range(self.num_states())

    def final(self, state: int) -> float:
        return self.finals.get(state, ZERO)

    def is_final(self, state: int) -> bool:
        return state in self.finals

    def is_empty(self) -> bool:
        """True when the machine has no start state at all."""
        return self.start is None

    def _check_state(self, state: int):
        n = self.num_states()
        if not 0 <= state < n:
            raise IndexError(f"state {state} out of range (machine has {n} states)")

    def __repr__(self):
        return (f"{type(self).__name__}({self.num_states()} states, "
                f"{self.num_arcs()} arcs, {len(self.finals)} finals)")


class Wfst(Fst):
    """Transducer: list of per-state arc lists, a start state, final weights."""

    def __init__(self, isymbols: SymbolTable, osymbols: SymbolTable | None = None):
        self.isymbols = isymbols
        self.osymbols = osymbols if osymbols is not None else isymbols
        self._arcs: list[list[tuple]] = []
        self.start: int | None = None
        self.finals: dict[int, float] = {}

    # -- construction -------------------------------------------------

    def add_state(self) -> int:
        self._arcs.append([])
        return len(self._arcs) - 1

    def add_states(self, n: int) -> int:
        """Add n states, returning the id of the first."""
        first = len(self._arcs)
        for _ in range(n):
            self._arcs.append([])
        return first

    def set_start(self, state: int):
        self._check_state(state)
        self.start = state

    def add_arc(self, src: int, ilabel: int, olabel: int, weight: float, dst: int):
        if not 0 <= src < len(self._arcs) > dst >= 0:
            self._check_state(src)
            self._check_state(dst)
        if -ZERO < weight < ZERO:
            self._arcs[src].append((ilabel, olabel, weight, dst))
        elif weight != ZERO:
            raise ConfigError(f"arc weight must be finite or inf, got {weight}")

    def set_final(self, state: int, weight: float = 0.0):
        self._check_state(state)
        if -ZERO < weight < ZERO:
            self.finals[state] = weight
        elif weight == ZERO:
            self.finals.pop(state, None)
        else:
            raise ConfigError(f"final weight must be finite or inf, got {weight}")

    # -- storage --------------------------------------------------------

    def num_states(self) -> int:
        return len(self._arcs)

    def num_arcs(self) -> int:
        return sum(len(a) for a in self._arcs)

    def arcs(self, state: int) -> list[tuple]:
        return self._arcs[state]

    def copy(self) -> "Wfst":
        """A machine with its own arc lists and finals; the immutable arcs
        in them are shared with this one."""
        out = Wfst(self.isymbols, self.osymbols)
        out._arcs = [list(arcs) for arcs in self._arcs]
        out.start = self.start
        out.finals = dict(self.finals)
        return out


def character_symbols(table: SymbolTable):
    """Symbols the recognizer can actually emit: everything but the reserved ones."""
    return [s for i, s in enumerate(table) if i != EPSILON_ID and s not in RESERVED]


def linear_acceptor(symbols, table: SymbolTable, arc_weight: float = 0.0,
                    final_weight: float = 0.0) -> Wfst:
    """Single-path acceptor of the given symbol sequence."""
    m = Wfst(table)
    prev = m.add_state()
    m.set_start(prev)
    for s in symbols:
        nxt = m.add_state()
        label = table.id(s)
        m.add_arc(prev, label, label, arc_weight, nxt)
        prev = nxt
    m.set_final(prev, final_weight)
    return m
