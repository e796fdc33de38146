"""Exception types raised across the toolkit."""

from itertools import zip_longest


class RegexBiasError(Exception):
    """Base class for all toolkit errors."""


class SymbolError(RegexBiasError):
    """Unknown or malformed symbol / symbol-id."""


class SymbolTableMismatchError(RegexBiasError):
    """Two machines were combined over incompatible symbol tables; the
    message gives their sizes and the first id whose symbols differ."""

    def __init__(self, left, right, detail):
        diff = next(((i, a, b) for i, (a, b) in enumerate(zip_longest(left, right)) if a != b),
                    None)
        msg = (f"symbol tables do not match: {left.name!r} ({len(left)} symbols) "
               f"vs {right.name!r} ({len(right)} symbols), ")
        msg += ("equal but separate tables" if diff is None
                else "first differing at id {}: {!r} vs {!r}".format(*diff))
        super().__init__(f"{msg} ({detail})")


class ConfigError(RegexBiasError, ValueError):
    """A configuration value is out of range."""


class BudgetExceededError(RegexBiasError):
    """A state or path budget was exhausted before the operation finished.

    `stage` names the operation that stopped, `limit` is its budget and
    `used` how much of the budget it had used or would have used.
    """

    def __init__(self, stage, limit, used, msg):
        self.stage = stage
        self.limit = limit
        self.used = used
        super().__init__(msg)


class NondeterministicInputError(RegexBiasError):
    """An operation required a deterministic machine and got something else."""


class NegativeCycleError(RegexBiasError):
    """A negative-weight cycle makes shortest costs unbounded."""

    def __init__(self, states):
        self.states = sorted(states)
        super().__init__(f"negative-weight cycle involving states {self.states}")


class NoPathError(RegexBiasError):
    """The machine accepts nothing (no path from start to a final state)."""


class ReplaceRecursionError(RegexBiasError):
    """The replacement sub-machine itself carries the nonterminal label."""


class GrammarError(RegexBiasError):
    """Grammar text failed to parse or validate."""

    def __init__(self, msg, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            msg = f"line {line}, column {column}: {msg}"
        super().__init__(msg)


class LexiconError(RegexBiasError):
    """Lexicon entry refers to unknown characters or is malformed."""
