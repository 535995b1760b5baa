"""Exception types, and the argument checks, shared across the package."""


class GramtreeError(Exception):
    """Base class for all gramtree errors."""


class UnsupportedGrammarError(GramtreeError):
    """The grammar cannot be handled (advanced syntax, recursion, size)."""


class GrammarFormatError(UnsupportedGrammarError):
    """The grammar file is malformed (bad JSON, missing origin, bad refs)."""


class RecursiveGrammarError(UnsupportedGrammarError):
    """A finite language was required but the grammar is recursive."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("grammar is recursive: " + " -> ".join(self.cycle))


class LanguageTooLargeError(UnsupportedGrammarError):
    """Enumeration hit the cap where an exact language was required."""


class InternalInvariantError(GramtreeError):
    """An internal invariant was violated; indicates a bug."""


def is_positive_int(value: object) -> bool:
    """Whether ``value`` is an int >= 1; a bool is not."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def is_ratio(value: object) -> bool:
    """Whether ``value`` is an int or float within [0, 1]; a bool or NaN is not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0.0 <= value <= 1.0
