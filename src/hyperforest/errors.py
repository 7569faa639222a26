"""Exception types shared by the hyperforest modules, and how messages word numbers."""

from __future__ import annotations

from decimal import Decimal


def _words(value: object) -> str:
    """A message's text for a value; unlike str(), it words an int of any size."""
    if isinstance(value, (tuple, list)):  # as list() prints, whichever the sequence
        return "[" + ", ".join(map(_words, value)) + "]"
    return str(Decimal(value)) if isinstance(value, int) else str(value)


class HyperforestError(Exception):
    """Base class for all errors raised by this package."""


class InvalidStructureError(HyperforestError, ValueError):
    """A forest, hyperedge, or code value breaks a structural rule."""


class ParameterRangeError(HyperforestError, ValueError):
    """A shape parameter, index, seed, or count is outside its valid range."""


class BudgetExceededError(HyperforestError, RuntimeError):
    """An exhaustive enumeration would exceed the configured candidate budget."""

    def __init__(self, candidates: int, budget: int):
        self.candidates = candidates
        self.budget = budget
        super().__init__(
            f"enumeration refused: {_words(candidates)} candidate sets exceed "
            f"the budget of {_words(budget)}"
        )

    def __reduce__(self):
        return type(self), (self.candidates, self.budget)


class InvariantViolation(HyperforestError, RuntimeError):
    """An internal invariant failed; indicates a bug, not bad input."""
