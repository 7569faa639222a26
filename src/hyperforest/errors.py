"""Exception types shared by the hyperforest modules."""

from __future__ import annotations

from decimal import Decimal


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
        # Decimal words an int of any size, str() only up to 4300 digits
        super().__init__(
            f"enumeration refused: {Decimal(candidates)} candidate sets exceed "
            f"the budget of {Decimal(budget)}"
        )


class InvariantViolation(HyperforestError, RuntimeError):
    """An internal invariant failed; indicates a bug, not bad input."""
