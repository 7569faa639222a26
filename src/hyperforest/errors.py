"""Exception types shared by the hyperforest modules, and how messages word numbers."""

from __future__ import annotations

import os
import sys
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


def _ensure_fits(size: int) -> None:
    """Refuse work that would build size bytes, past sys.maxsize or past
    physical memory where os.sysconf reports it.  Callers pass a lower bound
    before building anything, so only work that could never finish is refused."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or not these names
        memory = 0
    if size > sys.maxsize or 0 < memory < size:
        raise ParameterRangeError("parameters too large to compute")


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
