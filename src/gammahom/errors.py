"""Failure modes that callers are expected to handle."""

from __future__ import annotations


class LimitExceeded(RuntimeError):
    """A computation refused to build something larger than a fixed limit.

    Callers may read it as "undecided" and go on; a ``MemoryError`` is a
    real out-of-memory failure and is not caught as one of these.
    """


class BudgetExceeded(LimitExceeded):
    """A level of a multisimplicial object is larger than the cell budget.

    Carries the offending multi-index so long computations fail predictably
    instead of exhausting memory.
    """

    def __init__(self, index, size, budget):
        self.index = tuple(index)
        self.size = size
        self.budget = budget
        super().__init__(
            f"cell budget exceeded at multi-index {self.index}: "
            f"{size} points > budget {budget}")


class IntegrityError(RuntimeError):
    """An internal consistency law failed (d*d != 0, broken naturality, ...)."""
