"""Shared exception types."""


class BudgetExceeded(RuntimeError):
    """An exhaustive operation would touch more elements than the caller allowed.

    Raised instead of silently truncating; callers wanting an answer anyway
    should switch to the Monte-Carlo paths (sample_uniform /
    estimate_square_fraction).
    """

    def __init__(self, needed, budget, what="enumeration"):
        self.needed = needed
        self.budget = budget
        super().__init__(
            f"{what} requires {needed} elements, above the budget of {budget}; "
            f"raise the budget or use the Monte-Carlo sampling routines instead"
        )


class HypothesisNotMet(ValueError):
    """A mathematical precondition of a theorem or lemma fails.

    Report generators map this to a 'skip-hypothesis' verdict rather than a
    bound failure.
    """


class InvariantViolation(ArithmeticError):
    """A fact the mathematics guarantees failed on computed data.

    Raised explicitly (never via `assert`, which `python -O` strips): it
    means a corrupted table or a bug, so no verdict may be drawn from the
    computation that tripped it.
    """
