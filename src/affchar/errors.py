"""Shared exception types, mapped to CLI exit codes by affchar.cli."""


class AffcharError(Exception):
    """Base class for all library errors."""


class DomainError(AffcharError):
    """Input outside the mathematical domain of an operation (exit code 2).

    Examples: critical level where a conformal structure is needed, a
    weight that fails a dominance precondition, a label on the wrong side
    of a transform.
    """


class BallExhausted(AffcharError):
    """A length ball was too small for the requested computation
    (exit code 3)."""


class TruncationOverflow(AffcharError):
    """A truncated computation cannot be done exactly within its resources
    (exit code 3): an exact operator application left the tracked window
    of a truncated module, or a requested window is too large (its step
    count, checked before any work, is over the budget).  Carries the
    offending data."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
