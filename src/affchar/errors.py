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
    of a truncated module, or a requested job is too large (its step
    count, checked before any work, is over STEP_BUDGET).  Carries the
    offending data."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# Largest number of elementary steps one kernel may take: a series
# coefficient update, or one term of a root-system pairing.  The kernels
# count their steps before any work and refuse larger jobs with
# TruncationOverflow (exit code 3) instead of running for hours.
STEP_BUDGET = 10 ** 8


def check_step_budget(what, steps):
    """Raise TruncationOverflow when a kernel would take more than
    STEP_BUDGET steps."""
    if steps > STEP_BUDGET:
        raise TruncationOverflow(
            "%s needs %d steps, over the budget of %d"
            % (what, steps, STEP_BUDGET), witness=steps)
