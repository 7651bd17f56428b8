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
    count or its coefficient slots, checked before any work, are over
    STEP_BUDGET or SLOT_BUDGET).  Carries the offending data."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# Largest number of elementary steps one kernel may take: a series
# coefficient update, or one term of a root-system pairing.  The kernels
# count their steps before any work and refuse larger jobs with
# TruncationOverflow (exit code 3) instead of running for hours.
STEP_BUDGET = 10 ** 8

# Largest number of coefficient slots one kernel may hold: an entry of a
# dense series row, each of which may end as one coefficient of the
# output.  A window at the bound with every slot nonzero peaked at
# 160 MiB (`vacuum-char --type A --rank 1 --n 1 --max-u 4 --max-q 199998`,
# 999,995 slots, CPython 3.11).  The step budget alone does not bound
# memory: it admits a window of one 10^8-entry row.
SLOT_BUDGET = 10 ** 6


def _check_budget(what, count, unit, budget):
    if count > budget:
        raise TruncationOverflow(
            "%s needs %d %s, over the budget of %d"
            % (what, count, unit, budget), witness=count)


def check_step_budget(what, steps):
    """Raise TruncationOverflow when a kernel would take more than
    STEP_BUDGET steps."""
    _check_budget(what, steps, "steps", STEP_BUDGET)


def check_slot_budget(what, slots):
    """Raise TruncationOverflow when a kernel would hold more than
    SLOT_BUDGET coefficient slots."""
    _check_budget(what, slots, "coefficient slots", SLOT_BUDGET)
