"""Exception hierarchy.

Everything raised on purpose by this package derives from
:class:`Replicator4Error`, so callers can catch one type at the boundary.
Subclasses double as builtin types where a builtin fits (bad input is a
``ValueError``, a rank failure is an ``ArithmeticError``) so idiomatic
``except`` clauses keep working.
"""

from __future__ import annotations


class Replicator4Error(Exception):
    """Base class for all errors raised by replicator4."""


class MatrixFormatError(Replicator4Error, ValueError):
    """Input text or JSON does not encode a 4x4 payoff matrix."""


class NotConservative(Replicator4Error, ValueError):
    """Matrix is not skew-symmetric, even after removing column shifts."""


class ZeroMatrix(Replicator4Error, ValueError):
    """All payoff entries vanish; the dynamics would be trivial."""


class RankError(Replicator4Error, ArithmeticError):
    """Null space does not have the expected dimension."""


class PreconditionFailed(Replicator4Error, ValueError):
    """Operation called outside its stated domain."""


class UnclassifiableSignPattern(Replicator4Error):
    """Sign digraph matches none of the five canonical classes.

    Attributes
    ----------
    reason : str
        ``"acyclic"`` when the digraph has no directed cycle,
        ``"unmatched"`` when it is cyclic but isomorphic to no class
        representative (such patterns admit no singular matrix).
    """

    def __init__(self, message: str, reason: str = "unmatched"):
        super().__init__(message)
        self.reason = reason


class InconsistentClass(Replicator4Error):
    """Kernel geometry disagrees with the digraph classification."""


class EmptyKernelSection(Replicator4Error):
    """Null line does not meet the open simplex."""


class StepSizeUnderflow(Replicator4Error, ArithmeticError):
    """Adaptive step fell below the representable minimum.

    The state is approaching the simplex boundary faster than the
    tolerance allows a step to resolve.

    Attributes
    ----------
    t, h : float
        Time reached and the step size that fell below the floor.
    state : ndarray or None
        Integrator state at ``t``; the replicator drivers integrate
        log-gauged shares, so ``exp(state)`` is the simplex point.
    row : int or None
        Index of the start in a batched run (None for a single run).
    """

    def __init__(self, message: str, t: float = 0.0, h: float = 0.0,
                 state=None, row: int | None = None):
        super().__init__(message)
        self.t = t
        self.h = h
        self.state = state
        self.row = row


class DriftBudgetExceeded(Replicator4Error, ArithmeticError):
    """A monitored conserved quantity drifted past its budget."""

    def __init__(self, message: str, label: str = "", drift: float = 0.0,
                 budget: float = 0.0, t: float = 0.0):
        super().__init__(message)
        self.label = label
        self.drift = drift
        self.budget = budget
        self.t = t


class EquilibriumStart(Replicator4Error, ValueError):
    """Orbit search started at (numerically) an equilibrium."""


class NoClosureFound(Replicator4Error):
    """No section return closed within tolerance inside the horizon.

    Attributes carry the best candidate seen, for diagnostics.
    """

    def __init__(self, message: str, candidate_period: float | None = None,
                 candidate_residual: float | None = None):
        super().__init__(message)
        self.candidate_period = candidate_period
        self.candidate_residual = candidate_residual


class SelectionExhausted(Replicator4Error):
    """No reference-point candidate met the transversality margin."""


class ProbeEscaped(Replicator4Error):
    """A stability probe left the acceptance tube.

    The full probe record is attached so the result is reported rather
    than silently discarded.
    """

    def __init__(self, message: str, probe=None):
        super().__init__(message)
        self.probe = probe


class PredictionViolated(Replicator4Error):
    """Simulated boundary behaviour contradicts the predicted outcome."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
