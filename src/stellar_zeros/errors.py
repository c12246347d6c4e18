"""Exception types shared across the package."""


class StellarZerosError(Exception):
    """Base class for all package-specific errors."""


class ZeroVector(StellarZerosError):
    """Normalization requested for a vector with (numerically) zero norm."""


class InvalidParameter(StellarZerosError):
    """A parameter violates a documented precondition."""


class CutoffTooSmall(StellarZerosError):
    """Fock-space truncation discards more norm than allowed."""


class PrecisionLoss(StellarZerosError):
    """An evaluation cannot meet its accuracy contract at this cutoff."""


class NoConvergence(StellarZerosError):
    """Computed roots fail their residual bound; carries the roots and residuals."""

    def __init__(self, message, roots=None, residuals=None):
        super().__init__(message)
        self.roots = roots
        self.residuals = residuals


class ZeroCollision(StellarZerosError):
    """Two tracked zeros came closer than the collision threshold."""

    def __init__(self, message, t_estimate=None):
        super().__init__(message)
        self.t_estimate = t_estimate


class StepFailure(StellarZerosError):
    """Adaptive step size underflowed."""


class DegenerateInitialZeros(StellarZerosError):
    """Initial zeros are not pairwise distinct."""


class TrackingAmbiguity(StellarZerosError):
    """Zero matching between samples cannot be decided.

    Raised when the tracker's step refinement reaches its 1e-9 width cap
    with the largest matched displacement still at least half the smallest
    zero gap (as at an exact collision on the sampling grid); ``t``, ``gap``
    and ``displacement`` describe the unresolved step.
    """

    def __init__(self, message, t=None, gap=None, displacement=None):
        super().__init__(message)
        self.t = t
        self.gap = gap
        self.displacement = displacement


class TruncationLeakage(StellarZerosError):
    """Evolved state lost norm past the rows it was asked for."""


class CountMismatch(StellarZerosError):
    """A Fock vector has no stellar frame of the expected rank (its zero count differs)."""
