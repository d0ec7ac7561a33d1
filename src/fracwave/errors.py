"""Exception types raised by fracwave.

Every error the library raises deliberately derives from FracwaveError so
callers can distinguish "the math refused" from genuine bugs.
"""


class FracwaveError(Exception):
    """Base class for all errors raised on purpose by this package."""


class BackendMismatchError(FracwaveError):
    """Operation requires a capability the chosen backend does not have."""


class BackendCapError(FracwaveError):
    """Requested time exceeds the trust horizon of the grid backend."""


class ValidityError(FracwaveError):
    """Evaluation requested outside a bound's validity region (e.g. t <= 1 for log laws)."""


class WrongRegimeError(FracwaveError):
    """Power-law bounds requested for an order s where only log bounds apply."""


class InfeasibleThresholdError(FracwaveError):
    """No admissible splitting angle exists for the requested sine threshold.

    Carries the supremum of feasible angles in ``feasible_sup``.
    """

    def __init__(self, message, feasible_sup):
        super().__init__(message)
        self.feasible_sup = feasible_sup


class DivergenceError(FracwaveError):
    """A singular integral was detected to diverge at the origin."""


class PreconditionError(FracwaveError):
    """An inequality's hypothesis is violated; the message names the failed condition."""


class NumericalFailureError(FracwaveError):
    """Quadrature did not converge; the message carries diagnostics."""


class SeriesError(FracwaveError, ValueError):
    """A norm series, fit or sandwich scan got unusable inputs (bad grid, zero data)."""


class ConventionError(FracwaveError):
    """Mismatched norm conventions (raw-transform level vs physical level)."""


class ConfigError(FracwaveError):
    """Experiment configuration could not be parsed or validated."""
