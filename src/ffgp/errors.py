"""Shared exception types."""


class FfgpError(Exception):
    """Base class for library errors."""


class DimensionError(FfgpError, ValueError):
    """A size/shape precondition was violated (non power-of-two length, bad d, ...)."""


class DomainError(FfgpError, ValueError):
    """A numeric argument fell outside its mathematical domain."""


class DegenerateSpectrumError(FfgpError, ValueError):
    """A spectrum has zero mass or otherwise cannot be normalized."""


class IllConditionedError(FfgpError, ArithmeticError):
    """A linear solve failed even after jitter escalation."""


class ParseError(FfgpError, ValueError):
    """A data file could not be parsed."""


class InsufficientDataError(FfgpError, ValueError):
    """Too few (or too degenerate) data points for the requested operation."""


class OptimizationFailureError(FfgpError, RuntimeError):
    """Every restart diverged.  best_hyper is restart 0's starting hyper vector
    (no restart reached a finite iterate) and best_value is inf."""

    def __init__(self, message, best_hyper=None, best_value=None):
        super().__init__(message)
        self.best_hyper = best_hyper
        self.best_value = best_value
