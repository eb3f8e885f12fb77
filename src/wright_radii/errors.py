"""Exception taxonomy shared by all modules.

Exit-code mapping used by the CLI: ParameterError and its subclasses are
usage errors (exit 2); everything else deriving from WrightRadiiError is a
numeric failure (exit 1).
"""
from __future__ import annotations


class WrightRadiiError(Exception):
    """Base class for all package errors."""


class ParameterError(WrightRadiiError, ValueError):
    """Invalid input parameters (domain violations, malformed queries)."""


class ConvergenceError(WrightRadiiError):
    """A series did not reach its certified tail within the term cap, or a
    real-axis root is not resolved to tol.

    Signals tol too small for the requested point or |z| far outside the
    supported range.
    """


class NearZeroDenominatorError(WrightRadiiError):
    """A functional's denominator, or the Janowski map's A - B v, is smaller
    than its propagated error bound."""


class ScanExhaustedError(WrightRadiiError):
    """Sign-change scan hit its step cap before finding the requested zeros.

    Usually means the parameters sit outside the real-zero regime; reported
    as a diagnostic rather than a crash.
    """


class NonIntegerWindingError(WrightRadiiError):
    """Contour count did not stabilize near an integer.

    A zero close to the contour or insufficient quadrature resolution.
    """


class MonotonicityError(WrightRadiiError):
    """Real-axis functional failed its strictly-decreasing precondition."""
