"""Exception taxonomy shared by every module.

All errors raised on purpose derive from DoubleSpendError so callers (and the
CLI) can map them to exit codes without enumerating modules.
"""


class DoubleSpendError(Exception):
    """Base class for all package errors."""


class DomainError(DoubleSpendError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ConvergenceError(DoubleSpendError, ArithmeticError):
    """A series or iteration failed to meet its tolerance within the cap.

    Carries the best partial value so diagnostics can report how far the
    computation got.
    """

    def __init__(self, message: str, partial: float | None = None):
        super().__init__(message)
        self.partial = partial


class SingularityError(DoubleSpendError, ArithmeticError):
    """The requested point sits on a pole of the closed form."""


class UnsupportedAnalyticError(DoubleSpendError):
    """No closed form exists for these inputs; use the Monte Carlo path."""


class UndefinedExpectationError(DoubleSpendError, ArithmeticError):
    """A conditional expectation was requested on a zero-probability event."""


class CostGuardError(DoubleSpendError):
    """An exact computation was refused because its cost grows exponentially."""


class ConfigError(DoubleSpendError, ValueError):
    """A configuration file is malformed, incomplete, or has unknown keys."""


def _is_real(x: object) -> bool:
    """An int or a float, never a bool: the type test of real-number inputs."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)
