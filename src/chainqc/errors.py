"""Exception types shared across the package, and the JSON number hook
that raises one."""

import math


class ChainqcError(Exception):
    """Base class for package errors."""


class ConfigError(ChainqcError):
    """Invalid configuration or arguments (CLI exit code 2)."""


class ConvergenceError(ChainqcError):
    """A lattice sum or root bracket failed to converge (CLI exit code 3)."""


class SequenceValidationError(ChainqcError):
    """A pulse schedule violates timing constraints (CLI exit code 3).

    Carries the list of offending events in ``offenders``.
    """

    def __init__(self, message, offenders=()):
        super().__init__(message)
        self.offenders = list(offenders)


def finite_json_number(text: str) -> float:
    """json number hook: NaN, Infinity and overflowing literals are errors."""
    x = float(text)
    if not math.isfinite(x):
        raise ConfigError(f"non-finite number {text}")
    return x
