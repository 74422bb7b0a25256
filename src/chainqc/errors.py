"""Exception types shared across the package, the base of the records that
check their fields, the JSON number rules that both loaders use, and the
canonical JSON writer."""

import json
import math
import sys


class ChainqcError(Exception):
    """Base class for package errors."""


class ConfigError(ChainqcError):
    """Invalid configuration or arguments (CLI exit code 2)."""


class ConvergenceError(ChainqcError):
    """A root bracket or a field evaluation failed (CLI exit code 3)."""


class SequenceValidationError(ChainqcError):
    """A pulse schedule violates timing constraints (CLI exit code 3).

    Carries the list of offending events in ``offenders``.
    """

    def __init__(self, message, offenders=()):
        super().__init__(message)
        self.offenders = list(offenders)


class Checked:
    """Base of a NamedTuple record that checks its fields wherever one is
    built: ``class R(Checked, _RFields)``, with R's ``_check`` raising
    ConfigError.  The constructor runs it, and so do ``_make`` and
    ``_replace``, which namedtuple builds through tuple.__new__."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        self = super()._make(iterable)
        self._check()
        return self


def finite_json_number(text: str) -> float:
    """json number hook: NaN, Infinity and overflowing literals are errors."""
    x = float(text)
    if not math.isfinite(x):
        raise ConfigError(f"non-finite number {text}")
    return x


def is_number(x) -> bool:
    """A finite float or an integer within float range (true is neither)."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def canonical_json(obj) -> str:
    """Canonical JSON text: sorted keys, minimal separators, a trailing
    newline; a non-finite float raises ValueError."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"
