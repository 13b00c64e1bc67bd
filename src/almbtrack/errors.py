"""Exception types shared across the library, and the number-and-range
check that settings from outside the program go through."""

import numbers


class ConfigurationError(ValueError):
    """Raised when model or scenario parameters are inconsistent (shape
    mismatches, probabilities outside [0, 1], unknown config keys)."""


class UsageError(ValueError):
    """Raised when an operation is called with arguments that are valid
    Python but outside the operation's contract (empty mixture, unknown
    builtin scenario name)."""


class NumericalError(ArithmeticError):
    """Raised when a computation degenerates (singular innovation
    covariance, all hypothesis weights vanishing).  Carries a
    ``diagnostics`` dict describing the failing quantity."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


def check_numbers(where, values, rules):
    """Raise ``ConfigurationError`` unless every named value is a real
    number (not a bool) that passes its rule.

    ``rules`` holds ``(names, text, ok)`` triples.  Each ``ok`` must be a
    positive comparison: those are all false for NaN, so NaN fails them.
    """
    for names, text, ok in rules:
        for name in names:
            value = values[name]
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not ok(value):
                raise ConfigurationError("%s %s must be %s, got %r"
                                         % (where, name, text, value))
