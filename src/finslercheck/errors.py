"""Exception types shared across the toolkit."""


class FinslerCheckError(Exception):
    """Base class for all toolkit errors."""


class NonFiniteValue(FinslerCheckError):
    """A value or derivative evaluated to NaN/inf.

    Usually signals a domain violation, e.g. sampling a unit-ball metric
    at |x| >= 1, or a negative argument reaching sqrt/log.
    """


class DegenerateMetric(FinslerCheckError):
    """det(g_ij) vanished (to tolerance) at the requested sample."""


class ConventionMismatch(FinslerCheckError):
    """A sign-normalisation check failed by more than a global sign.

    Signals an implementation bug rather than bad user input.
    """


class SelfCheckFailure(FinslerCheckError):
    """Two computations of one quantity that must agree did not.

    Like ConventionMismatch, this signals an implementation bug or a loss
    of precision, not bad user input.
    """


class NotPositive(FinslerCheckError):
    """A candidate Finsler function fails positivity on the sampled domain."""


class BadParameter(FinslerCheckError):
    """A catalogue entry or a sampler was requested with invalid parameters."""


class SingularDenominator(FinslerCheckError):
    """A closed-form denominator vanished on the requested grid point."""


class InsufficientSamples(FinslerCheckError):
    """An operation needs more samples than were supplied."""


class ParseError(FinslerCheckError):
    """Syntax error in an expression, with position and expected tokens."""

    def __init__(self, message, position, expected=()):
        self.position = position
        self.expected = tuple(expected)
        text = f"{message} at position {position}"
        if self.expected:
            text += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(text)


class ConfigError(FinslerCheckError):
    """Invalid run configuration (bad key, bad value, missing input)."""
