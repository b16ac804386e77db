"""Exception types shared across the package."""


class SpecentError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgumentError(SpecentError, ValueError):
    """A parameter lies outside its documented domain."""


class CoverageError(SpecentError):
    """The point table does not cover the window a query requires."""


class EmptyDistancesError(SpecentError):
    """There are no distances to bin."""


class DegenerateRangeError(SpecentError):
    """The distance extrema have equal logs, so the log-bin range has zero width."""


class DegenerateSpectrumError(SpecentError):
    """Every spectral magnitude is zero."""


class ConfigurationError(SpecentError):
    """A simulation configuration cannot produce usable realizations."""
