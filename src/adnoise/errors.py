"""Exception hierarchy shared by all modules.

Exit-code mapping used by the command line tool:
  ConfigurationError, DomainError -> 2
  ModelError, GridError           -> 3
  NumericalError and subclasses   -> 4
"""


class AdnoiseError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(AdnoiseError):
    """Bad user input: unknown keys, units, preset names, invalid values."""


class DomainError(AdnoiseError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ModelError(AdnoiseError):
    """The physical model is not applicable to the requested inputs."""


class GridError(ModelError):
    """A discretization grid cannot support the requested computation."""


class NumericalError(AdnoiseError):
    """A numerical procedure failed to reach its accuracy target."""


class AnalysisError(NumericalError):
    """A fitting or post-processing step received unusable data."""
