"""Exception hierarchy shared across the toolkit.

The CLI maps these onto stable exit codes: ConfigError -> 1,
DataError -> 2, NumericalError -> 3. A class stays only if the CLI
maps it to an exit code, the package catches it by name, or
hybridcast exports it; any other failure raises its exit code's base
class with a message that says what went wrong.
"""


class HybridcastError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(HybridcastError):
    """Invalid configuration, flags, or argument values (exit code 1)."""


class ParameterError(ConfigError):
    """A function argument is outside its valid range."""


class DataError(HybridcastError):
    """Problems with input data files or their contents (exit code 2)."""


class NumericalError(HybridcastError):
    """Numerical failure: singular systems, divergence, bad shapes (exit code 3)."""


class ShapeError(NumericalError):
    """Array shapes are inconsistent for the requested operation."""


class SingularityError(NumericalError):
    """A matrix that must be positive definite / full rank is not."""
