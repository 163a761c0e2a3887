"""Exception hierarchy shared across the toolkit.

The CLI maps these onto stable exit codes: ConfigError -> 1,
DataError -> 2, NumericalError -> 3.
"""


class HybridcastError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(HybridcastError):
    """Invalid configuration, flags, or argument values (exit code 1)."""


class ParameterError(ConfigError):
    """A function argument is outside its valid range."""


class DataError(HybridcastError):
    """Problems with input data files or their contents (exit code 2)."""


class MissingInputError(DataError):
    """A required input file does not exist."""


class CsvFormatError(DataError):
    """A CSV cell or header could not be parsed; names row/column."""


class DuplicateDateError(DataError):
    """A date appears more than once in one series."""


class CoverageError(DataError):
    """An exogenous series has no overlap with the target span."""


class ScalingError(DataError):
    """A column cannot be standardized (e.g. constant on the train span)."""


class InsufficientDataError(DataError):
    """Not enough rows to build at least one training sample."""


class MapeUndefinedError(DataError):
    """MAPE is undefined because an actual value is zero.

    Carries the metrics that are still well defined.
    """

    def __init__(self, message: str, mse: float, mae: float):
        super().__init__(message)
        self.mse = mse
        self.mae = mae


class NumericalError(HybridcastError):
    """Numerical failure: singular systems, divergence, bad shapes (exit code 3)."""


class ShapeError(NumericalError):
    """Array shapes are inconsistent for the requested operation."""


class SingularityError(NumericalError):
    """A matrix that must be positive definite / full rank is not."""


class DivergenceError(NumericalError):
    """Training produced a non-finite (or absurdly large) batch loss."""

    def __init__(self, message: str, epoch: int, batch: int):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
