"""Exception hierarchy. Everything raised on purpose derives from JdanError."""


class JdanError(Exception):
    """Base class for all library errors."""


class ContractError(JdanError):
    """A call violated an interface contract (shape/length/argument mismatch)."""


class DomainError(JdanError):
    """Non-finite or otherwise out-of-domain numeric input."""


class EvaluationError(JdanError):
    """Numerical failure (overflow/NaN) during a network forward pass."""

    def __init__(self, message, layer=None):
        super().__init__(message)
        self.layer = layer


class DegenerateMarginalError(JdanError):
    """A marginal CDF is flat over its bounds: the model cannot normalize."""


class InversionError(JdanError):
    """Quantile inversion failed to converge; carries the final bracket."""

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class BracketError(JdanError):
    """A finite-difference stencil would leave the supported box."""


class DataError(JdanError):
    """Base class for dataset ingestion problems."""


class MissingColumnError(DataError):
    pass


class EmptyDatasetError(DataError):
    pass


class CsvParseError(DataError):
    """Unparseable cell; carries 1-based row and the column name."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class DegenerateDimensionError(DataError):
    """A target column is constant: no bounds can be fitted for it."""


class ConfigError(JdanError):
    """Invalid or incomplete run configuration."""


class NonFiniteLossError(JdanError):
    """The likelihood went non-finite; carries the offending sample index."""

    def __init__(self, message, sample_index=None):
        super().__init__(message)
        self.sample_index = sample_index


class TrainingError(JdanError):
    """Training aborted; carries the report accumulated so far, if any."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
