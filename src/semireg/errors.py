"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible or unexpected dimensions."""


class ParameterError(ValueError):
    """An argument value is outside its valid range."""


class NonFiniteError(ValueError):
    """A NaN or Inf appeared where finite values are required."""


class NonFiniteLossError(RuntimeError):
    """A training step produced a non-finite loss; no update was applied."""

    def __init__(self, message: str, components: dict):
        super().__init__(message)
        self.components = components


class DivergenceError(RuntimeError):
    """Training diverged: non-finite losses on consecutive steps, or a non-finite result."""

    def __init__(self, message: str, history: list):
        super().__init__(message)
        self.history = history


class StaleTraceError(RuntimeError):
    """A forward trace no longer matches the model it came from."""


class DataSchemaError(ValueError):
    """A data file does not match its declared schema."""


class UndefinedMetricError(ValueError):
    """The requested metric is undefined for this input (e.g. constant truth)."""


class UsageError(RuntimeError):
    """An API was called in a way its contract forbids."""


class ConfigError(ValueError):
    """An experiment config is invalid; message names the offending field."""
