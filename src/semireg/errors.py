"""Exception types shared across the package."""


class SemiregError(Exception):
    """A refusal: the command line prints it as one line and exits ``exit_code``.

    Errors outside this class end a command in a traceback: they are bugs.
    """

    exit_code = 2


class ShapeError(SemiregError, ValueError):
    """Operands have incompatible or unexpected dimensions."""


class ParameterError(SemiregError, ValueError):
    """An argument value is outside its valid range."""


class NonFiniteError(SemiregError, ValueError):
    """A NaN or Inf appeared where finite values are required."""


class NonFiniteLossError(RuntimeError):
    """A non-finite loss, gradient or update aborted a step; ``components``: the losses so far."""

    def __init__(self, message: str, components: dict):
        super().__init__(message)
        self.components = components


class DivergenceError(SemiregError, RuntimeError):
    """Training diverged: non-finite losses on consecutive steps, or a non-finite result."""

    exit_code = 3

    def __init__(self, message: str, history: list):
        super().__init__(message)
        self.history = history


class StaleTraceError(RuntimeError):
    """A forward trace no longer matches the model it came from."""


class DataSchemaError(SemiregError, ValueError):
    """A data file does not match its declared schema."""


class UndefinedMetricError(SemiregError, ValueError):
    """The requested metric is undefined for this input (e.g. constant truth)."""


class UsageError(SemiregError, RuntimeError):
    """An API was called in a way its contract forbids."""


class ConfigError(SemiregError, ValueError):
    """An experiment config is invalid; message names the offending field."""
