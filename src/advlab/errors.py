"""Exception types shared across the library."""


class AdvlabError(Exception):
    """Base class for all library errors."""


class ConfigError(AdvlabError, ValueError):
    """Invalid configuration value, file, or model specification."""


class ShapeError(AdvlabError, ValueError):
    """Operands with incompatible or malformed shapes."""


class NumericError(AdvlabError, ArithmeticError):
    """A computation produced non-finite values."""


class CheckpointError(AdvlabError, ValueError):
    """Unreadable, corrupt, or mismatched checkpoint data."""


class DataFormatError(AdvlabError, ValueError):
    """Malformed dataset file; ``offset`` is the failing byte position when known."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class TrainingAborted(AdvlabError, RuntimeError):
    """Training stopped early; ``checkpoint`` holds the last completed epoch, if any."""

    def __init__(self, message, checkpoint=None):
        super().__init__(message)
        self.checkpoint = checkpoint
