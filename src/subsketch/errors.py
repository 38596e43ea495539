"""Exception types shared across modules."""


class DatasetFormatError(Exception):
    """Malformed dataset file; message carries the file and line number."""


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class TrainingDiverged(ArithmeticError):
    """A training step drove a true class's vote probability to 0 or made the
    loss or a gradient non-finite; the message names the fold, epoch and
    batch."""
