"""Exception types shared across modules."""


class DatasetFormatError(Exception):
    """Malformed dataset file; message carries the file and line number."""


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class TrainingDiverged(ArithmeticError):
    """A training step made the loss, the epoch's loss sum or a gradient
    non-finite; the message names the fold, epoch and batch."""


class ScoresNotFinite(ArithmeticError):
    """A model gave a graph a class distribution that is not finite; the
    message names the graph."""
