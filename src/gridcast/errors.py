"""Exception types raised across the gridcast pipeline."""


class GridcastError(Exception):
    """Base class for all gridcast errors."""


class CsvParseError(GridcastError):
    """Malformed row, unknown header, or bad value in an input CSV."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class OrderingError(GridcastError):
    """Timestamps out of order or duplicated."""


class AlignmentError(GridcastError):
    """Load and weather series have no overlapping hours."""


class ImputationError(GridcastError):
    """A column cannot be imputed (e.g. entirely missing)."""


class CalibrationError(GridcastError):
    """Envelope or tolerance fit failed (empty segment, rank deficiency)."""


class StandardizerError(GridcastError):
    """Zero-variance or NaN-holding column, or standardizer misuse."""


class WindowError(GridcastError):
    """Split too short to form any window, or window misalignment."""


class ConfigError(GridcastError):
    """Invalid model or run configuration."""


class ShapeError(GridcastError):
    """Tensor shape incompatible with a layer or operation."""


class ArtifactError(GridcastError):
    """Unreadable, truncated or corrupted artifact file, such as a checkpoint."""
