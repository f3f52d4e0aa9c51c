"""Exception types raised across the gridcast pipeline, and the one rule for
numeric settings. check_int and check_real take a real number (an integer
where it counts), not a bool or numpy bool, finite and in range, and return
it as the builtin int or float each config stores; a bad value raises the
caller's error class, naming the field."""

import math
import numbers


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


def _shown(value):
    """repr(value) for an error message; an int too long for repr (over
    sys.get_int_max_str_digits() digits) is shown by its digit count."""
    try:
        return repr(value)
    except ValueError:
        size = abs(value)
        # a lower bound on the digits, then counted up exactly
        digits = math.floor((size.bit_length() - 1) * math.log10(2))
        while 10**digits <= size:
            digits += 1
        return f"an int of {digits} digits"


def check_int(name, value, least, error=ConfigError):
    """int(value) if value is an integer >= least; raises error naming name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        kind = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise error(f"{name} must be {kind}, got {_shown(value)}")
    return int(value)


def check_real(name, value, lo=-math.inf, hi=math.inf, lo_open=False, error=ConfigError):
    """float(value) if value is a finite real in [lo, hi), or (lo, hi) when
    lo_open; raises error naming name. An int beyond float range fails."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int beyond float range
        x = math.nan
    if not (math.isfinite(x) and (lo < x if lo_open else lo <= x) and x < hi):
        span = f"{'(' if lo_open or lo == -math.inf else '['}{lo:g}, {hi:g})"
        raise error(f"{name} must be a finite real in {span}, got {_shown(value)}")
    return x
