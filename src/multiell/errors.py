"""Exception types raised by the multiell package."""


class MultiellError(Exception):
    """Base class for all multiell errors."""


class InvalidGeometry(MultiellError):
    """Link geometry is unusable (e.g. non-positive Tx-Rx distance)."""


class InvalidHpbw(MultiellError):
    """Half-power beamwidth outside (0, 360) degrees."""


class ParseError(MultiellError):
    """A text input could not be parsed. Carries the 1-based line number."""

    def __init__(self, message, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnsortedDelays(MultiellError):
    """Profile taps are not sorted by ascending normalized delay."""


class EmptyProfile(MultiellError):
    """Profile contains no taps."""


class InvalidDs(MultiellError):
    """Delay spread is not finite and positive, or overflows the last tap's delay."""


class KappaOutOfRange(MultiellError):
    """von Mises concentration too large for stable evaluation."""


class ConfigError(MultiellError):
    """Scenario configuration violates an invariant."""


class NoPower(MultiellError):
    """All path weights are zero; statistics are undefined."""


class BadAngle(MultiellError):
    """A path's arrival angle is not a finite number in [-180, 180] degrees,
    or the paths hold a different count of angles than of powers."""


class BadBinWidth(MultiellError):
    """Histogram bin width must be positive and divide 360 evenly."""
