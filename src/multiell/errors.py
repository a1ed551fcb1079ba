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
    """A path power is not finite and >= 0, or the total is not positive."""


class BadAngle(MultiellError):
    """A path's arrival angle is not in [-180, 180], or the angle and power
    counts differ."""


class BadPaths(MultiellError, ValueError):
    """User paths are not 1-D float arrays whose sources tile them."""


class BadBinWidth(MultiellError):
    """Histogram bin width must be positive and divide 360 evenly."""
