"""Power delay profiles: loading, delay-spread scaling, power normalization.

File format (plain text, UTF-8): an optional header line ``# name: <label>``,
then one tap per line as ``<normalized_delay> <power_db>`` separated by
whitespace. Lines starting with ``#`` are comments. Decimal floats only.
Delays are finite; a power is finite or ``-inf`` (a tap with zero power),
its linear value fits a float (below about 3082.5 dB), and at least one tap
carries power.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import EmptyProfile, InvalidDs, MultiellError, ParseError, UnsortedDelays
from .geometry import _floats, _number, _positive

BUILTIN_NLOS = "builtin:nlos3gpp"


@dataclass(frozen=True)
class NormalizedPdp:
    """Delay profile with dimensionless delays and relative powers in dB.
    ``taps`` may be (delay, power in dB) pairs of real numbers, Python or
    numpy, as lists, tuples or an array; they are kept as a tuple of pairs
    of floats."""

    name: str
    taps: tuple[tuple[float, float], ...]  # (normalized_delay, power_db)

    def __post_init__(self):
        must = "(normalized_delay, power_db) pairs of numbers"
        taps = _floats("taps", self.taps, MultiellError, must)
        if not taps.size:
            raise EmptyProfile("profile has no taps")
        if taps.ndim != 2 or taps.shape[1] != 2:
            raise MultiellError(f"taps must be {must}, got {reprlib.repr(self.taps)}")
        for i, (delay, power_db) in enumerate(taps.tolist(), start=1):
            if not math.isfinite(delay):  # a NaN passes both order checks below
                raise MultiellError(f"tap {i} delay must be finite, got {delay}")
            if not power_db < math.inf:  # NaN fails this too; -inf dB is zero power
                raise MultiellError(f"tap {i} power must be finite or -inf dB, got {power_db}")
        delays = taps[:, 0]
        if delays[0] < 0.0:
            raise UnsortedDelays("first tap delay must be >= 0")
        if (delays[1:] < delays[:-1]).any():
            raise UnsortedDelays("tap delays must be sorted ascending")
        object.__setattr__(self, "taps", tuple(map(tuple, taps.tolist())))


@dataclass(frozen=True)
class ScaledPdp:
    """Cluster list after multiplying delays by a delay spread and converting
    powers to a unit-sum linear scale."""

    excess_delays_s: np.ndarray
    powers_lin: np.ndarray


def loads_pdp(text: str, default_name: str = "pdp") -> NormalizedPdp:
    """Parse the PDP text format. See module docstring."""
    name = default_name
    taps: list[tuple[float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.lower().startswith("name:"):
                name = body[5:].strip() or name
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"expected '<normalized_delay> <power_db>', got {line!r}",
                             line=lineno)
        try:
            delay, power_db = float(fields[0]), float(fields[1])
        except ValueError:
            raise ParseError(f"not a decimal float: {line!r}", line=lineno) from None
        if not math.isfinite(delay):
            raise ParseError(f"delay must be finite, got {delay}", line=lineno)
        if delay < 0.0:
            raise ParseError(f"negative delay {delay}", line=lineno)
        if not power_db < math.inf:  # NaN fails this too; -inf dB is zero power
            raise ParseError(f"power must be finite or -inf dB, got {power_db}", line=lineno)
        try:
            10.0 ** (power_db / 10.0)
        except OverflowError:
            raise ParseError(f"power {power_db} dB overflows in linear scale",
                             line=lineno) from None
        taps.append((delay, power_db))
    if not taps:
        raise EmptyProfile("no taps found")
    if all(power_db == -math.inf for _, power_db in taps):
        raise EmptyProfile("every tap has zero power (-inf dB)")
    return NormalizedPdp(name=name, taps=tuple(taps))


def load_pdp(path: str | Path) -> NormalizedPdp:
    """Load a profile from a file path."""
    path = Path(path)
    return loads_pdp(path.read_text(encoding="utf-8"), default_name=path.stem)


@lru_cache(maxsize=1)
def builtin_nlos_profile() -> NormalizedPdp:
    """The bundled NLOS profile (3GPP TR 38.901 Table 7.7.2-2 transcription)."""
    text = resources.files("multiell.data").joinpath("nlos_3gpp.pdp").read_text("utf-8")
    return loads_pdp(text)


def resolve_pdp(source: str) -> NormalizedPdp:
    """Resolve a config ``pdp.source`` value: builtin tag or file path."""
    if source == BUILTIN_NLOS:
        return builtin_nlos_profile()
    return load_pdp(source)


def _require_delay_spread(pdp: NormalizedPdp, ds_s, error: type[Exception]) -> float:
    # ``ds_s`` as a float, finite and > 0, that keeps ``pdp``'s last tap
    # delay finite; otherwise raises ``error``.
    ds_s = _number("ds_s", ds_s, error, "finite and > 0", _positive)
    if not math.isfinite(ds_s * pdp.taps[-1][0]):
        raise error(f"ds_s {ds_s} makes the last tap's delay overflow")
    return ds_s


def scale_pdp(pdp: NormalizedPdp, ds_s: float) -> ScaledPdp:
    """Multiply normalized delays by the delay spread and normalize powers.

    Powers convert from dB to linear and are rescaled to sum to one, so the
    engine can treat cluster powers as a budget. Raises ``InvalidDs`` for a
    delay spread that is not finite and > 0 or that makes the last tap's
    delay overflow, and ``MultiellError`` when the linear total is zero or
    overflows.
    """
    ds_s = _require_delay_spread(pdp, ds_s, InvalidDs)
    delays = np.array([t[0] for t in pdp.taps], dtype=float) * ds_s
    with np.errstate(over="ignore"):  # an overflow is reported just below
        powers = 10.0 ** (np.array([t[1] for t in pdp.taps], dtype=float) / 10.0)
        total = powers.sum()
    if not 0.0 < total < math.inf:
        raise MultiellError(f"total linear profile power is {total}; it must be finite and > 0")
    powers /= total
    return ScaledPdp(excess_delays_s=delays, powers_lin=powers)
