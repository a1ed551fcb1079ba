"""Command-line front end: orientation sweeps and angular-spectrum exports
as CSV, plus a listing of the bundled presets.

A scenario comes from a flat ``section.key = value`` config file or a named
preset, with ``--set key=value`` overrides; unknown keys are rejected. Every
output file echoes the resolved mapping as a ``#`` header.
"""

from __future__ import annotations

import argparse
import enum
import math
import os
import re
import sys
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np

from .antenna import AntennaPattern, PatternKind
from .engine import ScenarioConfig
from .errors import BadBinWidth, ConfigError, MultiellError
from .pdp import BUILTIN_NLOS, builtin_nlos_profile, resolve_pdp
from .presets import (ANTENNAS, DS_BY_BAND, FIG_SWEEP_DEG, TXRX_DISTANCE_M, antenna_pattern,
                      fig_presets)
from .scattering import VonMisesParams
from .stats import DEFAULT_BIN_WIDTH_DEG, DEFAULT_TRIALS, SweepAxis, realization_pas, sweep_as

ENV_SEED = "MULTIELL_SEED"

_AXIS_BY_NAME = {axis.value: axis for axis in SweepAxis}

# 277x the one-degree figure sweeps; every angle costs `trials` realizations.
_MAX_SWEEP_ANGLES = 100_000

# Rows of a CSV table formatted and written at a time: a few MB of text.
_CSV_CHUNK_ROWS = 2**16


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    if isinstance(x, enum.Enum):
        return x.value
    return str(x)


def _text(x) -> str:
    # x as a value of the resolved mapping, which the run reads back: _fmt's
    # text where a float reads back from it as itself, else its repr.
    text = _fmt(x)
    return repr(float(x)) if isinstance(x, float) and float(text) != x else text


# ---------------------------------------------------------------- config ---

# A '#' that opens a value or follows whitespace starts a comment; one inside
# a word (a file name such as run#2.pdp) does not.
_INLINE_COMMENT = re.compile(r"(?:^|\s)#.*")


def _parse_config_text(text: str, source: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MultiellError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = _INLINE_COMMENT.sub("", value).strip()
    return mapping


@dataclass(frozen=True)
class _Field:
    """How one config value is read from and written as text. ``none`` is the
    word that stands for ``None``; a ``None`` value without one is omitted."""

    parse: Callable[[str], object]
    none: str | None = None

    def read(self, text: str):
        if self.none is not None and text.lower() == self.none.lower():
            return None
        return self.parse(text)

    def write(self, value) -> str:
        return self.none if value is None else _text(value)


_PATTERN_FIELDS = {
    "kind": _Field(lambda text: PatternKind(text.lower())),
    "gain_dbi": _Field(float),
    "hpbw_deg": _Field(float),
    "boresight_deg": _Field(float),
}

# section -> field -> text form. Each key is "section.field" and names a field
# of ScenarioConfig, the tx/rx AntennaPattern or VonMisesParams; an absent key
# takes that dataclass's default.
_SCHEMA: dict[str, dict[str, _Field]] = {
    "scenario": {
        "txrx_distance_m": _Field(float),
        "ds_s": _Field(float),
        "frequency_label": _Field(str),
        "paths_per_cluster": _Field(int),
        "rice_factor_db": _Field(float, none="NLOS"),
        "seed": _Field(int),
    },
    "tx": _PATTERN_FIELDS,
    "rx": _PATTERN_FIELDS,
    "local_scattering": {
        "mu_deg": _Field(float),
        "kappa": _Field(float),
        "power_share": _Field(float, none="auto"),
    },
}

_RANGE_KEYS = ("sweep.from_deg", "sweep.to_deg", "sweep.step_deg")

# No tx.preset or rx.preset: _resolve_mapping writes each into its end's keys.
_KNOWN_KEYS = frozenset(
    {f"{section}.{name}" for section, fields in _SCHEMA.items() for name in fields}
    | {"pdp.source", "sweep.axis", *_RANGE_KEYS, "sweep.trials", "pas.bin_width_deg"})


def _value(m: dict[str, str], key: str, parse, default=None):
    """``m[key]`` parsed, or ``default`` when absent; a value that does not
    parse raises ConfigError naming its key."""
    if key not in m:
        return default
    try:
        return parse(m[key])
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {m[key]!r}") from None


def _section(m: dict[str, str], section: str) -> dict:
    """Parsed values of the keys ``m`` gives for one schema section."""
    values = {}
    for name, field in _SCHEMA[section].items():
        key = f"{section}.{name}"
        if key in m:
            values[name] = _value(m, key, field.read)
    return values


def config_to_mapping(cfg: ScenarioConfig) -> dict[str, str]:
    """The mapping that ``mapping_to_config`` turns back into ``cfg``. Raises
    ``ConfigError`` for a profile other than the bundled one, the only
    profile a ``pdp.source`` value names without a file."""
    if cfg.pdp != builtin_nlos_profile():
        raise ConfigError(f"profile {cfg.pdp.name!r} is not {BUILTIN_NLOS}, the one"
                          " pdp.source a mapping can name")
    parts = {"scenario": cfg, "tx": cfg.tx_pattern, "rx": cfg.rx_pattern,
             "local_scattering": cfg.local_scattering}
    out = {"pdp.source": BUILTIN_NLOS}
    for section, fields in _SCHEMA.items():
        for name, field in fields.items():
            value = getattr(parts[section], name)
            if value is not None or field.none is not None:
                out[f"{section}.{name}"] = field.write(value)
    return out


def mapping_to_config(m: dict[str, str]) -> ScenarioConfig:
    unknown = sorted(set(m) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    scenario = _section(m, "scenario")
    if "ds_s" not in scenario:
        raise ConfigError("scenario.ds_s is required")
    return ScenarioConfig(
        pdp=resolve_pdp(m.get("pdp.source", BUILTIN_NLOS)),
        tx_pattern=AntennaPattern(**_section(m, "tx")),
        rx_pattern=AntennaPattern(**_section(m, "rx")),
        local_scattering=VonMisesParams(**_section(m, "local_scattering")),
        **scenario,
    )


# ----------------------------------------------------------------- resolve ---

class FlagError(Exception):
    """Invalid flag combination; maps to exit status 2."""


def _resolve_mapping(args) -> dict[str, str]:
    if args.config and args.preset:
        raise FlagError("--config and --preset are mutually exclusive")
    if args.preset:
        presets = fig_presets()
        if args.preset not in presets:
            raise FlagError(f"unknown preset {args.preset!r} (see 'multiell presets')")
        sp = presets[args.preset]
        mapping = config_to_mapping(sp.config)
        mapping["sweep.axis"] = sp.axis.value
        mapping.update(zip(_RANGE_KEYS, map(_text, FIG_SWEEP_DEG)))
        mapping["sweep.trials"] = _text(DEFAULT_TRIALS)
    elif args.config:
        path = Path(args.config)
        if not path.exists():
            raise MultiellError(f"config file not found: {path}")
        mapping = _parse_config_text(path.read_text(encoding="utf-8"), str(path))
    else:
        raise FlagError("one of --config or --preset is required")
    # The variable comes after a config file's seed but before a preset's.
    if os.environ.get(ENV_SEED) and (args.preset or "scenario.seed" not in mapping):
        mapping["scenario.seed"] = os.environ[ENV_SEED]

    for item in args.set or []:
        if "=" not in item:
            raise FlagError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()

    # A flag that sets a config key has that key as its dest.
    for key, value in vars(args).items():
        if key in _KNOWN_KEYS and value is not None:
            mapping[key] = _text(value)

    # A named antenna sets its end's kind, width and gain over any given, so
    # the header echoes the beam that runs.
    for end in ("tx", "rx"):
        name = mapping.pop(f"{end}.preset", None)
        if name is not None:
            if name not in ANTENNAS:
                raise ConfigError(f"unknown antenna preset {name!r}")
            pattern = antenna_pattern(name)
            for field in ("kind", "hpbw_deg", "gain_dbi"):
                mapping[f"{end}.{field}"] = _text(getattr(pattern, field))

    # Each entry becomes one '#' line of the output header.
    for key, value in mapping.items():
        for text in (key, value):
            if text.splitlines() not in ([], [text]):
                raise ConfigError(f"{key!r}: a config key or value may not contain a line break")
    return mapping


def _write_csv(path: str, command: str, mapping: dict[str, str], *tables) -> None:
    """Write a title line, the resolved ``mapping`` as ``#`` lines, then each
    ``(heading lines, columns)`` table, one line of cells per row and one
    ``%`` per chunk of rows. The columns are equal-length 1-D arrays of
    floats or ints; ``"%.12g"`` writes a float as ``_fmt`` does
    (``format(x, ".12g")``), and ``"%s"`` an int as ``str``."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# multiell {command}\n# resolved-config\n")
        f.writelines(f"# {k} = {mapping[k]}\n" for k in sorted(mapping))
        for heading, columns in tables:
            f.writelines(f"{line}\n" for line in heading)
            fmt = ",".join("%.12g" if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
            for start in range(0, columns[0].size, _CSV_CHUNK_ROWS):
                cells = [column[start:start + _CSV_CHUNK_ROWS].tolist() for column in columns]
                f.write(fmt * len(cells[0]) % tuple(chain.from_iterable(zip(*cells))))


def _angle_list(mapping: dict[str, str]) -> list[float]:
    missing = [key for key in _RANGE_KEYS if key not in mapping]
    if missing:
        raise FlagError(f"sweep range incomplete: missing {missing[0]!r}")
    start, stop, step = (_value(mapping, key, float) for key in _RANGE_KEYS)
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0.0 or stop < start:
        raise FlagError(f"invalid sweep range [{start}, {stop}] step {step}")
    span = (stop - start) / step  # may be inf, so compared before round()
    if span > _MAX_SWEEP_ANGLES - 1:
        raise FlagError(f"sweep range [{start}, {stop}] step {step} asks for about"
                        f" {span + 1:.6g} angles; the limit is {_MAX_SWEEP_ANGLES}")
    return [start + k * step for k in range(round(span) + 1)]


# ---------------------------------------------------------------- commands ---

def cmd_sweep(args) -> int:
    mapping = _resolve_mapping(args)
    axis_name = mapping.get("sweep.axis")
    if axis_name not in _AXIS_BY_NAME:
        raise FlagError(f"--sweep {'|'.join(_AXIS_BY_NAME)} (or sweep.axis in the config)"
                        " is required")
    angles = _angle_list(mapping)
    trials = _value(mapping, "sweep.trials", int, DEFAULT_TRIALS)
    config = mapping_to_config(mapping)
    result = sweep_as(config, _AXIS_BY_NAME[axis_name], angles, trials=trials)
    # One row per (angle, trial), angle-major, as as_deg lies in memory.
    _write_csv(args.out, "sweep", mapping,
               (["alpha_t_deg,alpha_r_deg,trial,as_deg"],
                (np.repeat(result.tx_boresight_deg, trials),
                 np.repeat(result.rx_boresight_deg, trials),
                 np.tile(np.arange(trials), len(angles)), result.as_deg.ravel())),
               (["# aggregate", "angle,mean_as_deg,std_as_deg"],
                (result.angles_deg, result.mean_as_deg, result.std_as_deg)))
    return 0


def cmd_pas(args) -> int:
    mapping = _resolve_mapping(args)
    config = mapping_to_config(mapping)
    bin_width = _value(mapping, "pas.bin_width_deg", float, DEFAULT_BIN_WIDTH_DEG)
    spectrum = realization_pas(config, bin_width_deg=bin_width)
    _write_csv(args.out, "pas", mapping,
               (["angle_deg,density_per_deg"],
                (spectrum.bin_centers_deg, spectrum.density_per_deg)))
    return 0


def cmd_presets(_args=None) -> int:
    out = ["antennas:"]
    for p in ANTENNAS.values():
        out.append(f"  {p.name}: {_fmt(p.gain_dbi)} dBi, HPBW {_fmt(p.hpbw_deg)} deg, {p.band}")
    out.append("delay spreads:")
    for band in sorted(DS_BY_BAND):
        out.append(f"  UMa {band} DS {_fmt(DS_BY_BAND[band] * 1e9)} ns")
    out.append("link:")
    out.append(f"  Tx-Rx distance {_fmt(TXRX_DISTANCE_M)} m")
    out.append("sweeps:")
    for name, sp in sorted(fig_presets().items()):
        out.append(f"  {name}: {sp.description}")
    print("\n".join(out))
    return 0


# ------------------------------------------------------------------- main ---

def _add_common(sub: argparse.ArgumentParser, with_sweep: bool) -> None:
    sub.add_argument("--config", help="path to a key=value scenario file")
    sub.add_argument("--preset", help="bundled preset name (see 'multiell presets')")
    sub.add_argument("--seed", dest="scenario.seed", metavar="SEED", type=int,
                     help=f"master seed (fallback: config file, then ${ENV_SEED}, then preset)")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one resolved-config entry (repeatable)")
    sub.add_argument("--out", required=True, help="output CSV path")
    if with_sweep:
        sub.add_argument("--sweep", dest="sweep.axis", choices=tuple(_AXIS_BY_NAME),
                         help="orientation axis to sweep")
        sub.add_argument("--from", dest="sweep.from_deg", metavar="FROM_DEG", type=float,
                         help="sweep start, degrees")
        sub.add_argument("--to", dest="sweep.to_deg", metavar="TO_DEG", type=float,
                         help="sweep stop, degrees")
        sub.add_argument("--step", dest="sweep.step_deg", metavar="STEP_DEG", type=float,
                         help="sweep step, degrees")
        sub.add_argument("--trials", dest="sweep.trials", metavar="TRIALS", type=int,
                         help="realizations per sweep point")
    else:
        sub.add_argument("--bin-width", dest="pas.bin_width_deg", metavar="BIN_WIDTH",
                         type=float, help="histogram bin width in degrees (must divide 360)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiell",
        description="Monte Carlo angle-dispersion simulation on confocal-ellipse geometry")
    commands = parser.add_subparsers(dest="command", required=True)
    _add_common(commands.add_parser("sweep", help="angle spread vs antenna orientation"),
                with_sweep=True)
    _add_common(commands.add_parser("pas", help="export the power angular spectrum"),
                with_sweep=False)
    commands.add_parser("presets", help="list bundled presets")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"sweep": cmd_sweep, "pas": cmd_pas, "presets": cmd_presets}[args.command]
    try:
        return handler(args)
    except (FlagError, BadBinWidth) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MultiellError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
