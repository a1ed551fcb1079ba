"""multiell: seedable Monte Carlo simulation of angle-of-arrival dispersion
on confocal-ellipse link geometry (see README.md)."""

from .antenna import AntennaPattern, PatternKind, draw_aod_offsets, power_gain, sigma_from_hpbw
from .engine import PathSet, ScenarioConfig, SourceKind, reweight, run_realization
from .errors import (BadAngle, BadBinWidth, BadPaths, ConfigError, EmptyProfile, InvalidDs,
                     InvalidGeometry, InvalidHpbw, KappaOutOfRange, MultiellError, NoPower,
                     ParseError, UnsortedDelays)
from .geometry import (DEGENERATE_DELAY_S, SPEED_OF_LIGHT_M_S, aoa_from_aod,
                       eccentricity_from_delay, wrap_degrees)
from .pdp import (BUILTIN_NLOS, NormalizedPdp, ScaledPdp, builtin_nlos_profile,
                  load_pdp, loads_pdp, resolve_pdp, scale_pdp)
from .scattering import VonMisesParams, sample_von_mises, von_mises_pdf
from .stats import (AngularSpectrum, SweepAxis, SweepResult, angular_spread,
                    estimate_pas, realization_pas, sweep_as)

__version__ = "0.1.0"

__all__ = [
    "AntennaPattern", "PatternKind", "draw_aod_offsets", "power_gain", "sigma_from_hpbw",
    "PathSet", "ScenarioConfig", "SourceKind", "reweight", "run_realization",
    "BadAngle", "BadBinWidth", "BadPaths", "ConfigError", "EmptyProfile", "InvalidDs",
    "InvalidGeometry", "InvalidHpbw", "KappaOutOfRange", "MultiellError", "NoPower",
    "ParseError", "UnsortedDelays",
    "DEGENERATE_DELAY_S", "SPEED_OF_LIGHT_M_S", "aoa_from_aod", "eccentricity_from_delay",
    "wrap_degrees",
    "BUILTIN_NLOS", "NormalizedPdp", "ScaledPdp", "builtin_nlos_profile", "load_pdp",
    "loads_pdp", "resolve_pdp", "scale_pdp",
    "VonMisesParams", "sample_von_mises", "von_mises_pdf",
    "AngularSpectrum", "SweepAxis", "SweepResult", "angular_spread", "estimate_pas",
    "realization_pas", "sweep_as",
    "__version__",
]
