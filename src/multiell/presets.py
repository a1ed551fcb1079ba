"""Bundled scenario presets: the four horn antennas of the 6 vs 60 GHz
comparison study, the urban-macro delay spreads, and the figure sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .antenna import AntennaPattern
from .engine import ScenarioConfig
from .pdp import builtin_nlos_profile
from .scattering import VonMisesParams
from .stats import SweepAxis

TXRX_DISTANCE_M = ScenarioConfig.txrx_distance_m

# Every figure sweep turns its end through the full circle in 1-degree steps
# (from, to, step), running stats.DEFAULT_TRIALS realizations per angle.
FIG_SWEEP_DEG = (-180.0, 180.0, 1.0)

# Urban-macro normal-delay rms delay spreads per carrier band.
DS_BY_BAND = {"6GHz": 363e-9, "60GHz": 228e-9}


@dataclass(frozen=True)
class AntennaPreset:
    name: str
    gain_dbi: float
    hpbw_deg: float
    band: str


ANTENNAS = {
    "A": AntennaPreset("A", 20.0, 20.0, "60GHz"),
    "B": AntennaPreset("B", 24.0, 12.0, "60GHz"),
    "C": AntennaPreset("C", 19.0, 18.0, "6GHz"),
    "D": AntennaPreset("D", 22.0, 9.0, "6GHz"),
}

# The source experiments do not publish their local-scattering inputs; these
# values are calibrated so the bundled A-D scenarios land on the documented
# angle-spread minima of the directional-receiver sweeps (see README).
SCENARIO_LOCAL_SCATTERING = VonMisesParams(mu_deg=0.0, kappa=10.0, power_share=0.22)


def antenna_pattern(name: str,
                    boresight_deg: float = AntennaPattern.boresight_deg) -> AntennaPattern:
    """Gaussian-beam pattern for one of the named horn presets A-D."""
    p = ANTENNAS[name]
    return AntennaPattern.gaussian(hpbw_deg=p.hpbw_deg, boresight_deg=boresight_deg,
                                   gain_dbi=p.gain_dbi)


def scenario(tx: str, rx: str = "same", *,
             alpha_t_deg: float = AntennaPattern.boresight_deg,
             alpha_r_deg: float = AntennaPattern.boresight_deg, seed: int = 1,
             paths_per_cluster: int = ScenarioConfig.paths_per_cluster,
             local_scattering: VonMisesParams = SCENARIO_LOCAL_SCATTERING,
             rice_factor_db: float | None = None) -> ScenarioConfig:
    """Scenario with a named Tx antenna and either the same antenna or an
    omni pattern at the receiver, on a link of ``TXRX_DISTANCE_M``. The band
    of the Tx antenna selects the delay spread."""
    tx_preset = ANTENNAS[tx]
    tx_pattern = antenna_pattern(tx, alpha_t_deg)
    if rx == "omni":
        rx_pattern = AntennaPattern.omni()
    else:
        rx_pattern = antenna_pattern(tx if rx == "same" else rx, alpha_r_deg)
    return ScenarioConfig(
        pdp=builtin_nlos_profile(),
        ds_s=DS_BY_BAND[tx_preset.band],
        tx_pattern=tx_pattern,
        rx_pattern=rx_pattern,
        paths_per_cluster=paths_per_cluster,
        local_scattering=local_scattering,
        rice_factor_db=rice_factor_db,
        seed=seed,
        frequency_label=tx_preset.band,
    )


@dataclass(frozen=True)
class SweepPreset:
    description: str
    config: ScenarioConfig
    axis: SweepAxis


@lru_cache(maxsize=1)
def fig_presets() -> dict[str, SweepPreset]:
    """Named figure-reproduction sweeps, each over ``FIG_SWEEP_DEG``.

    fig1/fig2: spread vs Tx orientation at fixed Rx (60 then 6 GHz);
    fig4/fig5: spread vs Rx orientation with the Tx turned away (180 deg);
    fig7/fig8 show a single off-axis fixed orientation (90 deg) for antenna A.
    """
    tx_axis, rx_axis = SweepAxis.TX_ORIENTATION, SweepAxis.RX_ORIENTATION
    p: dict[str, SweepPreset] = {}
    for name, fig in (("A", "fig1"), ("B", "fig1"), ("C", "fig2"), ("D", "fig2")):
        p[f"{fig}-{name}"] = SweepPreset(
            f"AS vs tx orientation, antenna {name} both ends, rx at 0 deg",
            scenario(name, "same", alpha_r_deg=0.0), tx_axis)
        p[f"{fig}-{name}-omni"] = SweepPreset(
            f"AS vs tx orientation, antenna {name} tx, omni rx",
            scenario(name, "omni"), tx_axis)
    for name, fig in (("A", "fig4"), ("B", "fig4"), ("C", "fig5"), ("D", "fig5")):
        p[f"{fig}-{name}"] = SweepPreset(
            f"AS vs rx orientation, antenna {name} both ends, tx at 180 deg",
            scenario(name, "same", alpha_t_deg=180.0), rx_axis)
        p[f"{fig}-{name}-omni"] = SweepPreset(
            f"AS vs rx orientation, antenna {name} tx at 180 deg, omni rx",
            scenario(name, "omni", alpha_t_deg=180.0), rx_axis)
    p["fig7-A"] = SweepPreset("AS vs tx orientation, antenna A both ends, rx at 90 deg",
                              scenario("A", "same", alpha_r_deg=90.0), tx_axis)
    p["fig8-A"] = SweepPreset("AS vs rx orientation, antenna A both ends, tx at 90 deg",
                              scenario("A", "same", alpha_t_deg=90.0), rx_axis)
    return p
