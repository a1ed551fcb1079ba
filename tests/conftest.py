import os
from pathlib import Path

import numpy as np
import pytest

import multiell
from multiell.engine import PathSet, SourceKind, _aim


# The suite's filterwarnings entries, read from pytest's configuration.
_WARNING_FILTERS: list[str] = []


def pytest_configure(config):
    _WARNING_FILTERS[:] = config.getini("filterwarnings")


def child_env():
    """Environment for a child interpreter that imports this multiell and
    turns warnings into errors as the suite does: ``PYTHONWARNINGS`` takes
    the same filters, in the same order (later ones win in both)."""
    src = str(Path(multiell.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONWARNINGS=",".join(_WARNING_FILTERS),
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_pathset(aoa_deg, power_lin):
    """PathSet with the given weighted powers (raw == weighted, all from tap 1)."""
    aoa = np.asarray(aoa_deg, dtype=float)
    p = np.asarray(power_lin, dtype=float)
    return PathSet(aoa, p, p, ((SourceKind.CLUSTER, 1, slice(0, aoa.size)),))


def aim_draws(draws, boresight_deg, out):
    """Write into ``out``, a float array with one entry per path, the arrival
    angles that ``draws`` give with the transmit beam turned to
    ``boresight_deg``, and return ``out``: the aim alone, apart from the
    engine's loop, for an independent reference. ``out=draws.angles`` aims
    in the draws' own buffer and uses them up."""
    tangents = draws.tangents
    _aim(tangents, draws.ratios, draws.relative, boresight_deg,
         out[:tangents.size].reshape(tangents.shape))
    out[tangents.size:] = draws.tail_aoa
    return out
