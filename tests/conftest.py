import inspect
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


def aim_draws(draws, turn_deg, out):
    """Write into ``out``, a float array with one entry per path, the arrival
    angles that ``draws`` give turned by ``turn_deg``, and return ``out``:
    the aim alone, apart from the engine's loop, for an independent
    reference. The turn is taken as ``_aim`` takes it: a directional
    transmitter's boresight, and 0.0 under an omni one (``_steer(tx) or
    0.0``). ``out=draws.angles`` aims in the draws' own buffer and uses them
    up."""
    tangents = draws.tangents
    _aim(tangents, draws.ratios, turn_deg, out[:tangents.size].reshape(tangents.shape))
    out[tangents.size:] = draws.tail_aoa
    return out


def spy(monkeypatch, module, name, note=None):
    """Replace the function ``name`` of ``module``, for the test, with one
    that forwards each call, and return the list of its calls in the order
    they were made. Each entry is the call's arguments bound by name, with
    the defaults filled in (a dict), appended as the call is made; given
    ``note``, it is replaced once the call returns by ``note(arguments,
    result)``, which can read buffers that the next call would overwrite."""
    real = getattr(module, name)
    signature = inspect.signature(real)
    calls = []

    def forward(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        k = len(calls)
        calls.append(bound.arguments)
        result = real(*args, **kwargs)
        if note is not None:
            calls[k] = note(bound.arguments, result)
        return result

    monkeypatch.setattr(module, name, forward)
    return calls
