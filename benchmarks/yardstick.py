"""Gauges how fast the host runs while the benchmark's calls run.

On a shared host the same CLI call runs in a fast or a slow state, 1.35x to
1.8x apart, which switches every second or so in some periods and holds for
minutes in others. Process CPU time slows down with wall time, so it cannot
tell the states apart. A ``Yardstick`` therefore runs a tiny fixed kernel
from a background thread every ``INTERVAL_S`` while the calls run, on the
same CPU, and ``scale`` turns a call's wall time into reference seconds: the
wall time times ``NOMINAL_S`` over the kernel's mean time inside the call.
A change to the package changes the call but not the kernel, so the product
keeps what the change did and drops most of what the host did.

The kernel does the kind of work the workloads do, in two parts. The array
part runs von Mises draws, degree wrapping, trigonometry, a Gaussian weight
and a weighted histogram on 2,000-element arrays. The interpreter part makes
many tiny numpy calls and plain Python steps, as the sweeps' per-realization
loops do. A slow host state slows interpreter-bound code more than array
loops: the array part alone left a third of the slowdown of ``rx-sweep``
calls in, and the interpreter part alone over-corrected ``pas-dense``. The
kernel uses numpy only and never the package, so no change under ``src/``
alters it. It is timed in thread CPU time, so waiting for the GIL or for the
CPU it shares with the calls does not count; a slow host state does, as it
slows the instructions themselves.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

INTERVAL_S = 0.05  # the kernel costs the calls about 3% of their time
SIZE = 2000
STEPS = 100
NOMINAL_S = 1.5e-3  # the kernel's CPU time on a calm 2-vCPU Xeon VM


def _kernel_seconds() -> float:
    rng = np.random.default_rng(0)  # the same draws, so the same work, every time
    start = time.thread_time()
    deg = np.degrees(rng.vonmises(0.0, 2.0, SIZE))
    rad = np.radians(np.mod(deg + 217.0, 360.0) - 180.0)
    aoa = np.degrees(np.arctan2(0.6 * np.sin(rad), np.cos(rad) + 0.3))
    gain = np.exp(-0.5 * (aoa / 9.0) ** 2)
    np.histogram(aoa, bins=360, range=(-180.0, 180.0), weights=gain)
    small, total = deg[:64], 0.0
    for step in range(STEPS):
        wrapped = np.mod(small + (step + 180.0), 360.0) - 180.0
        total += float(np.where(wrapped < 0.0, -wrapped, wrapped).sum())
        record = {"step": step, "total": total}
        total += 0.5 * record["step"] - len(str(step))
    return time.thread_time() - start


class Yardstick:
    """Samples the kernel from a thread for the duration of a ``with`` block."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            cpu = _kernel_seconds()
            self.samples.append((time.perf_counter(), cpu))

    def __enter__(self) -> "Yardstick":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second between two ``perf_counter``
        readings."""
        inside = [cpu for t, cpu in self.samples if start < t <= end]
        if not inside:  # a window shorter than INTERVAL_S: the nearest sample
            inside = [min(self.samples, key=lambda sample: abs(sample[0] - end))[1]]
        return NOMINAL_S / statistics.fmean(inside)
