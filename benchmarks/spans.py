"""Span recorder for the traced benchmark run.

The recorder measures the package from outside: it wraps every public
function of each layer module and rebinds the wrapper under every name that
refers to the original in any ``multiell`` module namespace (for example
``engine.sample_aod``, ``geometry.wrap_degrees`` and ``stats.run_realization``),
so calls made through a module's globals are recorded too. Nothing under
``src/`` is changed; :meth:`Recorder.uninstall` puts every original back.

Each call becomes one span ``(name, start, end, parent)`` kept in memory.
A span's self time is its duration minus the time covered by its child
spans; spans nest strictly (one thread), so the self times of all spans sum
to the duration of the root span.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import sys
import time
from collections import defaultdict

PACKAGE = "multiell"
LAYERS = ("cli", "presets", "pdp", "stats", "engine", "geometry", "antenna", "scattering")
REALIZATION = "engine.run_realization"


def package_modules():
    """Loaded modules of the package, the package itself included."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def clear_caches() -> None:
    """Empty every ``functools`` cache in the package, so each in-process
    call pays the cold cost a fresh CLI process pays."""
    for mod in package_modules():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def layer_functions() -> dict[str, object]:
    """``layer.name`` -> public function defined in that layer module."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"{PACKAGE}.{layer}")
        if mod is None:
            continue
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                found[f"{layer}.{name}"] = obj
    return found


class Recorder:
    """Install span-recording wrappers, collect spans, restore originals."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # (config, generator state on entry) per run_realization call
        self._realizations: list[tuple[object, object]] = []

    def install(self) -> None:
        by_id = {}
        for name, fn in layer_functions().items():
            by_id[id(fn)] = self._wrap(name, fn)
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = self._realization_noter(fn) if name == REALIZATION else None

        def wrapper(*args, **kwargs):
            if note is not None:
                note(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        wrapper.__wrapped__ = fn
        if hasattr(fn, "cache_clear"):
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _realization_noter(self, fn):
        sig = inspect.signature(fn)
        realizations = self._realizations

        def note(args, kwargs):
            bound = sig.bind_partial(*args, **kwargs).arguments
            rng = bound.get("rng")
            state = None if rng is None else rng.bit_generator.state
            realizations.append((bound.get("config"), state))

        return note

    def raw_reuse_ratio(self) -> float:
        """Distinct receiver-independent realizations per call: a call is keyed
        by its config without ``rx_pattern`` plus the generator state on entry.
        0 when the function was never called."""
        if not self._realizations:
            return 0.0
        keys = {(repr(dataclasses.replace(cfg, rx_pattern=None)), repr(state))
                for cfg, state in self._realizations}
        return len(keys) / len(self._realizations)

    def profile(self) -> dict[str, dict]:
        """Per span name: call count, self seconds and inclusive durations."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": []})
        for (name, start, end, _), covered in zip(spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered
            entry["durations"].append(end - start)
        return dict(out)

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path) -> None:
        """Write the spans as CSV: index, name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


def exists(key: str) -> bool:
    """Whether ``layer`` or ``layer.function`` is present in the package."""
    layer, _, func = key.partition(".")
    mod = sys.modules.get(f"{PACKAGE}.{layer}")
    return mod is not None and (not func or callable(getattr(mod, func, None)))
