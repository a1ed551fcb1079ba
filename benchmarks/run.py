"""End-to-end and per-layer benchmark of the multiell CLI.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload rx-sweep --seed 1 --seconds 30 --trace 0

Each workload is one ``multiell`` CLI invocation, run in-process through
``multiell.cli.main([...])`` again and again for ``--seconds`` seconds, one
call at a time. Every output file is checked (see ``check_output``) and
hashed; all calls of a run, and one direct ``python -m multiell.cli``
subprocess with the same arguments, must produce the same bytes.

While the calls and the set-up batch run, a yardstick (``yardstick.py``)
gauges the host's speed, and times are reported in its reference seconds.
``--trace 0`` reports the end-to-end metrics: ``paths_per_s`` (the
paths of one call over the median call time), ``setup_s`` (median over fresh
interpreters that import the CLI and resolve the workload into a
``ScenarioConfig``) and ``peak_rss_mb`` (of the direct CLI subprocess).
``--trace 1`` adds one call with span-recording wrappers installed
(``spans.py``) and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units come from ``BENCHMARK.json``. Lines before it give the same figures for
people, plus ``fail_frac``, the digest and the environment. Full results, and
the spans of a traced run, are written under ``benchmarks/out/``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import spans
from yardstick import Yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_SOURCE = SRC / "multiell" / "cli.py"
OUT = ROOT / "benchmarks" / "out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 1803  # kept for verifying claims; not used while tuning a change
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150.0

# Geometric (non-zero-delay) taps of the bundled 3GPP NLOS profile; each
# realization draws paths_per_cluster paths per geometric tap plus as many
# local-scattering paths, plus one direct path under a Rice factor.
GEOMETRIC_TAPS = 22


def _paths_per_realization(paths_per_cluster: int, los: bool) -> int:
    return (GEOMETRIC_TAPS + 1) * paths_per_cluster + int(los)


# name -> CLI arguments (without --seed/--out) and the path count the output
# represents. Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "rx-sweep": {
        "argv": ["sweep", "--preset", "fig4-A", "--from", "0", "--to", "120", "--step", "1",
                 "--trials", "10", "--set", "scenario.paths_per_cluster=2000"],
        "rows": 121 * 10,
        "paths": 121 * 10 * _paths_per_realization(2000, los=False),
    },
    "tx-sweep": {
        "argv": ["sweep", "--preset", "fig2-D", "--step", "5", "--trials", "10"],
        "rows": 73 * 10,
        "paths": 73 * 10 * _paths_per_realization(500, los=False),
    },
    "pas-dense": {
        "argv": ["pas", "--preset", "fig2-C-omni", "--set", "scenario.rice_factor_db=6",
                 "--set", "scenario.paths_per_cluster=200000", "--bin-width", "0.1"],
        "bin_width": 0.1,
        "paths": _paths_per_realization(200000, los=True),
    },
}

# Resolves the workload the way the CLI does, in a fresh interpreter.
SETUP_SCRIPT = """\
import sys
from multiell import cli
args = cli.build_parser().parse_args(sys.argv[1:])
cli.mapping_to_config(cli._resolve_mapping(args))
"""


class CheckFailed(Exception):
    """An output file failed a correctness check."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # Children cache bytecode, as an installed package has it, so set-up
    # time does not depend on whether the caller's environment disables it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def check_output(path: Path, workload: dict, seed: int) -> str:
    """Check one CLI output file and return its sha256."""
    data = path.read_bytes()
    lines = data.decode("utf-8").splitlines()
    if f"# scenario.seed = {seed}" not in lines:
        raise CheckFailed(f"{path.name}: header does not echo seed {seed}")
    if "rows" in workload:
        start = lines.index("alpha_t_deg,alpha_r_deg,trial,as_deg") + 1
        rows = lines[start:lines.index("# aggregate")]
        if len(rows) != workload["rows"]:
            raise CheckFailed(f"{path.name}: {len(rows)} rows, expected {workload['rows']}")
        for row in rows:
            as_deg = float(row.rsplit(",", 1)[1])
            if not (math.isfinite(as_deg) and 0.0 <= as_deg <= 180.0):
                raise CheckFailed(f"{path.name}: as_deg {as_deg} outside [0, 180]")
    else:
        start = lines.index("angle_deg,density_per_deg") + 1
        width = workload["bin_width"]
        densities = [float(row.split(",")[1]) for row in lines[start:]]
        if len(densities) != round(360.0 / width):
            raise CheckFailed(f"{path.name}: {len(densities)} bins, expected {360.0 / width:g}")
        mass = math.fsum(densities) * width
        if not abs(mass - 1.0) <= 1e-9:
            raise CheckFailed(f"{path.name}: spectrum mass {mass!r} is not 1")
    return hashlib.sha256(data).hexdigest()


def run_child(argv: list[str]) -> tuple[int, float, float]:
    """Run one Python child; its exit code, wall seconds and peak RSS in MB.

    The wait blocks in ``os.wait4``: ``subprocess`` waits with a timeout poll
    in steps of up to 50 ms, which would quantize the wall times.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def measure_setup(argv: list[str]) -> list[float]:
    """Wall times of fresh interpreters that resolve the workload's config."""
    times = []
    for _ in range(SETUP_REPEATS):
        status, wall, _ = run_child(["-c", SETUP_SCRIPT, *argv])
        if status != 0:
            raise RuntimeError(f"set-up child exited with status {status}")
        times.append(wall)
    return times


class Runner:
    """Runs one workload's CLI calls and tallies attempts and failures."""

    def __init__(self, name: str, seed: int):
        from multiell import cli

        self.cli = cli
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.argv = [*self.workload["argv"], "--seed", str(seed)]
        self.out = OUT / f"{name}.csv"
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()

    def _record(self, path: Path, status: int) -> bool:
        self.attempted += 1
        try:
            if status != 0:
                raise CheckFailed(f"CLI exit status {status}")
            self.digests.add(check_output(path, self.workload, self.seed))
            return True
        except (CheckFailed, OSError, ValueError) as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            self.failed += 1
            return False

    def call(self) -> tuple[float, float] | None:
        """One in-process ``main`` call; its start and end ``perf_counter``
        readings, or None if it failed."""
        spans.clear_caches()
        start = time.perf_counter()
        try:
            status = self.cli.main([*self.argv, "--out", str(self.out)])
        except Exception:  # a crash is a failed run, not a harness error
            traceback.print_exc()
            status = -1
        end = time.perf_counter()
        return (start, end) if self._record(self.out, status) else None

    def timed_calls(self, seconds: float) -> list[tuple[float, float]]:
        windows = []
        deadline = time.perf_counter() + seconds
        while True:
            window = self.call()
            if window is not None:
                windows.append(window)
            if time.perf_counter() >= deadline:
                return windows

    def direct_cli(self) -> float:
        """Run the same workload as a CLI subprocess; its peak RSS in MB."""
        path = OUT / f"{self.out.stem}-cli.csv"
        status, _, rss_mb = run_child(["-m", "multiell.cli", *self.argv, "--out", str(path)])
        self._record(path, status)
        return rss_mb


def layer_metrics(rec: spans.Recorder, profile: dict, names: list[str], traced_s: float,
                  untraced_s: float, bytes_written: int) -> tuple[dict, list[str]]:
    """Per-layer metric values from one traced call, plus the absent names."""
    values, absent = {}, []
    for metric in names:
        key, _, stat = metric.rpartition(".")
        owner = {"engine.raw_reuse_ratio": spans.REALIZATION}.get(metric, key)
        if key != "trace" and not spans.exists(owner):
            values[metric] = 0
            absent.append(metric)
        elif metric == "trace.overhead_s":
            values[metric] = traced_s - untraced_s
        elif metric == "trace.root_s":
            values[metric] = rec.root_seconds()
        elif metric == "engine.raw_reuse_ratio":
            values[metric] = rec.raw_reuse_ratio()
        elif metric == "cli.bytes_written":
            values[metric] = bytes_written
        elif "." not in key:  # a layer's total over its functions
            values[metric] = sum(v["self_s"] for k, v in profile.items()
                                 if k.startswith(key + "."))
        else:
            entry = profile.get(key, {"calls": 0, "self_s": 0.0, "durations": []})
            if stat in ("p50_ms", "p99_ms"):
                q = 0.5 if stat == "p50_ms" else 0.99
                values[metric] = 1e3 * spans.percentile(entry["durations"], q)
            else:
                values[metric] = entry[stat]
    return values, absent


def traced_call(runner: Runner) -> tuple[spans.Recorder, tuple[float, float] | None]:
    rec = spans.Recorder()
    rec.install()
    try:
        window = runner.call()
    finally:
        rec.uninstall()
    return rec, window


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed, passed to the CLI (held-out seed: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the in-process calls are repeated")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Calls, children and yardstick samples share one CPU, so the samples
    # gauge the host state the calls ran in.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    spec_path = ROOT / "BENCHMARK.json"
    if not CLI_SOURCE.is_file() or not spec_path.is_file():
        print(f"error: {CLI_SOURCE} or {spec_path} not found; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import numpy

    OUT.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed)
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "platform": platform.platform()}

    rss_mb = runner.direct_cli()
    with Yardstick() as stick:
        windows = runner.timed_calls(args.seconds)
        if args.trace:
            rec, traced_window = traced_call(runner)
        else:
            setup_start = time.perf_counter()
            setup = measure_setup([*runner.argv, "--out", str(OUT / "setup.csv")])
            setup_scale = stick.scale(setup_start, time.perf_counter())
    walls = [end - start for start, end in windows]
    scales = [stick.scale(start, end) for start, end in windows]
    ref_times = [wall * scale for wall, scale in zip(walls, scales)]
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "calls": [{"wall_s": wall, "scale": scale} for wall, scale in zip(walls, scales)],
              "yardstick_samples": len(stick.samples)}
    absent: list[str] = []
    self_sum_ok = True
    if args.trace:
        traced_ref = ((traced_window[1] - traced_window[0]) * stick.scale(*traced_window)
                      if traced_window else 0.0)
        profile = rec.profile()
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, absent = layer_metrics(
            rec, profile, names, traced_ref,
            statistics.median(ref_times) if ref_times else 0.0,
            runner.out.stat().st_size if runner.out.exists() else 0)
        self_total = sum(v["self_s"] for v in profile.values())
        root = rec.root_seconds()
        self_sum_ok = abs(self_total - root) <= 1e-6 * max(1.0, root)
        result["profile"] = {k: {"calls": v["calls"], "self_s": v["self_s"]}
                             for k, v in sorted(profile.items())}
        result["absent"] = absent
        rec.write(OUT / f"{args.workload}-seed{args.seed}-spans.csv")
        print(f"spans: {len(rec.spans)}, self times sum to {self_total:.6f} s, "
              f"root span {root:.6f} s")
    else:
        result["setup"] = {"wall_s": setup, "scale": setup_scale}
        values = {"paths_per_s": runner.workload["paths"] / statistics.median(ref_times)
                  if ref_times else 0.0,
                  "setup_s": statistics.median(setup) * setup_scale,
                  "peak_rss_mb": rss_mb}
        result["wall_clock"] = {
            "paths_per_s": runner.workload["paths"] / statistics.median(walls) if walls else 0.0,
            "setup_s": statistics.median(setup)}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    correct = runner.failed == 0 and len(runner.digests) == 1 and self_sum_ok
    fail_frac = runner.failed / runner.attempted
    result.update(digests=sorted(runner.digests), attempted=runner.attempted,
                  failed=runner.failed, metrics=values)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"threads=1 calls={len(walls)}")
    print(f"workload {args.workload} seed {args.seed}: sha256 {', '.join(sorted(runner.digests))}")
    if len(runner.digests) > 1:
        print("error: outputs differ between calls", file=sys.stderr)
    if not self_sum_ok:
        print("error: span self times do not sum to the root span", file=sys.stderr)
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}{'  (absent)' if name in absent else ''}")
    if "wall_clock" in result:
        print("wall-clock, not corrected for host speed: paths_per_s = "
              f"{result['wall_clock']['paths_per_s']:.6g} 1/s, "
              f"setup_s = {result['wall_clock']['setup_s']:.6g} s")
    print(f"fail_frac = {fail_frac:.6g} ratio  ({runner.failed} of {runner.attempted} runs)")
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
