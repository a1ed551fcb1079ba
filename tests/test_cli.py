import dataclasses
import hashlib
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiell.antenna import AntennaPattern
from multiell.cli import (_CSV_CHUNK_ROWS, _fmt, _resolve_mapping, _write_csv, build_parser,
                          config_to_mapping, main, mapping_to_config)
from multiell.engine import ScenarioConfig, run_realization
from multiell.errors import ConfigError
from multiell.pdp import builtin_nlos_profile, loads_pdp
from multiell.presets import SweepPreset, fig_presets
from multiell.scattering import VonMisesParams
from multiell.stats import estimate_pas, sweep_as

from conftest import child_env

SINGLE_FAR_TAP = "# name: far\n1.0 0.0\n"
README = Path(__file__).resolve().parents[1] / "README.md"


def read(path):
    return path.read_text(encoding="utf-8")


def run_cli_process(*args, timeout=60):
    """Run the CLI in a child interpreter, so a hang fails the test instead of
    stalling the suite."""
    return subprocess.run([sys.executable, "-m", "multiell.cli", *args],
                          env=child_env(), capture_output=True, text=True, timeout=timeout)


def write_config(tmp_path, pdp_text=SINGLE_FAR_TAP, **overrides):
    pdp_path = tmp_path / "profile.pdp"
    pdp_path.write_text(pdp_text, encoding="utf-8")
    entries = {
        "scenario.txrx_distance_m": "200",
        "scenario.ds_s": "1e-4",  # 30 km detour: eccentricity near zero
        "scenario.paths_per_cluster": "2000",
        "scenario.seed": "7",
        "pdp.source": str(pdp_path),
        "tx.kind": "omni",
        "rx.kind": "omni",
        "local_scattering.kappa": "0",
        "local_scattering.power_share": "0",
    }
    entries.update(overrides)
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("\n".join(f"{k} = {v}" for k, v in entries.items()) + "\n",
                   encoding="utf-8")
    return cfg


class TestPresetsCommand:
    def test_lists_antennas_and_delay_spreads(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "A: 20 dBi, HPBW 20 deg, 60GHz" in out
        assert "B: 24 dBi, HPBW 12 deg, 60GHz" in out
        assert "C: 19 dBi, HPBW 18 deg, 6GHz" in out
        assert "D: 22 dBi, HPBW 9 deg, 6GHz" in out
        assert "UMa 6GHz DS 363 ns" in out
        assert "UMa 60GHz DS 228 ns" in out
        assert "Tx-Rx distance 200 m" in out
        for name in ("fig1-A", "fig2-C", "fig4-B", "fig5-D", "fig7-A", "fig8-A"):
            assert name in out

    def test_idempotent(self, capsys):
        main(["presets"])
        first = capsys.readouterr().out
        main(["presets"])
        assert capsys.readouterr().out == first


class TestSweepCommand:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--preset", "fig4-A", "--from", "0", "--to", "20",
                "--step", "10", "--trials", "2", "--seed", "42"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_preset_fig1_has_361_aggregate_rows(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["sweep", "--preset", "fig1-A", "--trials", "1",
                     "--seed", "1", "--out", str(out)]) == 0
        lines = read(out).splitlines()
        agg = lines.index("# aggregate")
        data_rows = [l for l in lines[agg + 2:] if l and not l.startswith("#")]
        assert len(data_rows) == 361
        header = lines[agg + 1]
        assert header == "angle,mean_as_deg,std_as_deg"

    def test_row_header_and_finite_cells(self, tmp_path):
        out = tmp_path / "s.csv"
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--sweep", "rx", "--from", "0",
                     "--to", "10", "--step", "5", "--trials", "2",
                     "--out", str(out)]) == 0
        lines = read(out).splitlines()
        start = lines.index("alpha_t_deg,alpha_r_deg,trial,as_deg")
        for line in lines[start + 1:]:
            if line.startswith("#"):
                break
            cells = line.split(",")
            assert len(cells) == 4
            assert all(np.isfinite(float(c)) for c in cells)

    def test_set_override_round_trips_verbatim(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--preset", "fig4-A", "--from", "0", "--to", "5",
                     "--step", "5", "--trials", "1", "--seed", "3",
                     "--set", "local_scattering.kappa=12.5",
                     "--set", "scenario.paths_per_cluster=64",
                     "--out", str(out)]) == 0
        text = read(out)
        assert "# local_scattering.kappa = 12.5" in text
        assert "# scenario.paths_per_cluster = 64" in text
        assert "# scenario.seed = 3" in text

    def test_missing_config_file_exit_1(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        code = main(["sweep", "--config", str(missing), "--sweep", "tx",
                     "--from", "0", "--to", "1", "--step", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert str(missing) in capsys.readouterr().err

    def test_missing_axis_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["sweep", "--config", str(cfg), "--from", "0", "--to", "1",
                     "--step", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_conflicting_sources_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["sweep", "--config", str(cfg), "--preset", "fig1-A",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("bounds", [["--to", "inf"], ["--to", "nan"], ["--from=-inf"],
                                        ["--step", "inf"], ["--step", "nan"]])
    def test_non_finite_range_exit_2(self, tmp_path, capsys, bounds):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--preset", "fig4-A", "--from", "0", "--to", "10",
                     "--step", "1", *bounds, "--out", str(out)]) == 2
        assert "invalid sweep range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bounds", [["--to", "1e9", "--step", "1e-9"],
                                        ["--from=-1e308", "--to", "1e308"],
                                        ["--to", "100000"]])
    def test_angle_count_cap_exit_2(self, tmp_path, capsys, bounds):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--preset", "fig4-A", "--from", "0", "--step", "1", *bounds,
                     "--out", str(out)]) == 2
        assert "the limit is 100000" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_preset_exit_2(self, tmp_path):
        code = main(["sweep", "--preset", "fig99-Z", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        # config seed wins over env; drop it to exercise the fallback
        text = read(cfg).replace("scenario.seed = 7\n", "")
        cfg.write_text(text, encoding="utf-8")
        monkeypatch.setenv("MULTIELL_SEED", "99")
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(cfg), "--sweep", "rx", "--from", "0",
                     "--to", "0", "--step", "1", "--trials", "1",
                     "--out", str(out)]) == 0
        assert "# scenario.seed = 99" in read(out)

    @pytest.mark.parametrize("command", [["pas", "--bin-width", "90"],
                                         ["sweep", "--from", "0", "--to", "0", "--trials", "1"]])
    def test_env_seed_replaces_the_preset_seed(self, tmp_path, monkeypatch, command):
        # The preset's seed of 1 once shadowed the variable.
        name, *flags = command
        argv = [name, "--preset", "fig4-A", *flags, "--set", "scenario.paths_per_cluster=20"]
        flagged, seeded = tmp_path / "flagged.csv", tmp_path / "seeded.csv"
        assert main([*argv, "--seed", "7", "--out", str(flagged)]) == 0
        monkeypatch.setenv("MULTIELL_SEED", "7")
        assert main([*argv, "--out", str(seeded)]) == 0
        assert "# scenario.seed = 7\n" in read(seeded)
        assert seeded.read_bytes() == flagged.read_bytes()

    def test_seed_order_flag_set_config_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MULTIELL_SEED", "99")
        cfg = write_config(tmp_path)  # scenario.seed = 7
        base = ["pas", "--config", str(cfg), "--bin-width", "90"]
        for extra, seed in (([], "7"), (["--set", "scenario.seed=8"], "8"),
                            (["--set", "scenario.seed=8", "--seed", "9"], "9")):
            out = tmp_path / f"{seed}.csv"
            assert main([*base, *extra, "--out", str(out)]) == 0
            assert f"# scenario.seed = {seed}\n" in read(out)
        out = tmp_path / "preset.csv"
        assert main(["pas", "--preset", "fig4-A", "--bin-width", "90", "--set",
                     "scenario.paths_per_cluster=20", "--set", "scenario.seed=8",
                     "--out", str(out)]) == 0
        assert "# scenario.seed = 8\n" in read(out)


class TestPasCommand:
    def test_density_integrates_to_one(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "pas.csv"
        assert main(["pas", "--config", str(cfg), "--bin-width", "1",
                     "--out", str(out)]) == 0
        rows = [l for l in read(out).splitlines() if l and not l.startswith("#")]
        assert rows[0] == "angle_deg,density_per_deg"
        density = np.array([float(l.split(",")[1]) for l in rows[1:]])
        assert density.size == 360
        assert density.sum() * 1.0 == pytest.approx(1.0, abs=1e-9)

    def test_far_cluster_near_uniform(self, tmp_path):
        # eccentricity ~ 0 turns the map into the identity: uniform in, uniform out
        cfg = write_config(tmp_path, **{"scenario.paths_per_cluster": "100000"})
        out = tmp_path / "pas.csv"
        assert main(["pas", "--config", str(cfg), "--bin-width", "10",
                     "--out", str(out)]) == 0
        rows = [l for l in read(out).splitlines() if l and not l.startswith("#")][1:]
        density = np.array([float(l.split(",")[1]) for l in rows])
        assert density.max() / density.min() < 1.5

    def test_directional_rx_concentrates_mass(self, tmp_path):
        cfg = write_config(tmp_path, **{
            "scenario.paths_per_cluster": "20000",
            "rx.preset": "A",
            "rx.boresight_deg": "0",
        })
        out = tmp_path / "pas.csv"
        assert main(["pas", "--config", str(cfg), "--bin-width", "1",
                     "--out", str(out)]) == 0
        rows = [l for l in read(out).splitlines() if l and not l.startswith("#")][1:]
        angle = np.array([float(l.split(",")[0]) for l in rows])
        density = np.array([float(l.split(",")[1]) for l in rows])
        mass_near_axis = density[np.abs(angle) <= 20.0].sum()
        assert mass_near_axis > 0.9

    def test_bad_bin_width_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["pas", "--config", str(cfg), "--bin-width", "7",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("width", ["inf", "nan"])
    def test_non_finite_bin_width_exit_2(self, tmp_path, width):
        out = tmp_path / "x.csv"
        assert main(["pas", "--config", str(write_config(tmp_path)), "--bin-width", width,
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["pas", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["pas", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def written_cell_by_cell(command, mapping, *tables):
    """The CSV text of ``_write_csv`` built in memory, every cell through
    ``_fmt``; ``tables`` hold rows, not columns."""
    lines = [f"# multiell {command}", "# resolved-config"]
    lines += [f"# {k} = {mapping[k]}" for k in sorted(mapping)]
    for heading, rows in tables:
        lines += heading
        lines += (",".join(map(_fmt, row)) for row in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestCsvWriter:
    """The streaming CSV writer against a cell-by-cell ``_fmt`` reference."""

    EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, -5e-324,
                   1e300, -1e300, 1.0, -3.0, 180.0, 1e16, 123456789012.0, 2.0**53,
                   0.1, 1.0 / 3.0, 1e-5, 359.9999999999999]

    def test_percent_format_is_format(self):
        for x in self.EDGE_FLOATS:
            assert "%.12g" % x == format(x, ".12g") == _fmt(x), x

    def test_chunked_mixed_columns_equal_the_reference(self, tmp_path):
        n = 2 * _CSV_CHUNK_ROWS + 3  # two full chunks and a short one
        floats = np.resize(np.array(self.EDGE_FLOATS), n)
        ints = np.arange(-5, n - 5)
        ints[1] = 10**15  # "%s", not "%.12g", which would print 1e+15
        mapping = {"b.key": "2", "a.key": "1"}
        tables = ((["x,k,y"], (floats, ints, floats[::-1].copy())),
                  (["# empty", "z"], (np.array([]),)))
        out = tmp_path / "t.csv"
        _write_csv(str(out), "test", mapping, *tables)
        rows = list(zip(floats.tolist(), ints.tolist(), floats[::-1].tolist()))
        assert out.read_bytes() == written_cell_by_cell("test", mapping,
                                                        (["x,k,y"], rows), (["# empty", "z"], []))

    def test_sweep_equals_the_reference(self, tmp_path):
        argv = ["sweep", "--preset", "fig4-A", "--from", "0", "--to", "170", "--step", "10",
                "--trials", "3", "--seed", "5", "--set", "scenario.paths_per_cluster=100"]
        out = tmp_path / "sweep.csv"
        assert main([*argv, "--out", str(out)]) == 0
        mapping = _resolve_mapping(build_parser().parse_args([*argv, "--out", str(out)]))
        result = sweep_as(mapping_to_config(mapping), fig_presets()["fig4-A"].axis,
                          np.arange(0.0, 171.0, 10.0), trials=3)
        tx, rx = result.tx_boresight_deg.tolist(), result.rx_boresight_deg.tolist()
        rows = [(tx[j], rx[j], trial, as_deg)
                for j, spreads in enumerate(result.as_deg.tolist())
                for trial, as_deg in enumerate(spreads)]
        aggregate = zip(result.angles_deg.tolist(), result.mean_as_deg.tolist(),
                        result.std_as_deg.tolist())
        assert out.read_bytes() == written_cell_by_cell(
            "sweep", mapping, (["alpha_t_deg,alpha_r_deg,trial,as_deg"], rows),
            (["# aggregate", "angle,mean_as_deg,std_as_deg"], aggregate))

    def test_pas_of_360000_bins_equals_the_reference(self, tmp_path):
        cfg = write_config(tmp_path, **{"rx.preset": "A", "rx.boresight_deg": "30"})
        argv = ["pas", "--config", str(cfg), "--bin-width", "0.001"]
        out = tmp_path / "pas.csv"
        assert main([*argv, "--out", str(out)]) == 0
        mapping = _resolve_mapping(build_parser().parse_args([*argv, "--out", str(out)]))
        spectrum = estimate_pas(run_realization(mapping_to_config(mapping)), 0.001)
        assert spectrum.density_per_deg.size == 360_000
        rows = zip(spectrum.bin_centers_deg.tolist(), spectrum.density_per_deg.tolist())
        assert out.read_bytes() == written_cell_by_cell(
            "pas", mapping, (["angle_deg,density_per_deg"], rows))


class TestNonFiniteInputs:
    PAS = ["pas", "--preset", "fig2-C-omni"]

    def test_nan_kappa_exits_1_without_hanging(self, tmp_path):
        # the von Mises rejection loop never accepts a NaN, so this once hung
        proc = run_cli_process(*self.PAS, "--set", "local_scattering.kappa=nan",
                               "--out", str(tmp_path / "pas.csv"))
        assert proc.returncode == 1
        assert "kappa" in proc.stderr

    def test_huge_kappa_exits_1_without_hanging(self, tmp_path):
        # 4 kappa^2 overflows, the Best-Fisher constants turn NaN and the
        # rejection loop never accepts, so this once hung too
        proc = run_cli_process(*self.PAS, "--set", "local_scattering.kappa=1e200",
                               "--out", str(tmp_path / "pas.csv"))
        assert proc.returncode == 1
        assert "kappa" in proc.stderr

    def test_nan_delay_spread_exits_1(self, tmp_path, capsys):
        out = tmp_path / "pas.csv"
        assert main([*self.PAS, "--set", "scenario.ds_s=nan", "--out", str(out)]) == 1
        assert "ds_s" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_path_length_exits_0_without_warnings(self, tmp_path):
        # c * delay overflowed in the eccentricity, and numpy's warning was printed
        proc = run_cli_process(*self.PAS, "--set", "scenario.ds_s=1e300",
                               "--out", str(tmp_path / "pas.csv"))
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_infinite_distance_exits_1(self, tmp_path, capsys):
        out = tmp_path / "pas.csv"
        assert main([*self.PAS, "--set", "scenario.txrx_distance_m=inf",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "txrx_distance_m" in err and "eccentricity" not in err

    def test_distance_too_long_for_the_delays_exits_1(self, tmp_path, capsys):
        # every eccentricity rounds to 1; this once printed a 22-row array
        out = tmp_path / "pas.csv"
        assert main(["pas", "--preset", "fig4-A", "--set", "scenario.paths_per_cluster=20",
                     "--set", "scenario.txrx_distance_m=1e300", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "txrx_distance_m 1e+300" in err
        assert "[" not in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_nan_boresight_pas_exits_1(self, tmp_path, capsys):
        out = tmp_path / "pas.csv"
        assert main(["pas", "--preset", "fig4-A", "--set", "rx.boresight_deg=nan",
                     "--out", str(out)]) == 1
        assert "boresight_deg" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_boresight_sweep_exits_1(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--preset", "fig4-A", "--from", "0", "--to", "2",
                     "--step", "1", "--trials", "1", "--set", "tx.boresight_deg=nan",
                     "--out", str(out)]) == 1
        assert "boresight_deg" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["100000000", "1000000000000"])
    def test_trial_count_above_ceiling_exits_1(self, tmp_path, trials):
        # 1e12 once died in a MemoryError traceback, and 1e8 ran for hours
        out = tmp_path / "sweep.csv"
        proc = run_cli_process("sweep", "--preset", "fig4-A", "--from", "0", "--to", "2",
                               "--step", "1", "--trials", trials, "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr == f"error: trials {trials} exceeds the limit of 10000\n"
        assert not out.exists()

    @pytest.mark.parametrize("taps, setting, message", [
        ("0 0\n1 5000\n", None, "line 2: power 5000.0 dB overflows"),
        (None, "rx.hpbw_deg=1e-200", "too narrow"),
    ], ids=["profile-power", "narrow-beam"])
    def test_overflowing_input_exits_1_without_warnings(self, tmp_path, taps, setting,
                                                         message):
        # both once ran into numpy overflow warnings and "total path power is nan"
        args = ["--set", "rx.boresight_deg=0", "--set", "scenario.rice_factor_db=0"]
        if taps is not None:
            pdp = tmp_path / "profile.pdp"
            pdp.write_text(taps, encoding="utf-8")
            args += ["--set", f"pdp.source={pdp}"]
        if setting is not None:
            args += ["--set", setting]
        out = tmp_path / "pas.csv"
        proc = run_cli_process("pas", "--preset", "fig4-A", *args,
                               "--set", "scenario.paths_per_cluster=20", "--out", str(out))
        assert proc.returncode == 1
        assert message in proc.stderr
        assert "Warning" not in proc.stderr and "nan" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("taps, message", [
        ("0 0\nnan -3\n", "line 2: delay"), ("0 0\ninf -3\n", "line 2: delay"),
        ("0 0\n1 inf\n", "line 2: power"), ("0 -inf\n1 -inf\n", "zero power"),
    ])
    def test_non_finite_profile_exits_1(self, tmp_path, capsys, taps, message):
        pdp = tmp_path / "profile.pdp"
        pdp.write_text(taps, encoding="utf-8")
        out = tmp_path / "pas.csv"
        assert main(["pas", "--preset", "fig4-A", "--set", f"pdp.source={pdp}",
                     "--set", "scenario.paths_per_cluster=20", "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestFigureSweeps:
    def test_presets_carry_only_what_varies(self):
        assert [f.name for f in dataclasses.fields(SweepPreset)] == [
            "description", "config", "axis"]

    @pytest.mark.parametrize("name", sorted(fig_presets()))
    def test_every_preset_sweeps_the_full_circle(self, name):
        mapping = _resolve_mapping(build_parser().parse_args(
            ["sweep", "--preset", name, "--out", "unused.csv"]))
        assert {k: v for k, v in mapping.items() if k.startswith("sweep.")} == {
            "sweep.axis": fig_presets()[name].axis.value, "sweep.from_deg": "-180",
            "sweep.to_deg": "180", "sweep.step_deg": "1", "sweep.trials": "10"}


class TestAntennaPresetKeys:
    PAS = ["pas", "--preset", "fig4-A", "--bin-width", "10", "--seed", "2",
           "--set", "scenario.paths_per_cluster=50"]

    def test_header_echoes_the_named_beam(self, tmp_path):
        # the header once kept A's 20-degree beam while B's 12-degree beam ran
        named, spelled = tmp_path / "named.csv", tmp_path / "spelled.csv"
        assert main([*self.PAS, "--set", "tx.preset=B", "--out", str(named)]) == 0
        assert main([*self.PAS, "--set", "tx.hpbw_deg=12", "--set", "tx.gain_dbi=24",
                     "--out", str(spelled)]) == 0
        text = read(named)
        assert "# tx.hpbw_deg = 12\n" in text and "# tx.gain_dbi = 24\n" in text
        assert "tx.preset" not in text
        assert named.read_bytes() == spelled.read_bytes()

    def test_named_beam_overrides_the_end_in_a_config_file(self, tmp_path):
        named, spelled = tmp_path / "named.csv", tmp_path / "spelled.csv"
        common = {"rx.boresight_deg": "30", "scenario.paths_per_cluster": "50"}
        cfg = write_config(tmp_path, **common, **{"rx.preset": "B", "rx.hpbw_deg": "40"})
        assert main(["pas", "--config", str(cfg), "--out", str(named)]) == 0
        cfg = write_config(tmp_path, **common, **{"rx.kind": "gaussian", "rx.hpbw_deg": "12",
                                                   "rx.gain_dbi": "24"})
        assert main(["pas", "--config", str(cfg), "--out", str(spelled)]) == 0
        assert named.read_bytes() == spelled.read_bytes()

    def test_unknown_antenna_preset_exits_1(self, tmp_path, capsys):
        out = tmp_path / "pas.csv"
        assert main([*self.PAS, "--set", "rx.preset=Z", "--out", str(out)]) == 1
        assert "unknown antenna preset 'Z'" in capsys.readouterr().err
        assert not out.exists()


class TestConfigKeys:
    def test_unknown_keys_exit_1_naming_each(self, tmp_path, capsys):
        out = tmp_path / "pas.csv"
        assert main(["pas", "--preset", "fig1-A", "--set", "local_scatering.kappa=50",
                     "--set", "rx.bore_sight=3", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "local_scatering.kappa" in err and "rx.bore_sight" in err
        assert not out.exists()

    def test_unparsable_value_names_its_key(self, tmp_path, capsys):
        out = tmp_path / "pas.csv"
        assert main(["pas", "--preset", "fig1-A", "--set", "scenario.ds_s=abc",
                     "--out", str(out)]) == 1
        assert "scenario.ds_s: cannot parse 'abc'" in capsys.readouterr().err


class TestHeaderLineBreaks:
    # every character str.splitlines breaks a line on; each resolved entry
    # must stay one '#' line of the header
    BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
              "\u2029"]

    @pytest.mark.parametrize("brk", BREAKS)
    def test_set_value_with_a_line_break_exits_1(self, tmp_path, capsys, brk):
        out = tmp_path / "pas.csv"
        assert main(["pas", "--preset", "fig4-A", "--set", "scenario.paths_per_cluster=20",
                     "--set", f"scenario.frequency_label=x{brk}y", "--out", str(out)]) == 1
        assert "'scenario.frequency_label': a config key or value may not contain a line break" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("brk", ["\n", "\r", "\u2028"])
    def test_set_key_with_a_line_break_exits_1(self, tmp_path, capsys, brk):
        out = tmp_path / "pas.csv"
        assert main(["pas", "--preset", "fig4-A", "--set", f"scenario.{brk}seed=3",
                     "--out", str(out)]) == 1
        assert repr(f"scenario.{brk}seed") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("brk", BREAKS)
    def test_env_seed_with_a_line_break_exits_1(self, tmp_path, monkeypatch, capsys, brk):
        # int() would accept "7\n", and the header would end the seed's line early
        cfg = write_config(tmp_path)
        cfg.write_text(read(cfg).replace("scenario.seed = 7\n", ""), encoding="utf-8")
        monkeypatch.setenv("MULTIELL_SEED", f"7{brk}")
        out = tmp_path / "pas.csv"
        assert main(["pas", "--config", str(cfg), "--out", str(out)]) == 1
        assert "'scenario.seed': a config key or value" in capsys.readouterr().err
        assert not out.exists()


class TestConfigComments:
    def test_readme_example_runs(self, tmp_path):
        block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(block.group(1), encoding="utf-8")
        out = tmp_path / "pas.csv"
        assert main(["pas", "--config", str(cfg), "--out", str(out)]) == 0
        text = read(out)
        assert "# pdp.source = builtin:nlos3gpp\n" in text
        assert "# local_scattering.power_share = 0.22\n" in text

    def test_hash_inside_a_word_is_kept(self, tmp_path):
        pdp = tmp_path / "run#2.pdp"
        pdp.write_text(SINGLE_FAR_TAP, encoding="utf-8")
        cfg = write_config(tmp_path, **{"pdp.source": f"{pdp}  # far tap"})
        out = tmp_path / "pas.csv"
        assert main(["pas", "--config", str(cfg), "--out", str(out)]) == 0
        assert f"# pdp.source = {pdp}\n" in read(out)


def test_config_to_mapping_names_only_the_bundled_profile():
    # Another profile once came back as the bundled one, without an error.
    cfg = dataclasses.replace(fig_presets()["fig4-A"].config, pdp=loads_pdp("0 0\n1 -3\n"))
    with pytest.raises(ConfigError, match="pdp.source"):
        config_to_mapping(cfg)


def assert_round_trip(cfg):
    mapping = config_to_mapping(cfg)
    back = mapping_to_config(mapping)
    assert back == cfg
    assert config_to_mapping(back) == mapping


def written_exactly(lo, hi):
    # values that survive the header's 12 significant digits unchanged
    return st.floats(lo, hi).map(lambda x: float(format(x, ".12g")))


PATTERNS = st.one_of(
    st.builds(AntennaPattern.omni, gain_dbi=written_exactly(-30.0, 40.0)),
    st.builds(AntennaPattern.gaussian, hpbw_deg=written_exactly(0.5, 359.0),
              boresight_deg=written_exactly(-179.9, 180.0),
              gain_dbi=written_exactly(-30.0, 40.0)))

CONFIGS = st.builds(
    ScenarioConfig,
    pdp=st.just(builtin_nlos_profile()),
    ds_s=written_exactly(1e-9, 1e-5),
    tx_pattern=PATTERNS,
    rx_pattern=PATTERNS,
    txrx_distance_m=written_exactly(1.0, 1e4),
    paths_per_cluster=st.integers(1, 10**6),
    local_scattering=st.builds(
        VonMisesParams, mu_deg=written_exactly(-179.9, 180.0),
        kappa=written_exactly(0.0, 500.0),
        power_share=st.none() | written_exactly(0.0, 1.0)),
    rice_factor_db=st.none() | written_exactly(-40.0, 40.0),
    seed=st.integers(0, 2**64 - 1),
    frequency_label=st.sampled_from(["", "6GHz", "60GHz", "28GHz"]),
)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", sorted(fig_presets()))
    def test_presets(self, name):
        assert_round_trip(fig_presets()[name].config)

    @given(cfg=CONFIGS)
    @settings(max_examples=200, deadline=None)
    def test_generated_configs(self, cfg):
        assert_round_trip(cfg)


class TestPinnedOutputs:
    # sha256 of these files as written before the config keys moved into one
    # schema table; any change to the CLI's bytes must show up here. All six
    # pinned files here and in TestPinnedTxSweeps were re-recorded when the
    # local-scattering angles moved to numpy's von Mises sampler.
    SWEEP_SHA256 = "f7afb7eb8050e8a4b88823de91c6e43ee5497a29950481411f5cdc1bae2ebf15"
    PAS_SHA256 = "239de07c50fd16202d61b1eda1b4d9e5aaee0ed3df400009200b744698a416bf"
    # recorded when the omni transmitter's departures still had an array of
    # their own, apart from the arrival angles
    OMNI_TX_PAS_SHA256 = "fabd53af60207b69b9ec67e081a73a5160a475284e0c01602b047709c0e40163"
    # recorded when the spread became a centered two-pass reduction; the
    # full circle takes both wrap sides (negative boresights, 180, -180/180)
    FULL_CIRCLE_RX_SWEEP_SHA256 = (
        "2a89862df0a03e79534ba20112cb27f6a160e8ea92ae0961b3bee6326f3772e1")

    def test_sweep_bytes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--preset", "fig4-A", "--from", "0", "--to", "20",
                     "--step", "10", "--trials", "2", "--seed", "1",
                     "--set", "scenario.paths_per_cluster=30", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SWEEP_SHA256

    def test_full_circle_rx_sweep_bytes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--preset", "fig4-A", "--from=-180", "--to", "180",
                     "--step", "5", "--trials", "2", "--seed", "1",
                     "--set", "scenario.paths_per_cluster=200", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.FULL_CIRCLE_RX_SWEEP_SHA256

    def test_pas_bytes(self, tmp_path):
        out = tmp_path / "pas.csv"
        assert main(["pas", "--preset", "fig2-C-omni", "--bin-width", "10", "--seed", "1",
                     "--set", "scenario.paths_per_cluster=30",
                     "--set", "scenario.rice_factor_db=6", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PAS_SHA256

    def test_omni_tx_pas_bytes(self, tmp_path):
        out = tmp_path / "pas.csv"
        assert main(["pas", "--preset", "fig2-C-omni", "--bin-width", "10", "--seed", "1",
                     "--set", "scenario.paths_per_cluster=30",
                     "--set", "scenario.rice_factor_db=6", "--set", "tx.kind=omni",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.OMNI_TX_PAS_SHA256


class TestPinnedTxSweeps:
    # sha256 of these tx sweeps as written when every (angle, trial) point
    # still ran its own full realization; the 330-degree beam makes the
    # redraw rule fire, so some points run in full again
    TX_SWEEP_SHA256 = "a8468450a5c7e579f4cf212c666424d744b66e4ad85f21dd5ddd37d5033d5849"
    WIDE_TX_SWEEP_SHA256 = "e8f6af73ff9b143f638057d8e946eccb0e42aaae257de0e6432f6f932bbe7091"
    GRID = ["--from=-180", "--to", "180", "--step", "45", "--trials", "2",
            "--set", "scenario.paths_per_cluster=30"]

    def test_tx_sweep_bytes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--preset", "fig2-D", *self.GRID, "--seed", "1",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.TX_SWEEP_SHA256

    def test_wide_tx_sweep_bytes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--preset", "fig1-A-omni", *self.GRID, "--seed", "3",
                     "--set", "tx.hpbw_deg=330", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.WIDE_TX_SWEEP_SHA256


class TestZeroShareTwins:
    # sha256 of each pinned command above with a zero local-scattering share,
    # recorded while the von Mises sampler was still hand-written (the two
    # sweeps marked below when the spread became a centered two-pass
    # reduction). With no power on the local-scattering paths their angles
    # cannot reach the bytes, so these hold across any change to that one
    # stream.
    ZERO_SHARE = ["--set", "local_scattering.power_share=0"]
    TWINS = {
        "sweep": (["sweep", "--preset", "fig4-A", "--from", "0", "--to", "20", "--step", "10",
                   "--trials", "2", "--seed", "1", "--set", "scenario.paths_per_cluster=30"],
                  "9749fcc202aa9e8f155ae1444a505f198ce1d42b65a3cbd2ad709fa591e763bc"),
        "full-circle-rx-sweep": (
            ["sweep", "--preset", "fig4-A", "--from=-180", "--to", "180", "--step", "5",
             "--trials", "2", "--seed", "1", "--set", "scenario.paths_per_cluster=200"],
            "12648288346a7e13c9c6587ecf59e4ffc3bfdcf885e85fcb7e5efca9188526e2"),  # centered
        "pas": (["pas", "--preset", "fig2-C-omni", "--bin-width", "10", "--seed", "1",
                 "--set", "scenario.paths_per_cluster=30", "--set", "scenario.rice_factor_db=6"],
                "810f380ae698aa31fad58865275d508e9a32f45d900f2e840f6582feaada6f26"),
        "omni-tx-pas": (["pas", "--preset", "fig2-C-omni", "--bin-width", "10", "--seed", "1",
                         "--set", "scenario.paths_per_cluster=30",
                         "--set", "scenario.rice_factor_db=6", "--set", "tx.kind=omni"],
                        "71544db481d6d36251cdca587adbc7dfa0254c3d2994bf9a73383a279eb6993b"),
        "tx-sweep": (["sweep", "--preset", "fig2-D", *TestPinnedTxSweeps.GRID, "--seed", "1"],
                     "dac24bb3afae0ef19af17cdbd69f2572e40412285768b8ac9064923c59f41281"),  # centered
        "wide-tx-sweep": (["sweep", "--preset", "fig1-A-omni", *TestPinnedTxSweeps.GRID,
                           "--seed", "3", "--set", "tx.hpbw_deg=330"],
                          "e712cb24949738423a2ecbfd8e5eeaf146e7d2088d7965621418bb3bb38eac96"),
    }

    @pytest.mark.parametrize("name", sorted(TWINS))
    def test_zero_share_bytes(self, tmp_path, name):
        args, digest = self.TWINS[name]
        out = tmp_path / "out.csv"
        assert main([*args, *self.ZERO_SHARE, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestBenchmarkCommandBytes:
    # The three benchmark commands at full size, seed 1, with the sha256 of
    # each output as recorded before the angle map learned to skip its wrap
    # and its fix-up at 180 when the departures' bound rules them out. The
    # goldens above use at most 200 paths per cluster; these runs reach the
    # skip branches at every size the benchmark times. The argument lists
    # are copies of the benchmark's, kept here so the test stands alone.
    COMMANDS = {
        "rx-sweep": (["sweep", "--preset", "fig4-A", "--from", "0", "--to", "120",
                      "--step", "1", "--trials", "10",
                      "--set", "scenario.paths_per_cluster=2000"],
                     "4875ec1b5079c145fbfe924bf8619d3deb3d90508d131f3382d610ed1f12f8e4"),
        "tx-sweep": (["sweep", "--preset", "fig2-D", "--step", "5", "--trials", "10"],
                     "ae32632378c3928b95ac61e873a54a584894ab62c5f72d3d30c41bd61eecfa38"),
        "pas-dense": (["pas", "--preset", "fig2-C-omni", "--set", "scenario.rice_factor_db=6",
                       "--set", "scenario.paths_per_cluster=200000", "--bin-width", "0.1"],
                      "d568c06f69d8b171072bc6307215344ff9d87874ed7ecee677525c0c23c55b18"),
    }

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_seed_1_bytes(self, tmp_path, name):
        args, digest = self.COMMANDS[name]
        out = tmp_path / f"{name}.csv"
        assert main([*args, "--seed", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # The same commands at the benchmark's held-out seed, recorded before the
    # PAS bins were found by floor and the Rice scale moved into the draw.
    HELD_OUT_DIGESTS = {
        "rx-sweep": "d935b830205bfb7382c3f664f38f06a4048cb4f3b7ab9c057a3c0b1ebd39da04",
        "tx-sweep": "bbef69f28ec4b3dd59333860b6c4f87511fae283a57912c15c743a8b2e868171",
        "pas-dense": "e63960e87059de63b4e824d925a1715ac3d45169623933edf75e0822b364432a",
    }

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_held_out_seed_bytes(self, tmp_path, name):
        args, _ = self.COMMANDS[name]
        out = tmp_path / f"{name}.csv"
        assert main([*args, "--seed", "1803", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.HELD_OUT_DIGESTS[name]
