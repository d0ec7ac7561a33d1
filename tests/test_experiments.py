"""Experiment configs, runners, file outputs, CLI contract."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from fracwave import GridBackend, GridSpec, cli, experiments
from fracwave.cli import main
from fracwave.errors import ConfigError
from fracwave.experiments import (ExperimentConfig, canonical_text, map_times,
                                  parse_config, run_energy, run_lemmas,
                                  run_rates, run_sandwich, run_solve,
                                  write_svg_plot)
from fracwave.profiles import CompactBump, Gaussian, GaussianDerivative

SANDWICH_CFG = """
# power-law sandwich at desk scale
experiment = sandwich-smoke
s = 0.75
u0 = none
u1 = gaussian a=1 sigma=1 c=0
t_grid = log 1e2 1e4 12
backend = quadrature
bounds = auto
seed = 7
"""

ENERGY_CFG = """
experiment = energy-smoke
s = 0.5
u0 = gaussian
u1 = gaussian
t_grid = list 0.1 1 10
backend = grid
"""


class TestConfigParsing:
    def test_round_trip_canonical_form(self):
        cfg = parse_config(SANDWICH_CFG)
        text = canonical_text(cfg)
        again = parse_config(text)
        assert again == cfg
        assert canonical_text(again) == text

    def test_every_field_is_written_and_every_written_key_accepted(self):
        # every field away from its default, so a field left unwritten would
        # come back as the default
        cfg = ExperimentConfig(
            experiment="all-fields", s=0.6, u0=Gaussian(2.0, 1.5, -1.0),
            u1=CompactBump(0.5, 2.0), t_grid=("lin", 0.0, 5.0, 3.0),
            backend="grid", grid_half_width=20.0, grid_points=1024,
            bounds="power", gamma=0.25, seed=5, out="elsewhere", plot=True)
        default = ExperimentConfig()
        names = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert all(getattr(cfg, n) != getattr(default, n) for n in names)
        text = canonical_text(cfg)
        assert parse_config(text) == cfg
        lines = text.splitlines()
        for line in lines:
            parse_config(line + "\n")
        assert [line.split(" = ", 1)[0] for line in lines] == names

    def test_negative_and_log_zero_times_rejected(self):
        for grid in ("list -1 2", "lin -1 2 3", "log 0 10 3"):
            with pytest.raises(ConfigError):
                parse_config(f"t_grid = {grid}\n")
        assert parse_config("t_grid = lin 0 10 3\n").times()[0] == 0.0

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match=":3: unknown key 'sigma'"):
            parse_config("s = 0.5\nu0 = none\nsigma = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("s = 0.5\ns = 0.6\n")

    def test_profile_declarations(self):
        cfg = parse_config("u0 = gaussian a=2 sigma=1.5 c=-1\n"
                           "u1 = gaussian_derivative a=0.5\n")
        assert cfg.u0 == Gaussian(2.0, 1.5, -1.0)
        assert cfg.u1 == GaussianDerivative(0.5, 1.0, 0.0)

    def test_bad_profile_rejected(self):
        with pytest.raises(ConfigError, match="unknown profile kind"):
            parse_config("u1 = sinc a=1\n")
        with pytest.raises(ConfigError, match="unexpected profile arguments"):
            parse_config("u1 = gaussian a=1 q=2\n")

    def test_empty_and_malformed_grids(self):
        with pytest.raises(ConfigError):
            parse_config("t_grid = list\n")
        with pytest.raises(ConfigError):
            parse_config("t_grid = log 1 100\n")
        with pytest.raises(ConfigError, match="unknown t_grid"):
            parse_config("t_grid = cubic 1 100 5\n")
        with pytest.raises(ConfigError):
            parse_config("t_grid = log 100 1 5\n").times()

    def test_invalid_order_rejected(self):
        with pytest.raises(ConfigError, match="<config>: s: fractional order"):
            parse_config("s = 1.7\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\ns = 0.6   # trailing\n")
        assert cfg.s == 0.6


class TestConfigChecks:
    """ExperimentConfig checks its values however it was made."""

    @pytest.mark.parametrize("kwargs, key", [
        ({"backend": "gpu"}, "backend"),
        ({"bounds": "tight"}, "bounds"),
        ({"t_grid": ("cubic", 1.0, 100.0, 5)}, "t_grid"),
        ({"s": 1.5}, "s"),
        ({"s": float("nan")}, "s"),
        ({"t_grid": ("list", 1.0, float("nan"))}, "t_grid"),
        ({"t_grid": ("list", -1.0, 2.0)}, "t_grid"),
        ({"t_grid": ("log", 10.0, 1.0, 5)}, "t_grid"),
        ({"t_grid": ("lin", 0.0, 1.0, 2.5)}, "t_grid"),
        ({"t_grid": ("lin", 0.0, 1.0, 1e18)}, "t_grid"),
        ({"t_grid": ("list",)}, "t_grid"),
        ({"grid_points": 3}, "grid_points"),
        ({"grid_half_width": -1.0}, "grid_half_width"),
        ({"gamma": float("inf")}, "gamma"),
        ({"seed": -1}, "seed"),
        ({"u1": Gaussian(float("nan"))}, "u1"),
        ({"u0": CompactBump(1.0, float("inf"))}, "u0"),
    ])
    def test_bad_value_names_the_key(self, kwargs, key):
        with pytest.raises(ConfigError, match=f"^(unknown )?{key}"):
            ExperimentConfig(**kwargs)

    def test_replace_is_checked(self):
        with pytest.raises(ConfigError, match="^s: "):
            dataclasses.replace(ExperimentConfig(), s=2)

    def test_a_profile_without_config_text_is_refused(self):
        from fracwave.profiles import combine
        with pytest.raises(ConfigError, match="^u1: profile ProfileSum"):
            ExperimentConfig(u1=combine((1.0, Gaussian()), (1.0, Gaussian(center=1.0))))

    def test_line_errors_carry_the_line_and_value_errors_the_key(self):
        with pytest.raises(ConfigError, match="^cfg:2: bad value for 's'"):
            parse_config("u1 = gaussian\ns = half\n", path="cfg")
        with pytest.raises(ConfigError, match="^cfg: unknown backend 'gpu'"):
            parse_config("u1 = gaussian\nbackend = gpu\n", path="cfg")

    def test_an_older_report_echo_exits_two_naming_the_key(self, tmp_path, capsys):
        # reports used to echo the keys n and theta0_threshold
        for extra in ("n = 1\n", "theta0_threshold = 0.5\n"):
            path = tmp_path / "echo.txt"
            path.write_text(canonical_text(ExperimentConfig()) + extra)
            rc = main(["solve", "--config", str(path), "--out", str(tmp_path)])
            assert rc == 2
            err = capsys.readouterr().err.strip().splitlines()
            key = extra.split(" = ")[0]
            assert len(err) == 1 and f"unknown key '{key}'" in err[0]


class TestRunners:
    def test_energy_run(self, tmp_path):
        cfg = parse_config(ENERGY_CFG)
        result = run_energy(cfg, out_dir=tmp_path)
        assert result.passed
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["verdicts"]["energy_conserved"] is True
        assert report["max_relative_drift"] <= 1e-9
        header = (tmp_path / "norms.csv").read_text().splitlines()[0]
        assert header == "t,energy,relative_drift"

    def test_solve_run_headers(self, tmp_path):
        cfg = parse_config("s = 0.75\nt_grid = list 0 1 2\nbackend = grid\n")
        result = run_solve(cfg, out_dir=tmp_path)
        assert result.passed
        header = (tmp_path / "norms.csv").read_text().splitlines()[0]
        assert header == "t,u_hat_l2,u_l2,ut_l2,hs_seminorm,energy"

    def test_grid_solve_propagates_once_per_sample(self, tmp_path, monkeypatch):
        from fracwave import spectral
        calls = []
        original = spectral.propagate

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.delenv("FRACWAVE_THREADS", raising=False)
        monkeypatch.setattr(spectral, "propagate", counting)
        cfg = parse_config("s = 0.6\nu0 = gaussian c=0.3\nt_grid = list 0.5 2 7\n"
                           "backend = grid\n")
        run_solve(cfg, out_dir=tmp_path)
        assert calls == [0.5, 2.0, 7.0]

    def test_sandwich_run(self, tmp_path):
        cfg = parse_config(SANDWICH_CFG)
        result = run_sandwich(dataclasses.replace(cfg, plot=True), out_dir=tmp_path)
        assert result.passed
        assert (tmp_path / "plot.svg").exists()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdicts"]["sandwich_holds"] is True
        assert report["sandwich"]["t0"] == pytest.approx(100.0)
        rows = (tmp_path / "norms.csv").read_text().splitlines()
        assert rows[0] == "t,u_hat_l2,u_l2,lower,upper"
        assert len(rows) == 13

    def test_rates_run_log_regime(self, tmp_path):
        cfg = parse_config("s = 0.5\nu0 = none\nu1 = gaussian\n"
                           "t_grid = log 1e2 1e4 12\n")
        result = run_rates(cfg, out_dir=tmp_path)
        assert result.passed
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["fit"]["r_squared"] >= 0.99

    def test_rates_run_bounded_regime(self, tmp_path):
        # s < 1/2: the norm stays bounded even with nonzero velocity moment
        cfg = parse_config("s = 0.3\nu0 = none\nu1 = gaussian\n"
                           "t_grid = log 1e2 1e5 14\n")
        result = run_rates(cfg, out_dir=tmp_path)
        assert result.passed
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["target_exponent"] == 0.0
        assert abs(report["fit"]["exponent"]) <= 0.02

    def test_lemmas_run(self, tmp_path):
        cfg = parse_config("u0 = gaussian\nu1 = gaussian_derivative\nseed = 3\n")
        result = run_lemmas(cfg, out_dir=tmp_path)
        assert result.passed
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdicts"]["all_inequalities_hold"] is True
        assert any(c["check"] == "riesz_zero_mean" for c in report["checks"])

    def test_lemmas_run_transforms_each_profile_once_per_grid(self, tmp_path,
                                                             monkeypatch):
        # the pointwise checks of all four gammas share one |fhat| per grid
        rng = np.random.default_rng(3)
        grids = [np.logspace(-3, 2, 500), 10.0 ** rng.uniform(-3, 2, size=100)]
        cfg = parse_config("u0 = gaussian\nu1 = gaussian_derivative\nseed = 3\n")
        calls = []
        for cls in (Gaussian, GaussianDerivative):
            original = cls.fourier
            monkeypatch.setattr(cls, "fourier", lambda p, xi, original=original: (
                calls.append((p, np.asarray(xi))) or original(p, xi)))
        result = run_lemmas(cfg, out_dir=tmp_path)
        assert result.passed
        on_grids = [(name, k) for p, xi in calls for k, grid in enumerate(grids)
                    for name in ("u0", "u1")
                    if p is getattr(cfg, name) and np.array_equal(xi, grid)]
        assert on_grids == [("u0", 0), ("u0", 1), ("u1", 0), ("u1", 1)]
        checks = [c for c in result.report["checks"] if c["check"] == "fourier_pointwise"]
        assert [(c["params"]["gamma"], c["params"]["n_points"]) for c in checks] == [
            (g, n) for g in (0.0, 0.25, 0.5, 1.0) for n in (500, 100)] * 2

    @pytest.mark.parametrize("profile,moments", [
        ("gaussian", 1), ("gaussian_derivative", 2), ("bump", 1)])
    def test_lemmas_run_takes_each_mean_once(self, tmp_path, monkeypatch,
                                             profile, moments):
        # the pointwise checks reuse the run's mean; only the zero-mean Riesz
        # check takes its own, to check its hypothesis
        from fracwave import lemmas, profiles
        calls = []
        original = profiles.moment0

        def counting(p):
            calls.append(p)
            return original(p)

        for module in (profiles, lemmas):
            monkeypatch.setattr(module, "moment0", counting)
        cfg = parse_config(f"u1 = {profile}\n")
        result = run_lemmas(cfg, out_dir=tmp_path)
        assert result.passed
        assert calls == [cfg.u1] * moments

    def test_determinism_byte_identical(self, tmp_path):
        cfg = parse_config(SANDWICH_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        run_sandwich(cfg, out_dir=a)
        run_sandwich(cfg, out_dir=b)
        assert (a / "norms.csv").read_bytes() == (b / "norms.csv").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    @pytest.mark.parametrize("s", [0.3, 0.6, 0.9])
    def test_energy_run_quadrature_position_data(self, tmp_path, s):
        # the t = 0 energy goes through the static rule, t > 0 through the
        # oscillatory rule's adaptive head; both resolve the |xi|^(2s) kink
        # at the origin
        cfg = parse_config(f"s = {s}\nu0 = gaussian\nu1 = none\n"
                           "t_grid = log 1 100 5\nbackend = quadrature\n")
        result = run_energy(cfg, out_dir=tmp_path)
        assert result.verdicts["energy_conserved"] is True
        assert result.report["max_relative_drift"] <= 1e-9

    def test_thread_env_does_not_change_results(self, tmp_path, monkeypatch):
        cfg = parse_config(ENERGY_CFG)
        serial = tmp_path / "serial"
        threaded = tmp_path / "threaded"
        run_energy(cfg, out_dir=serial)
        monkeypatch.setenv("FRACWAVE_THREADS", "4")
        run_energy(cfg, out_dir=threaded)
        assert (serial / "norms.csv").read_bytes() == (threaded / "norms.csv").read_bytes()

    def test_map_times_parallel_order(self, monkeypatch):
        monkeypatch.setenv("FRACWAVE_THREADS", "3")
        large = GridBackend(GridSpec(points=experiments.THREAD_MIN_POINTS))
        assert map_times(lambda t: t * t, [1.0, 2.0, 3.0], large) == [1.0, 4.0, 9.0]

    def test_csv_uses_17_significant_digits(self, tmp_path):
        cfg = parse_config(ENERGY_CFG)
        run_energy(cfg, out_dir=tmp_path)
        row = (tmp_path / "norms.csv").read_text().splitlines()[1]
        energy_field = row.split(",")[1]
        assert len(energy_field.replace(".", "").replace("-", "").lstrip("0")) >= 16


class TestSvgPlot:
    def test_emits_polylines(self, tmp_path):
        t = np.logspace(0, 2, 16)
        write_svg_plot(tmp_path / "p.svg", [("a", t, t ** 0.5), ("b", t, 2 * t)],
                       "title")
        svg = (tmp_path / "p.svg").read_text()
        assert svg.count("<polyline") == 2
        assert "</svg>" in svg


class TestCli:
    def _write(self, tmp_path, text):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        return str(path)

    def test_energy_exit_zero(self, tmp_path, capsys):
        rc = main(["energy", "--config", self._write(tmp_path, ENERGY_CFG),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS energy_conserved" in out

    def test_parser_is_built_once(self, tmp_path, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        argv = ["energy", "--config", self._write(tmp_path, ENERGY_CFG),
                "--out", str(tmp_path / "out")]
        runs = []
        for _ in range(2):
            runs.append((main(argv), capsys.readouterr().out,
                         (tmp_path / "out" / "norms.csv").read_bytes()))
        cli.build_parser.cache_clear()
        assert runs[0] == runs[1] and runs[0][0] == 0
        # the top parser and one per command, once for both calls
        assert len(built) == 1 + len(experiments.RUNNERS)

    def test_config_error_exit_two(self, tmp_path, capsys):
        rc = main(["energy", "--config",
                   self._write(tmp_path, "bogus_key = 1\n"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_failing_verdict_exit_one(self, tmp_path, capsys):
        # zero-moment data cannot match the power growth target
        cfg = ("s = 0.75\nu0 = none\nu1 = gaussian_derivative\n"
               "t_grid = log 1e1 1e3 12\n")
        rc = main(["rates", "--config", self._write(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "FAIL exponent_matches" in capsys.readouterr().out

    def test_solve_zero_data_with_plot(self, tmp_path, capsys):
        # nothing positive to draw on log axes: empty axes, not a traceback
        cfg = ("s = 0.75\nu0 = none\nu1 = none\nplot = true\n"
               "t_grid = log 1e1 1e3 4\n")
        rc = main(["solve", "--config", self._write(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "Traceback" not in capsys.readouterr().err
        svg = ET.parse(tmp_path / "out" / "plot.svg").getroot()
        assert svg.tag.endswith("svg")

    def test_plot_with_time_zero_has_finite_points(self, tmp_path):
        # t = 0 has no place on log axes: it is left out, not drawn at nan
        cfg = "s = 0.75\nplot = true\nt_grid = lin 0 10 3\n"
        rc = main(["solve", "--config", self._write(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        svg = ET.parse(tmp_path / "out" / "plot.svg").getroot()
        lines = [el for el in svg.iter() if el.tag.endswith("polyline")]
        assert len(lines) == 1
        points = [tuple(map(float, p.split(",")))
                  for p in lines[0].get("points").split()]
        assert len(points) == 2
        assert np.all(np.isfinite(points))

    def test_rerun_writes_new_files_with_identical_bytes(self, tmp_path):
        # outputs are replaced by new files, not truncated in place: a hard
        # link to the first run's file keeps its inode and its bytes
        cfg = "t_grid = list 1 10\nplot = true\n"
        argv = ["solve", "--config", self._write(tmp_path, cfg),
                "--out", str(tmp_path / "out")]
        names = ("norms.csv", "report.json", "plot.svg")
        assert main(argv) == 0
        for name in names:
            os.link(tmp_path / "out" / name, tmp_path / f"first-{name}")
        assert main(argv) == 0
        for name in names:
            new, first = tmp_path / "out" / name, tmp_path / f"first-{name}"
            assert new.read_bytes() == first.read_bytes()
            assert new.stat().st_ino != first.stat().st_ino

    @pytest.mark.parametrize("command, cfg, key", [
        ("solve", "u1 = gaussian a=nan\nt_grid = list 1 10\n", "argument a"),
        ("solve", "u0 = bump r=inf\n", "argument r"),
        ("solve", "t_grid = list inf\n", "t_grid"),
        ("rates", "t_grid = log 1 inf 5\n", "t_grid"),
        ("sandwich", "theta0_threshold = nan\n", "theta0_threshold"),
        ("sandwich", "theta0_threshold = 1\n", "theta0_threshold"),
        ("lemmas", "gamma = inf\n", "gamma"),
        ("energy", "backend = grid\ngrid_half_width = nan\n", "grid_half_width"),
    ], ids=["profile-nan", "profile-inf", "list-inf", "log-inf", "theta0-nan",
            "theta0-one", "gamma-inf", "half-width-nan"])
    def test_non_finite_config_exits_two_naming_the_key(self, tmp_path, capsys,
                                                        command, cfg, key):
        rc = main([command, "--config", self._write(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["solve", "energy", "rates", "sandwich"])
    def test_a_grid_past_max_points_exits_two_naming_the_key(self, tmp_path, capsys,
                                                              command):
        # 2^40 points ended in a numpy MemoryError and a traceback
        cfg = "backend = grid\ngrid_points = 1099511627776\nt_grid = log 1 10 2\n"
        rc = main([command, "--config", self._write(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "grid_points" in err
        assert "MAX_POINTS" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("command, cfg, message", [
        ("solve", "u1 = gaussian a=1e308\nt_grid = list 1 10\n",
         "u_hat_l2 is not finite at t = 1"),
        ("solve", "u1 = gaussian sigma=1e-300\nt_grid = list 1 10\n",
         "hs_seminorm is not finite at t = 1"),
        ("energy", "u1 = gaussian a=1e308\nt_grid = list 1 10\n",
         "the integrand is not finite on (0, 1]"),
    ], ids=["solve-overflow", "solve-narrow", "energy-overflow"])
    def test_overflow_prints_only_the_diagnostic(self, tmp_path, command, cfg,
                                                 message, threads):
        # a subprocess, so that numpy's warnings would reach its stderr
        src = str(Path(experiments.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fracwave.cli", command,
             "--config", self._write(tmp_path, cfg), "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": path, "FRACWAVE_THREADS": threads},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and message in lines[0], proc.stderr

    @pytest.mark.parametrize("command", ["solve", "sandwich"])
    @pytest.mark.parametrize("grid", ["list 1e300", "log 1e-300 1e300 3"])
    def test_too_large_a_time_exits_one(self, tmp_path, capsys, command, grid):
        rc = main([command, "--config", self._write(tmp_path, f"t_grid = {grid}\n"),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "t = 1e+300 is too large for s = 0.75" in err

    @pytest.mark.parametrize("command, cfg, column", [
        ("solve", "u1 = gaussian a=1e308\nt_grid = list 1 10\n", "u_hat_l2"),
        ("energy", "u0 = gaussian a=1e200\nt_grid = list 1 10\nbackend = grid\n",
         "energy"),
    ], ids=["solve", "energy"])
    def test_non_finite_norm_exits_one_before_writing(self, tmp_path, capsys,
                                                      command, cfg, column):
        rc = main([command, "--config", self._write(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "NumericalFailureError" in err
        assert f"{column} is not finite at t = 1" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out" / "norms.csv").exists()

    def test_negative_time_exits_two_with_one_line(self, tmp_path, capsys):
        rc = main(["solve", "--config", self._write(tmp_path, "t_grid = list -1 2\n"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "nonnegative" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("c", ["1e12", "1e300"])
    def test_far_centred_data_solve_as_centred_data(self, tmp_path, c):
        tables = []
        for centre in ("0", c):
            cfg = (f"u0 = gaussian c={centre}\nu1 = gaussian c={centre}\n"
                   "t_grid = log 1e-2 1e4 6\n")
            out = tmp_path / centre
            assert main(["solve", "--config", self._write(tmp_path, cfg),
                         "--out", str(out)]) == 0
            tables.append(np.loadtxt(out / "norms.csv", delimiter=",", skiprows=1))
        assert np.allclose(tables[1], tables[0], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("command, cfg, message", [
        ("solve", "u0 = gaussian c=1e12\nt_grid = list 1 10\n", "MAX_PANELS"),
        ("sandwich", "u1 = gaussian c=1e300\n", "cannot resolve"),
        ("lemmas", "u1 = gaussian c=1e300\n", "cannot resolve"),
        ("solve", "u0 = none\nt_grid = list 1e-160 1\n", "t = 1e-160"),
        # the cutoff, not t, puts the rule's lowest edge below the doubles
        ("solve", "u1 = gaussian sigma=1e300\nt_grid = list 1 10\n",
         "frequency cutoff, 1.28758e-299, is too small"),
        ("solve", "u1 = bump r=1e300\nt_grid = list 1 10\n",
         "frequency cutoff, 1.536e-297, is too small"),
    ], ids=["far-apart", "sandwich-far", "lemmas-far", "tiny-t", "too-wide",
            "bump-too-wide"])
    def test_unresolvable_data_exit_one_with_one_line(self, tmp_path, capsys,
                                                      command, cfg, message):
        rc = main([command, "--config", self._write(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "NumericalFailureError" in err[0]
        assert message in err[0]

    def test_plot_escapes_experiment_name(self, tmp_path):
        cfg = ("experiment = a<b&c\ns = 0.75\nplot = true\n"
               "t_grid = log 1e1 1e2 3\n")
        rc = main(["solve", "--config", self._write(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        svg = ET.parse(tmp_path / "out" / "plot.svg").getroot()
        texts = [el.text for el in svg.iter() if el.tag.endswith("text")]
        assert texts[0] == "a<b&c"

    # a pool of 2 only for a grid at or above THREAD_MIN_POINTS (2^15)
    @pytest.mark.parametrize("command, cfg, expected", [
        ("sandwich", SANDWICH_CFG, []),
        ("rates", "s = 0.5\nu0 = none\nu1 = gaussian\nt_grid = log 1e2 1e4 12\n",
         []),
        ("solve", "s = 0.75\nu0 = gaussian a=0.5 sigma=1 c=0.3\nu1 = gaussian\n"
                  "t_grid = log 1e2 1e4 12\nbackend = quadrature\n", []),
        ("energy", "s = 0.6\nu0 = gaussian\nu1 = gaussian\n"
                   "t_grid = log 1 1e5 12\nbackend = quadrature\n", []),
        ("solve", "s = 0.75\nu0 = gaussian\nu1 = gaussian\nt_grid = lin 0 100 4\n"
                  "backend = grid\ngrid_points = 32768\n", [2]),
        ("solve", "s = 0.75\nu0 = gaussian\nu1 = gaussian\nt_grid = lin 0 100 4\n"
                  "backend = grid\n", []),
    ], ids=["sandwich", "rates", "solve", "energy", "grid-solve-large",
            "grid-solve-small"])
    def test_threads_do_not_change_outputs(self, tmp_path, monkeypatch,
                                           command, cfg, expected):
        pools = []
        pool = experiments.ThreadPoolExecutor

        def counting_pool(**kwargs):
            pools.append(kwargs["max_workers"])
            return pool(**kwargs)

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", counting_pool)
        path = self._write(tmp_path, cfg)
        for threads in ("1", "2"):
            monkeypatch.setenv("FRACWAVE_THREADS", threads)
            assert main([command, "--config", path,
                         "--out", str(tmp_path / threads)]) == 0
        assert pools == expected
        for name in ("norms.csv", "report.json"):
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes())

    @pytest.mark.parametrize("command", ["solve", "energy", "rates", "sandwich",
                                         "lemmas"])
    def test_dimension_two_exits_two(self, tmp_path, capsys, command):
        cfg = "n = 2\nt_grid = log 1e2 1e3 10\n"
        rc = main([command, "--config", self._write(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        # configs declare 1-d profiles: the dimension is not a key
        assert err.startswith("config error") and "unknown key 'n'" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command, cfg", [
        ("sandwich", "t_grid = list 5 1 3\n"),
        ("rates", "t_grid = list 0 10 100\n"),
        ("rates", "s = 0.5\nt_grid = lin 0.5 50 20\n"),
        ("rates", "t_grid = log 1 10 5\n"),
        ("rates", "u0 = none\nu1 = none\n"),
        ("sandwich", "u0 = none\nu1 = none\n"),
    ], ids=["unordered", "time-zero", "log-law-below-one", "five-samples",
            "rates-zero-data", "sandwich-zero-data"])
    def test_unusable_series_exits_with_one_line(self, tmp_path, capsys,
                                                 command, cfg):
        rc = main([command, "--config", self._write(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc in (1, 2)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_decreasing_grid_exits_before_solving(self, tmp_path, capsys,
                                                  monkeypatch):
        from fracwave import ratefit
        solved = []
        monkeypatch.setattr(ratefit, "evolve_state",
                            lambda *args: solved.append(args[2]))
        cfg = "s = 0.9\nu0 = none\nu1 = gaussian\nt_grid = list 1e6 1e5\n"
        rc = main(["sandwich", "--config", self._write(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "strictly increasing" in err
        assert len(err.strip().splitlines()) == 1
        assert solved == []

    @pytest.mark.parametrize("command", ["solve", "energy", "sandwich"])
    def test_grid_time_past_cap_exits_before_solving(self, tmp_path, capsys,
                                                     monkeypatch, command):
        from fracwave import ratefit
        solved = []
        for module in (experiments, ratefit):
            monkeypatch.setattr(module, "evolve_state",
                                lambda *args: solved.append(args[2]))
        cfg = "backend = grid\nu0 = gaussian\nt_grid = list 1 10 50 99 150\n"
        rc = main([command, "--config", self._write(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "BackendCapError" in err and "requested t=150" in err
        assert len(err.strip().splitlines()) == 1
        assert solved == []

    def test_wrong_regime_is_reported_not_raised(self, tmp_path, capsys):
        cfg = "s = 0.75\nbounds = log\nt_grid = log 1e2 1e3 10\n"
        rc = main(["sandwich", "--config", self._write(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "WrongRegimeError" in capsys.readouterr().err


def test_cli_runs_without_scipy(tmp_path):
    # a fresh process: scipy, which the tests import, must not be needed by
    # the program itself
    configs = {
        "solve": "s = 0.75\nu0 = gaussian\nu1 = gaussian\nt_grid = log 1e-2 1e3 6\n",
        "sandwich": SANDWICH_CFG,
        "lemmas": "u0 = gaussian a=1 sigma=1 c=0.5\nu1 = gaussian_derivative\n",
    }
    runs = []
    for command, text in configs.items():
        path = tmp_path / f"{command}.txt"
        path.write_text(text)
        runs.append([command, "--config", str(path), "--out", str(tmp_path / command)])
    code = textwrap.dedent(f"""
        import sys
        from fracwave.cli import main
        codes = [main(argv) for argv in {runs!r}]
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        print(codes, len(loaded), loaded[:5])
        sys.exit(0 if codes == [0, 0, 0] and not loaded else 1)
    """)
    src = str(Path(experiments.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
