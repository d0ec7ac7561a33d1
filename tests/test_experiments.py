"""Experiment configs, runners, file outputs, CLI contract."""

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

from fracwave import experiments
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
            experiment="all-fields", s=0.6, n=2, u0=Gaussian(2.0, 1.5, -1.0),
            u1=CompactBump(0.5, 2.0), t_mode="lin", t_args=(0.0, 5.0, 3.0),
            backend="grid", grid_half_width=20.0, grid_points=1024,
            bounds="power", theta0_threshold=0.4, gamma=0.25, seed=5,
            out="elsewhere", plot=True)
        default = ExperimentConfig()
        names = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert all(getattr(cfg, n) != getattr(default, n) for n in names)
        text = canonical_text(cfg)
        # n = 2 is written but not accepted: configs declare 1-d profiles
        with pytest.raises(ConfigError, match="n=2"):
            parse_config(text)
        text = text.replace("\nn = 2\n", "\nn = 1\n")
        assert parse_config(text) == dataclasses.replace(cfg, n=1)
        lines = text.splitlines()
        for line in lines:
            parse_config(line + "\n")
        keys = [line.split(" = ", 1)[0] for line in lines]
        expected = [n for n in names if n != "t_args"]
        assert keys == ["t_grid" if n == "t_mode" else n for n in expected]

    def test_negative_and_log_zero_times_rejected(self):
        for grid in ("list -1 2", "lin -1 2 3", "log 0 10 3"):
            with pytest.raises(ConfigError):
                parse_config(f"t_grid = {grid}\n")
        assert parse_config("t_grid = lin 0 10 3\n").t_grid()[0] == 0.0

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
        with pytest.raises(ConfigError, match="unknown t_grid mode"):
            parse_config("t_grid = cubic 1 100 5\n")
        with pytest.raises(ConfigError):
            parse_config("t_grid = log 100 1 5\n").t_grid()

    def test_invalid_order_rejected(self):
        with pytest.raises(ConfigError, match="invalid configuration"):
            parse_config("s = 1.7\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\ns = 0.6   # trailing\n")
        assert cfg.s == 0.6


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
        result = run_sandwich(cfg, out_dir=tmp_path, plot=True)
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
        assert map_times(lambda t: t * t, [1.0, 2.0, 3.0]) == [1.0, 4.0, 9.0]

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

    def test_backend_override(self, tmp_path):
        cfg = ENERGY_CFG.replace("backend = grid", "backend = quadrature")
        rc = main(["energy", "--config", self._write(tmp_path, cfg),
                   "--out", str(tmp_path / "out"), "--backend", "grid"])
        assert rc == 0

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

    def test_negative_time_exits_two_with_one_line(self, tmp_path, capsys):
        rc = main(["solve", "--config", self._write(tmp_path, "t_grid = list -1 2\n"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "nonnegative" in err
        assert len(err.strip().splitlines()) == 1

    def test_plot_escapes_experiment_name(self, tmp_path):
        cfg = ("experiment = a<b&c\ns = 0.75\nplot = true\n"
               "t_grid = log 1e1 1e2 3\n")
        rc = main(["solve", "--config", self._write(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        svg = ET.parse(tmp_path / "out" / "plot.svg").getroot()
        texts = [el.text for el in svg.iter() if el.tag.endswith("text")]
        assert texts[0] == "a<b&c"

    @pytest.mark.parametrize("command, cfg", [
        ("sandwich", SANDWICH_CFG),
        ("rates", "s = 0.5\nu0 = none\nu1 = gaussian\nt_grid = log 1e2 1e4 12\n"),
    ], ids=["sandwich", "rates"])
    def test_threads_do_not_change_outputs(self, tmp_path, monkeypatch,
                                           command, cfg):
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
        assert pools == [2]
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
        assert err.startswith("config error") and "n=2" in err
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
