"""Tests for the experiment registry and the CLI."""

import os

import pytest

from repro.__main__ import build_parser, main
from repro._version import __version__
from repro.errors import ConfigurationError
from repro.experiments.registry import (
    EXPERIMENTS,
    all_experiments,
    get_experiment,
)


class TestRegistry:
    def test_seventeen_artifacts(self):
        assert len(EXPERIMENTS) == 17
        assert "room" in EXPERIMENTS

    def test_every_experiment_has_run_and_main(self):
        for experiment in all_experiments():
            assert callable(experiment.run)
            assert callable(experiment.main)

    def test_light_filter(self):
        light = all_experiments(include_heavy=False)
        assert all(not e.heavy for e in light)
        assert {"table1", "table2", "table3", "fig01"} <= {
            e.name for e in light
        }

    def test_heavy_experiments_are_the_simulations(self):
        heavy = {e.name for e in all_experiments() if e.heavy}
        assert heavy == {
            "fig03",
            "fig11",
            "fig13",
            "fig14",
            "fig15",
            "faults",
        }

    def test_get_experiment(self):
        assert get_experiment("fig14").heavy

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig14" in out
        assert "table2" in out

    def test_schedulers(self, capsys):
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out
        assert "CP" in out.splitlines()

    def test_run_single_artifact(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "51.74" in out

    def test_run_light(self, capsys):
        assert main(["run", "--light"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Figure 10" in out

    def test_run_without_names_errors(self, capsys):
        assert main(["run"]) == 2

    def test_run_unknown_artifact_raises(self):
        with pytest.raises(ConfigurationError):
            main(["run", "fig99"])

    @pytest.mark.parametrize(
        "flags,unknown,known",
        [
            (["--schemes", "CF", "NOPE"], "NOPE", "CN"),
            (["--sets", "Nope"], "Nope", "Storage"),
            (["--sim-time", "inf"], "sim_time_s", "inf"),
            (["--sim-time", "nan"], "sim_time_s", "nan"),
            (["--rows", "0"], "rows", ">= 1"),
            (["--loads", "0.5", "0"], "load", "got 0.0"),
            (["--loads", "1.5"], "load", "got 1.5"),
            (["--loads", "nan"], "load", "got nan"),
            (["--seed", "-1"], "seed", "-1"),
            (["--faults", "garbage"], "garbage", "known: fan"),
        ],
    )
    def test_sweep_rejects_unknown_names_before_running(
        self, capsys, monkeypatch, flags, unknown, known
    ):
        import repro.sim.runner

        def _run_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before its names were checked")

        monkeypatch.setattr(repro.sim.runner, "run_sweep", _run_sweep)
        assert main(["sweep", "--rows", "1", "--sim-time", "1"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")
        assert unknown in line and known in line

    @pytest.mark.parametrize(
        "argv,field",
        [
            (
                ["chaos", "--seed", "0", "--heartbeat-interval", "-1"],
                "heartbeat_interval_s",
            ),
            (
                ["chaos", "--seed", "0", "--heartbeat-interval", "nan"],
                "heartbeat_interval_s",
            ),
            (["chaos", "--seed", "0", "--horizon", "nan"], "horizon_s"),
            (
                ["chaos", "--seed", "0", "--batch-window", "-1"],
                "batch_window_s",
            ),
            (["chaos", "--seed", "0", "--max-batch", "0"], "max_batch"),
            (
                ["serve", "--heartbeat-interval", "-1"],
                "heartbeat_interval_s",
            ),
            (["serve", "--batch-window", "-1"], "batch_window_s"),
            (["serve", "--batch-window", "nan"], "batch_window_s"),
            (["serve", "--chassis", "0"], "chassis"),
            (["query", "what_if", "--scenarios", "0.5"], "UTIL:POWER"),
            (["query", "what_if", "--scenarios", "a:b"], "UTIL:POWER"),
        ],
    )
    def test_fleet_rejects_bad_knobs_before_running(
        self, capsys, monkeypatch, argv, field
    ):
        import repro.fleet
        import repro.fleet.service

        def _reached(*args, **kwargs):
            raise AssertionError("the fleet ran with an invalid knob")

        monkeypatch.setattr(repro.fleet, "run_chaos", _reached)
        monkeypatch.setattr(repro.fleet, "FleetService", _reached)
        monkeypatch.setattr(repro.fleet.service, "query_fleet", _reached)
        assert main(["fleet"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")
        assert field in line

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--mixes", "coupled", "nope"], "nope"),
            (["--placements", "paper", "bogus"], "bogus"),
            (["--setpoints", "22", "nan"], "setpoints"),
            (["--chassis", "0"], "chassis"),
            (["--set", "Nope"], "Nope"),
            (["--diurnal-step", "0"], "diurnal step"),
            (["--diurnal-step", "-3"], "diurnal step"),
        ],
    )
    def test_room_rejects_bad_inputs_before_running(
        self, capsys, monkeypatch, tmp_path, flags, named
    ):
        import repro.experiments.room_scenarios

        def _run(*args, **kwargs):
            raise AssertionError("the room ran with a bad input")

        monkeypatch.setattr(repro.experiments.room_scenarios, "run", _run)
        directory = tmp_path / "telemetry"
        assert main(["room", "--telemetry", str(directory)] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")
        assert named in line
        assert not directory.exists()

    def test_rejected_serve_leaves_no_telemetry(
        self, capsys, monkeypatch, tmp_path
    ):
        import repro.fleet

        def _reached(*args, **kwargs):
            raise AssertionError("the fleet ran with an invalid knob")

        monkeypatch.setattr(repro.fleet, "FleetService", _reached)
        directory = tmp_path / "telemetry"
        argv = ["serve", "--chassis", "0", "--telemetry", str(directory)]
        assert main(["fleet"] + argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not directory.exists()

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out.strip()
        assert out == f"repro {__version__}"

    def test_version_matches_package(self):
        import repro

        assert repro.__version__ == __version__


class TestUnusableOutputPaths:
    """An output path under a regular file fails before any work, with
    one ``error:`` line and exit 2."""

    @pytest.fixture
    def bad_dir(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        return blocker / "x"

    @staticmethod
    def forbid(monkeypatch, module, name):
        def _reached(*args, **kwargs):
            raise AssertionError(f"{name} ran with an unusable output path")

        monkeypatch.setattr(module, name, _reached)

    @staticmethod
    def assert_one_error_line(capsys, bad_dir):
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: cannot create directory {bad_dir}: ")

    @pytest.mark.parametrize(
        "flag,leaf",
        [
            ("--telemetry", None),
            ("--resume", None),
            ("--csv", "s.csv"),
            ("--json", "s.json"),
        ],
    )
    def test_sweep(self, capsys, monkeypatch, bad_dir, flag, leaf):
        import repro.sim.runner

        self.forbid(monkeypatch, repro.sim.runner, "run_sweep")
        path = bad_dir if leaf is None else bad_dir / leaf
        argv = ["sweep", "--rows", "1", "--sim-time", "1", flag, str(path)]
        assert main(argv) == 2
        self.assert_one_error_line(capsys, bad_dir)

    @pytest.mark.parametrize(
        "flag,leaf", [("--telemetry", None), ("--out", "f.json")]
    )
    def test_room(self, capsys, monkeypatch, bad_dir, flag, leaf):
        import repro.experiments.room_scenarios

        self.forbid(monkeypatch, repro.experiments.room_scenarios, "run")
        path = bad_dir if leaf is None else bad_dir / leaf
        assert main(["room", flag, str(path)]) == 2
        self.assert_one_error_line(capsys, bad_dir)

    @pytest.mark.parametrize("flag", ["--telemetry", "--checkpoints"])
    def test_fleet_serve(self, capsys, monkeypatch, bad_dir, flag):
        import repro.fleet

        self.forbid(monkeypatch, repro.fleet, "FleetService")
        argv = ["fleet", "serve", "--port", "0", flag, str(bad_dir)]
        assert main(argv) == 2
        self.assert_one_error_line(capsys, bad_dir)

    def test_run(self, capsys, monkeypatch, bad_dir):
        import repro.experiments.registry

        experiment = repro.experiments.registry.get_experiment("table2")
        self.forbid(monkeypatch, experiment.module, "main")
        before = os.environ.get("REPRO_TELEMETRY")
        assert main(["run", "table2", "--telemetry", str(bad_dir)]) == 2
        self.assert_one_error_line(capsys, bad_dir)
        assert os.environ.get("REPRO_TELEMETRY") == before

    def test_report(self, capsys, monkeypatch, bad_dir):
        import repro.experiments.report

        self.forbid(monkeypatch, repro.experiments.report, "write_report")
        assert main(["report", "--out", str(bad_dir / "r.md")]) == 2
        self.assert_one_error_line(capsys, bad_dir)

    def test_fleet_chaos(self, capsys, monkeypatch, bad_dir):
        import repro.fleet

        self.forbid(monkeypatch, repro.fleet, "run_chaos")
        assert main(["fleet", "chaos", "--out", str(bad_dir)]) == 2
        self.assert_one_error_line(capsys, bad_dir)
